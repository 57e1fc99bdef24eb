"""Baseline digital transmission chain: an intra-only block-DCT source coder
(run-length + Exp-Golomb entropy coding), rate-1/2 LDPC channel coding, and
BPSK over the AWGN channel, with macroblock concealment for undecodable
regions.

The source coder works on 16x16 macroblocks (four 8x8 luma-sized DCT blocks
per color channel, twelve per macroblock), each independently decodable so a
corrupted channel block damages only the macroblocks it covers.  DC
coefficients are DPCM-predicted inside a macroblock and reset at its start.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.fft import dctn, idctn

from .bitio import BitReader, BitWriter
from .channel import ChannelConfig, TxStats, awgn, noise_variance
from .ldpc import LdpcCode, bpsk_demodulate, bpsk_modulate, ldpc_decode, ldpc_encode
from .video import Frame, Gop, pad_edge

BLOCK = 8
MB = 16
GRAY = 0.5
EOB_TOKEN = 1  # run tokens: 0 -> zero run, 1 -> end of block, r+1 -> run r
HEADER_BITS = 128
OFFSET_BITS = 32
PCM_SAMPLES = MB * MB * 3
PCM_BITS = PCM_SAMPLES * 8


class BitstreamError(ValueError):
    """Raised for malformed or unrecoverable bitstream structure."""


def _zigzag_order(n: int = BLOCK) -> np.ndarray:
    order = []
    for s in range(2 * n - 1):
        lo, hi = max(0, s - n + 1), min(s, n - 1)
        if s % 2 == 0:
            order.extend((i, s - i) for i in range(hi, lo - 1, -1))
        else:
            order.extend((s - j, j) for j in range(hi, lo - 1, -1))
    return np.array([i * n + j for i, j in order])


ZIGZAG = _zigzag_order()


@dataclass(frozen=True)
class Bitstream:
    """Entropy-coded GOP payload plus per-macroblock bit ranges."""

    bits: np.ndarray          # uint8 0/1
    width: int
    height: int
    n_frames: int
    qp: float
    block_map: np.ndarray     # (n_macroblocks, 2) bit ranges, frame major

    def __post_init__(self) -> None:
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        bm = np.ascontiguousarray(self.block_map, dtype=np.int64)
        if self.qp <= 0:
            raise BitstreamError("qp must be positive")
        if self.width < 1 or self.height < 1 or self.n_frames < 1:
            raise BitstreamError("invalid dimensions in header")
        if bm.ndim != 2 or bm.shape[1] != 2:
            raise BitstreamError("block_map must have shape (n, 2)")
        mbs_per_frame = _mb_grid(self.width, self.height)[0] * _mb_grid(self.width, self.height)[1]
        if bm.shape[0] != mbs_per_frame * self.n_frames:
            raise BitstreamError("block_map length inconsistent with dimensions")
        if bm.size and (np.any(np.diff(bm[:, 0]) < 0) or int(bm[-1, 1]) != bits.size):
            raise BitstreamError("block_map inconsistent with bit payload")
        bits.setflags(write=False)
        bm.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "block_map", bm)

    @property
    def bit_length(self) -> int:
        return int(self.bits.size)

    @property
    def side_info_bits(self) -> int:
        # header fields plus one offset per macroblock (ranges are contiguous)
        return HEADER_BITS + OFFSET_BITS * self.block_map.shape[0]


def _mb_grid(width: int, height: int):
    return (-(-height // MB), -(-width // MB))


def _quantize(coefs: np.ndarray, step: float) -> np.ndarray:
    return np.round(coefs / step).astype(np.int64)


def _encode_block(writer: BitWriter, quant: np.ndarray, dc_pred: int) -> int:
    scanned = quant.reshape(-1)[ZIGZAG]
    writer.write_signed_exp_golomb(int(scanned[0]) - dc_pred)
    ac = scanned[1:]
    nonzero = np.nonzero(ac)[0]
    pos = 0
    for idx in nonzero:
        run = int(idx - pos)
        writer.write_exp_golomb(0 if run == 0 else run + 1)
        writer.write_signed_exp_golomb(int(ac[idx]))
        pos = idx + 1
    if pos < ac.size:
        writer.write_exp_golomb(EOB_TOKEN)
    return int(scanned[0])


def _decode_block(reader: BitReader, dc_pred: int) -> tuple:
    scanned = np.zeros(BLOCK * BLOCK, dtype=np.int64)
    dc = reader.read_signed_exp_golomb() + dc_pred
    scanned[0] = dc
    pos = 0
    ac_len = BLOCK * BLOCK - 1
    while pos < ac_len:
        token = reader.read_exp_golomb()
        if token == EOB_TOKEN:
            break
        pos += 0 if token == 0 else token - 1
        if pos >= ac_len:
            raise BitstreamError("run-length overflow")
        scanned[1 + pos] = reader.read_signed_exp_golomb()
        pos += 1
    block = np.zeros(BLOCK * BLOCK, dtype=np.int64)
    block[ZIGZAG] = scanned
    return block.reshape(BLOCK, BLOCK), dc


def _encode_macroblock(tile: np.ndarray, step: float) -> np.ndarray:
    """One independently decodable macroblock: a mode flag, then either the
    twelve entropy-coded DCT blocks or (if they would exceed the raw size)
    PCM-escaped 8-bit samples."""
    coded = BitWriter()
    dc_pred = 0
    for ch in range(3):
        for by in range(2):
            for bx in range(2):
                block = tile[
                    by * BLOCK : (by + 1) * BLOCK,
                    bx * BLOCK : (bx + 1) * BLOCK,
                    ch,
                ]
                coefs = dctn(block, norm="ortho")
                dc_pred = _encode_block(coded, _quantize(coefs, step), dc_pred)
    if len(coded) < PCM_BITS:
        out = BitWriter()
        out.write_bit(0)
        return np.concatenate([out.to_array(), coded.to_array()])
    out = BitWriter()
    out.write_bit(1)
    samples = np.round((tile + GRAY) * 255.0).astype(np.int64).reshape(-1)
    bits = ((samples[:, None] >> np.arange(7, -1, -1)) & 1).reshape(-1)
    return np.concatenate([out.to_array(), bits.astype(np.uint8)])


def source_encode(gop: Gop, qp: float) -> Bitstream:
    """Block-DCT intra coder: level shift, 8x8 orthonormal DCT per channel,
    uniform quantization with step qp/255, zigzag run-length, Exp-Golomb,
    with a per-macroblock PCM escape for incompressible content."""
    if qp <= 0:
        raise ValueError("qp must be positive")
    step = qp / 255.0
    pieces = []
    ranges = []
    position = 0
    rows, cols = _mb_grid(gop.width, gop.height)
    for frame in gop.frames:
        padded = pad_edge(frame.data - GRAY, MB, MB)
        for my in range(rows):
            for mx in range(cols):
                tile = padded[my * MB : (my + 1) * MB, mx * MB : (mx + 1) * MB, :]
                coded = _encode_macroblock(tile, step)
                pieces.append(coded)
                ranges.append((position, position + coded.size))
                position += coded.size
    return Bitstream(
        bits=np.concatenate(pieces),
        width=gop.width,
        height=gop.height,
        n_frames=gop.gop_size,
        qp=qp,
        block_map=np.array(ranges, dtype=np.int64),
    )


def _decode_macroblock(bits: np.ndarray, start: int, end: int, step: float) -> np.ndarray:
    reader = BitReader(bits, start, end)
    if reader.read_bit():
        if end - reader.position < PCM_BITS:
            raise BitstreamError("truncated PCM macroblock")
        raw = bits[reader.position : reader.position + PCM_BITS].astype(np.int64)
        samples = raw.reshape(-1, 8) @ (1 << np.arange(7, -1, -1))
        return samples.reshape(MB, MB, 3) / 255.0 - GRAY
    tile = np.empty((MB, MB, 3))
    dc_pred = 0
    for ch in range(3):
        for by in range(2):
            for bx in range(2):
                quant, dc_pred = _decode_block(reader, dc_pred)
                block = idctn(quant.astype(np.float64) * step, norm="ortho")
                tile[by * BLOCK : (by + 1) * BLOCK, bx * BLOCK : (bx + 1) * BLOCK, ch] = block
    return tile


def _overlaps(start: int, end: int, spans) -> bool:
    return any(s < end and start < e for s, e in spans)


def source_decode(bs: Bitstream, corrupted_ranges=None, prev_frame: Frame = None) -> Gop:
    """Decode a bitstream; macroblocks whose bits are corrupted (flagged or
    failing to parse) are concealed with the co-located pixels of the
    previously decoded frame, gray for the first."""
    if bs.bit_length == 0 and bs.block_map.shape[0] > 0:
        raise BitstreamError("empty bitstream")
    corrupted_ranges = list(corrupted_ranges or [])
    step = bs.qp / 255.0
    rows, cols = _mb_grid(bs.width, bs.height)
    ph, pw = rows * MB, cols * MB
    reference = (
        pad_edge(prev_frame.data, MB, MB) - GRAY if prev_frame is not None
        else np.zeros((ph, pw, 3))
    )
    frames = []
    mb_index = 0
    for _ in range(bs.n_frames):
        canvas = np.empty((ph, pw, 3))
        for my in range(rows):
            for mx in range(cols):
                start, end = bs.block_map[mb_index]
                mb_index += 1
                sl = (slice(my * MB, (my + 1) * MB), slice(mx * MB, (mx + 1) * MB))
                if _overlaps(int(start), int(end), corrupted_ranges):
                    canvas[sl] = reference[sl]
                    continue
                try:
                    canvas[sl] = _decode_macroblock(bs.bits, int(start), int(end), step)
                except ValueError:
                    canvas[sl] = reference[sl]
        reference = canvas
        frames.append(Frame(np.clip(canvas[: bs.height, : bs.width] + GRAY, 0.0, 1.0)))
    return Gop(tuple(frames))


@dataclass(frozen=True)
class PreparedClassical:
    """Source-coded and channel-coded GOP, ready for repeated channel runs
    (SNR sweeps reuse the encode)."""

    bitstream: Bitstream
    symbols: object  # SymbolBlock of BPSK symbols

    @cached_property
    def clean_decode(self) -> Gop:
        """The GOP as decoded from intact bits, computed once per prepared
        GOP.  No macroblock is concealed, so it needs no previous frame."""
        return source_decode(self.bitstream)


def prepare_classical(gop: Gop, qp: float, code: LdpcCode) -> PreparedClassical:
    bs = source_encode(gop, qp)
    pad = (-bs.bit_length) % code.k
    info = np.concatenate([bs.bits, np.zeros(pad, dtype=np.uint8)])
    coded = ldpc_encode(info, code)
    return PreparedClassical(bitstream=bs, symbols=bpsk_modulate(coded))


def transmit_prepared(
    prep: PreparedClassical,
    ch: ChannelConfig,
    code: LdpcCode,
    prev_frame: Frame = None,
    max_iters: int = 50,
):
    bs = prep.bitstream
    received = awgn(prep.symbols, ch)
    llrs = bpsk_demodulate(received, noise_variance(ch.snr_db))
    decoded, converged = ldpc_decode(llrs, code, max_iters=max_iters)
    decoded = decoded[: bs.bit_length]
    if converged.all() and np.array_equal(decoded, bs.bits):
        gop_hat = prep.clean_decode
    else:
        corrupted = [
            (b * code.k, min((b + 1) * code.k, bs.bit_length))
            for b in np.nonzero(~converged)[0]
            if b * code.k < bs.bit_length
        ]
        gop_hat = source_decode(replace(bs, bits=decoded), corrupted, prev_frame)
    stats = TxStats(
        payload_bits=bs.bit_length,
        channel_symbols=int(prep.symbols.symbols.size),
        decode_failures=int(np.count_nonzero(~converged)),
        side_info_bits=bs.side_info_bits,
    )
    return gop_hat, stats

