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

from .bitio import exp_golomb
from .channel import TxStats, awgn, noise_variance
from .ldpc import LdpcCode, bpsk_demodulate, bpsk_modulate, ldpc_decode, ldpc_encode
from .video import VideoSequence, pad_edge

BLOCK = 8
MB = 16
MB_BLOCKS = 3 * (MB // BLOCK) ** 2  # 8x8 blocks per macroblock, all channels
GRAY = 0.5
EOB_TOKEN = 1  # run tokens: 0 -> zero run, 1 -> end of block, r+1 -> run r
HEADER_BITS = 128
OFFSET_BITS = 32
PCM_SAMPLES = MB * MB * 3
PCM_BITS = PCM_SAMPLES * 8
MAX_CODE_ZEROS = 48  # longest Exp-Golomb prefix the parser accepts
# quantized levels are clipped to +-LEVEL_LIMIT.  A coded macroblock codes
# each AC level and DC difference below 2**MAX_CODE_ZEROS, so its levels stay
# below MB_BLOCKS times that: clipping changes none of them, and a clipped
# level's macroblock takes the PCM escape
LEVEL_LIMIT = MB_BLOCKS << MAX_CODE_ZEROS


class BitstreamError(ValueError):
    """Raised for malformed or unrecoverable bitstream structure."""


def _zigzag_order() -> np.ndarray:
    order = []
    for s in range(2 * BLOCK - 1):
        lo, hi = max(0, s - BLOCK + 1), min(s, BLOCK - 1)
        if s % 2 == 0:
            order.extend((i, s - i) for i in range(hi, lo - 1, -1))
        else:
            order.extend((s - j, j) for j in range(hi, lo - 1, -1))
    return np.array([i * BLOCK + j for i, j in order])


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


def _tiles(frames: np.ndarray) -> np.ndarray:
    """(frames, rows * 16, cols * 16, 3) -> (macroblocks, 16, 16, 3), frame
    major, then raster order within each frame."""
    n, h, w, _ = frames.shape
    return frames.reshape(n, h // MB, MB, w // MB, MB, 3).swapaxes(2, 3).reshape(-1, MB, MB, 3)


def _signed(values: np.ndarray) -> np.ndarray:
    """Map signed integers onto the unsigned codes 0, 1, -1, 2, -2, ..."""
    return np.where(values > 0, 2 * values - 1, -2 * values)


def _pack(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate each code's low ``length`` bits, most significant first."""
    ends = np.cumsum(lengths)
    shift = np.repeat(ends, lengths) - np.arange(ends[-1]) - 1
    return ((np.repeat(codes, lengths) >> shift) & 1).astype(np.uint8)


def _quantize(gop: VideoSequence, qp: float):
    """Level-shifted macroblock tiles (n, 16, 16, 3) and their quantized DCT
    levels (n, channel, block row, block column, 8, 8), clipped to
    +-LEVEL_LIMIT before the int64 cast."""
    tiles = _tiles(np.stack([pad_edge(f - GRAY, MB, MB) for f in gop.frames]))
    blocks = tiles.reshape(-1, 2, BLOCK, 2, BLOCK, 3).transpose(0, 5, 1, 3, 2, 4)
    coefs = dctn(blocks, axes=(-2, -1), norm="ortho")
    with np.errstate(over="ignore"):  # a subnormal step overflows to inf, which the clip bounds
        levels = np.clip(np.round(coefs / (qp / 255.0)), -LEVEL_LIMIT, LEVEL_LIMIT)
    return tiles, levels.astype(np.int64)


def source_encode(gop: VideoSequence, qp: float) -> Bitstream:
    """Block-DCT intra coder: level shift, 8x8 orthonormal DCT per channel,
    uniform quantization with step qp/255, zigzag run-length, Exp-Golomb,
    with a per-macroblock PCM escape for incompressible content.

    Each macroblock is a mode bit, then either its twelve blocks (channel,
    then block row, then block column), or PCM_SAMPLES 8-bit samples when
    the blocks would take PCM_BITS or more or hold a code with more than
    MAX_CODE_ZEROS leading zeros.  A block is its DC difference from the
    previous block's DC (0 for the macroblock's first block), then a (run
    token, level) pair per nonzero AC level in zigzag order, then EOB_TOKEN
    unless the last AC level is nonzero; levels are signed codes.
    """
    if not qp / 255.0 > 0:
        raise ValueError(f"classical.qp must give a positive step qp / 255, got {qp!r}")
    tiles, levels = _quantize(gop, qp)
    n_mb = tiles.shape[0]
    scanned = levels.reshape(-1, BLOCK * BLOCK)[:, ZIGZAG]

    dc_diff = np.diff(scanned[:, 0].reshape(n_mb, -1), axis=1, prepend=0).reshape(-1)
    blk, pos = np.nonzero(scanned[:, 1:])
    run = np.diff(pos, prepend=-1) - 1  # zeros since the previous nonzero level
    first = np.diff(blk, prepend=-1) != 0
    run[first] = pos[first]  # a block's first run starts at its first AC position
    pairs = np.stack((np.where(run == 0, 0, run + 1), _signed(scanned[blk, pos + 1])), axis=1)
    eob = np.nonzero(scanned[:, -1] == 0)[0]
    codes, lengths = exp_golomb(np.concatenate(
        (_signed(dc_diff), pairs.reshape(-1), np.full(eob.size, EOB_TOKEN))))
    owner = np.concatenate((np.arange(len(scanned)), np.repeat(blk, 2), eob))  # token -> block

    token_mb = owner // MB_BLOCKS
    coded_bits = np.bincount(token_mb, weights=lengths, minlength=n_mb).astype(np.int64)
    pcm = coded_bits >= PCM_BITS
    pcm[token_mb[lengths > 2 * MAX_CODE_ZEROS + 1]] = True  # codes the parser refuses
    kept = ~pcm[token_mb]
    pcm_mb = np.nonzero(pcm)[0]
    samples = np.round((tiles[pcm_mb] + GRAY) * 255.0).astype(np.int64).reshape(-1)
    # a stable sort by block keeps ties in concatenation order: mode bit,
    # DC, (run, level) pairs, EOB, PCM samples
    key = np.concatenate((np.arange(n_mb) * MB_BLOCKS, owner[kept],
                          np.repeat(pcm_mb * MB_BLOCKS, PCM_SAMPLES)))
    order = np.argsort(key, kind="stable")
    bits = _pack(
        np.concatenate((pcm, codes[kept], samples))[order],
        np.concatenate((np.ones(n_mb, np.int64), lengths[kept], np.full(samples.size, 8)))[order],
    )
    sizes = 1 + np.where(pcm, PCM_BITS, coded_bits)
    ends = np.cumsum(sizes)
    return Bitstream(
        bits=bits,
        width=gop.width,
        height=gop.height,
        n_frames=len(gop),
        qp=qp,
        block_map=np.stack([ends - sizes, ends], axis=1),
    )


def _parse_macroblock(text: str, bits: np.ndarray, pos: int, end: int,
                      scanned: np.ndarray, samples: np.ndarray) -> None:
    """Parse the macroblock coded in ``text[pos:end]``, the payload as a
    string of '0' and '1' (``bits`` holds the same bits), into its zigzag
    levels ``scanned`` (MB_BLOCKS, 64) or, if PCM, its ``samples``.  Raises
    ValueError on malformed or truncated bits."""

    def read() -> int:  # one unsigned Exp-Golomb code
        nonlocal pos
        one = text.find("1", pos, end)
        width = one - pos
        if one < 0 or width > MAX_CODE_ZEROS or one + width >= end:
            raise BitstreamError("malformed or truncated exp-golomb code")
        pos = one + width + 1
        return int(text[one:pos], 2) - 1

    def read_signed() -> int:
        mapped = read()
        return (mapped + 1) // 2 if mapped % 2 else -(mapped // 2)

    if pos >= end:
        raise BitstreamError("empty macroblock")
    pos += 1
    if text[pos - 1] == "1":
        if end - pos < PCM_BITS:
            raise BitstreamError("truncated PCM macroblock")
        samples[:] = np.packbits(bits[pos : pos + PCM_BITS]).reshape(samples.shape)
        return
    dc = 0
    for block in scanned:
        dc += read_signed()
        block[0] = dc
        at = 0
        while at < BLOCK * BLOCK - 1:
            token = read()
            if token == EOB_TOKEN:
                break
            at += 0 if token == 0 else token - 1
            if at >= BLOCK * BLOCK - 1:
                raise BitstreamError("run-length overflow")
            block[1 + at] = read_signed()
            at += 1


def _decoded_frames(bs: Bitstream, levels: np.ndarray, samples: np.ndarray, lost: np.ndarray,
                    prev_frame: np.ndarray = None) -> np.ndarray:
    """The (n, H, W, 3) frames from quantized levels (as ``_quantize``
    shapes them) or, where a macroblock's mode bit says PCM, its 8-bit
    ``samples``; ``lost`` ones are concealed from the previous frame
    (``prev_frame``, gray when None)."""
    # an empty macroblock, lost anyway, may start at the payload's end
    pcm = bs.bits[np.minimum(bs.block_map[:, 0], bs.bit_length - 1)] == 1
    spatial = idctn(levels * (bs.qp / 255.0), axes=(-2, -1), norm="ortho")
    tiles = spatial.transpose(0, 2, 4, 3, 5, 1).reshape(-1, MB, MB, 3)
    tiles[pcm] = samples[pcm] / 255.0 - GRAY
    rows, cols = _mb_grid(bs.width, bs.height)
    reference = 0.0 if prev_frame is None else _tiles(
        pad_edge(prev_frame, MB, MB)[None] - GRAY)
    frames = np.empty((bs.n_frames, bs.height, bs.width, 3))
    holes = lost.reshape(bs.n_frames, -1, 1, 1, 1)
    for canvas, hole, frame in zip(tiles.reshape(bs.n_frames, -1, MB, MB, 3), holes, frames):
        reference = np.where(hole, reference, canvas)
        picture = reference.reshape(rows, cols, MB, MB, 3).swapaxes(1, 2).reshape(rows * MB, -1, 3)
        np.clip(picture[: bs.height, : bs.width] + GRAY, 0.0, 1.0, out=frame)
    return frames


def source_decode(bs: Bitstream, corrupted_ranges=None,
                  prev_frame: np.ndarray = None) -> np.ndarray:
    """Decode a bitstream into its (n, H, W, 3) frames; macroblocks whose
    bits are corrupted (flagged or failing to parse) are concealed with the
    co-located pixels of the previously decoded frame, gray for the first."""
    if bs.bit_length == 0 and bs.block_map.shape[0] > 0:
        raise BitstreamError("empty bitstream")
    spans = np.array([] if corrupted_ranges is None else corrupted_ranges, np.int64).reshape(-1, 2)
    starts, ends = bs.block_map[:, :1], bs.block_map[:, 1:]
    lost = ((spans[:, 0] < ends) & (starts < spans[:, 1])).any(axis=1)
    text = (bs.bits + ord("0")).tobytes().decode("ascii")
    scanned = np.zeros((len(lost), MB_BLOCKS, BLOCK * BLOCK), dtype=np.int64)
    samples = np.zeros((len(lost), MB, MB, 3), dtype=np.uint8)
    for m in np.nonzero(~lost)[0]:
        try:
            _parse_macroblock(text, bs.bits, *bs.block_map[m].tolist(), scanned[m], samples[m])
        except ValueError:
            lost[m] = True
    levels = scanned[..., np.argsort(ZIGZAG)].reshape(-1, 3, 2, 2, BLOCK, BLOCK)
    return _decoded_frames(bs, levels, samples, lost, prev_frame)


@dataclass(frozen=True)
class PreparedClassical:
    """Source-coded and channel-coded GOP, ready for repeated channel runs
    (SNR sweeps reuse the encode)."""

    bitstream: Bitstream
    symbols: np.ndarray    # read-only float64 BPSK symbols
    source: VideoSequence  # the GOP the bitstream codes
    code: LdpcCode         # the LDPC code the symbols were encoded with

    @cached_property
    def clean_decode(self) -> np.ndarray:
        """The GOP's frames as decoded from intact bits, computed once per
        prepared GOP from the quantizer's output instead of by parsing.  No
        macroblock is concealed, so it needs no previous frame.  Read-only:
        sweep workers share it."""
        tiles, levels = _quantize(self.source, self.bitstream.qp)
        frames = _decoded_frames(self.bitstream, levels, np.round((tiles + GRAY) * 255.0),
                                 np.zeros(len(tiles), bool))
        frames.setflags(write=False)
        return frames


def prepare_classical(gop: VideoSequence, qp: float, code: LdpcCode) -> PreparedClassical:
    bs = source_encode(gop, qp)
    pad = (-bs.bit_length) % code.k
    info = np.concatenate([bs.bits, np.zeros(pad, dtype=np.uint8)])
    coded = ldpc_encode(info, code)
    return PreparedClassical(bitstream=bs, symbols=bpsk_modulate(coded), source=gop, code=code)


def transmit_prepared(prep: PreparedClassical, snr_db: float, seed: int,
                      prev_frame: np.ndarray = None, *, max_iters: int):
    bs, code = prep.bitstream, prep.code
    # the float64 noise and LLRs are freed as the decode returns
    decoded, converged = ldpc_decode(
        bpsk_demodulate(awgn(prep.symbols, snr_db, seed), noise_variance(snr_db)), code,
        max_iters=max_iters)
    decoded = decoded[: bs.bit_length]
    if converged.all() and np.array_equal(decoded, bs.bits):
        frames = prep.clean_decode
    else:
        failed = np.nonzero(~converged)[0] * code.k  # first bit of each failed block
        corrupted = np.stack((failed, np.minimum(failed + code.k, bs.bit_length)), axis=1)
        frames = source_decode(replace(bs, bits=decoded), corrupted, prev_frame)
    stats = TxStats(
        payload_bits=bs.bit_length,
        channel_symbols=prep.symbols.size,
        decode_failures=int(np.count_nonzero(~converged)),
        side_info_bits=bs.side_info_bits,
    )
    return frames, stats

