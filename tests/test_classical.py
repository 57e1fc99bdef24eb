import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semvid.classical
from semvid.classical import (
    MB,
    PCM_BITS,
    Bitstream,
    BitstreamError,
    prepare_classical,
    source_decode,
    source_encode,
    transmit_prepared,
)
from semvid.config import ClassicalSettings
from semvid.fixtures import make_test_clip
from semvid.metrics import psnr
from semvid.video import VideoSequence

import pins


MAX_ITERS = ClassicalSettings().max_iters


def _raw_bits(gop):
    return len(gop) * gop.height * gop.width * 3 * 8


def _clip(arr):
    return VideoSequence(arr, 8.0)


@pytest.fixture(scope="module")
def natural_gop():
    rng = np.random.default_rng(5)
    ys, xs = np.mgrid[0:64, 0:64].astype(float)
    frames = []
    for i in range(4):
        base = 0.15 + 0.6 * (xs + ys) / 128
        disk = (xs - 18 - 5 * i) ** 2 + (ys - 30) ** 2 < 110
        f = np.stack([base, base * 0.8, base * 0.6 + 0.1], axis=-1)
        f[disk] = [0.85, 0.3, 0.2]
        f = np.clip(f + 0.04 * np.sin(xs / 3)[..., None], 0, 1)
        frames.append(f)
    arr = np.round(np.stack(frames) * 255) / 255
    return _clip(arr)


class TestSourceCoder:
    def test_constant_frame_compresses_hard(self):
        gop = _clip(np.full((1, 256, 256, 3), 0.4))
        bs = source_encode(gop, qp=16.0)
        assert _raw_bits(gop) / bs.bit_length > 50

    def test_constant_frame_round_trip_quality(self):
        gop = _clip(np.full((1, 256, 256, 3), 0.4))
        decoded = source_decode(source_encode(gop, qp=16.0))
        assert psnr(gop.frames[0], decoded[0]) >= 50.0

    def test_noise_near_lossless_at_fine_step(self, rng):
        gop = _clip(np.round(rng.random((1, 64, 64, 3)) * 255)[None][0] / 255)
        bs = source_encode(gop, qp=1.0)
        ratio = _raw_bits(gop) / bs.bit_length
        assert 0.9 < ratio < 1.1
        decoded = source_decode(bs)
        assert psnr(gop.frames[0], decoded[0]) >= 50.0

    def test_size_weakly_decreasing_in_qp(self, natural_gop):
        sizes = [source_encode(natural_gop, qp=q).bit_length for q in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_idempotent_size(self, natural_gop):
        bs = source_encode(natural_gop, qp=4.0)
        again = source_encode(VideoSequence(source_decode(bs), 8.0), qp=4.0)
        assert abs(again.bit_length - bs.bit_length) <= 0.01 * bs.bit_length

    def test_round_trip_dims_match(self, natural_gop):
        decoded = source_decode(source_encode(natural_gop, qp=4.0))
        assert decoded.shape == natural_gop.frames.shape

    def test_qp_must_be_positive(self, natural_gop):
        with pytest.raises(ValueError):
            source_encode(natural_gop, qp=0.0)

    def test_single_corrupt_block_conceals_one_macroblock(self, natural_gop):
        bs = source_encode(natural_gop, qp=2.0)
        clean = source_decode(bs)
        start, _ = bs.block_map[9]
        hit = source_decode(bs, corrupted_ranges=[(int(start), int(start) + 1)])
        as_array = source_decode(bs, corrupted_ranges=np.array([[start, start + 1], [0, 0]]))
        assert np.array_equal(as_array, hit)
        diff = np.abs(clean - hit).sum(axis=3)
        changed_frames = np.nonzero(diff.reshape(diff.shape[0], -1).sum(axis=1))[0]
        assert changed_frames.size == 1
        changed = np.argwhere(diff[changed_frames[0]] > 0)
        assert changed.size > 0
        spans = changed.max(axis=0) - changed.min(axis=0)
        assert spans[0] <= 15 and spans[1] <= 15

    def test_codes_the_parser_refuses_take_the_pcm_escape(self, ldpc_code):
        # at this step a flat block's DC code is wider than the parser reads,
        # though the coded block stays far below PCM_BITS
        gop = _clip(np.full((1, 16, 32, 3), 0.9))
        prep = prepare_classical(gop, 1e-12, ldpc_code)
        bs = prep.bitstream
        assert np.all(bs.bits[bs.block_map[:, 0]] == 1)
        decoded = source_decode(bs)
        assert np.abs(decoded - gop.frames).max() <= 0.5 / 255
        assert np.array_equal(prep.clean_decode, decoded)

    def test_empty_trailing_macroblock_is_concealed(self):
        # its range starts at the payload's end, so it has no mode bit to read
        gop = _clip(np.full((1, 16, 32, 3), 0.9))
        bs = source_encode(gop, 4.0)
        end = int(bs.block_map[0, 1])
        cut = Bitstream(bits=bs.bits[:end], width=32, height=16, n_frames=1, qp=4.0,
                        block_map=np.array([[0, end], [end, end]]))
        decoded = source_decode(cut)
        assert np.array_equal(decoded[0, :, :16], source_decode(bs)[0, :, :16])
        assert np.all(decoded[0, :, 16:] == 0.5)

    def test_empty_bitstream_rejected(self):
        with pytest.raises(BitstreamError):
            Bitstream(
                bits=np.array([], dtype=np.uint8),
                width=16, height=16, n_frames=1, qp=4.0,
                block_map=np.array([[0, 8]]),
            )

    def test_bad_header_rejected(self, natural_gop):
        bs = source_encode(natural_gop, qp=4.0)
        with pytest.raises(BitstreamError):
            Bitstream(bits=bs.bits, width=0, height=16, n_frames=1, qp=4.0,
                      block_map=bs.block_map)


@pytest.mark.parametrize("qp", pins.CODER_QPS)
@pytest.mark.parametrize("clip", sorted(pins.CODER_CLIPS))
def test_coder_output_pinned(clip, qp):
    pins.check(f"classical.coder[{clip},{qp}]")


def _fuzz_gop():
    """Two 32 px frames: PCM-escaped noise on the left, coded blocks on the right."""
    arr = np.array(make_test_clip(32, 32, 2, 8.0, 3).frames)
    arr[:, :, :16] = np.random.default_rng(3).random((2, 32, 16, 3))
    return _clip(arr)


FUZZ_GOP = _fuzz_gop()
FUZZ_BS = source_encode(FUZZ_GOP, 2.0)


class TestDecoderTotal:
    """Corrupted bits or flagged ranges never make the decoder raise, and the
    samples it returns stay in [0, 1]."""

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        flips=st.lists(st.integers(0, FUZZ_BS.bit_length - 1), min_size=1, max_size=40),
        spans=st.lists(st.tuples(st.integers(-100, FUZZ_BS.bit_length + 100),
                                 st.integers(-100, FUZZ_BS.bit_length + 100)), max_size=4),
        conceal_from_plate=st.booleans(),
    )
    def test_corrupted_stream_decodes(self, flips, spans, conceal_from_plate):
        bits = FUZZ_BS.bits.copy()
        bits[flips] ^= 1
        prev = FUZZ_GOP.frames[-1] if conceal_from_plate else None
        decoded = source_decode(replace(FUZZ_BS, bits=bits), spans, prev)
        assert decoded.shape == FUZZ_GOP.frames.shape
        assert decoded.min() >= 0.0 and decoded.max() <= 1.0

    def test_fuzz_stream_mixes_pcm_and_coded(self):
        sizes = np.diff(FUZZ_BS.block_map, axis=1).ravel()
        assert (sizes > PCM_BITS).any() and (sizes < PCM_BITS).any()


CLEAN_DECODE_GOPS = {
    "reference": make_test_clip(*pins.CODER_CLIPS["reference"]),
    "40x24": make_test_clip(*pins.CODER_CLIPS["40x24"]),
    "fuzz": FUZZ_GOP,
    "33x17 noise": _clip(np.random.default_rng(17).random((2, 17, 33, 3))),
}


@pytest.mark.parametrize("qp", [0.3, 1.0, 5.0, 16.0, 1e-9])  # 1e-9: nearly all PCM
@pytest.mark.parametrize("clip", sorted(CLEAN_DECODE_GOPS))
def test_clean_decode_is_the_parsed_decode(clip, qp, ldpc_code):
    gop = CLEAN_DECODE_GOPS[clip]
    parsed = source_decode(source_encode(gop, qp))
    assert np.array_equal(prepare_classical(gop, qp, ldpc_code).clean_decode, parsed)


def _flat_gops():
    """One 16x32 GOP of two frames, flat 0.9; the other has a noise
    macroblock on its right."""
    flat = np.full((2, 16, 32, 3), 0.9)
    noisy = flat.copy()
    noisy[:, :, 16:] = np.random.default_rng(5).random((2, 16, 16, 3))
    return {"flat": _clip(flat), "flat+noise": _clip(noisy)}


@pytest.mark.parametrize("qp", [1e-16, 1e-17, 1e-20, 1e-300, 1e-320])
@pytest.mark.parametrize("name", ["flat", "flat+noise"])
def test_tiny_qp_escapes_to_pcm(name, qp, ldpc_code):
    # levels beyond int64 are clipped, so their macroblocks take the PCM escape
    gop = _flat_gops()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prep = prepare_classical(gop, qp, ldpc_code)
    parsed = source_decode(prep.bitstream)
    assert np.array_equal(prep.clean_decode, parsed)
    assert np.abs(parsed - gop.frames).max() <= 0.5 / 255 + 1e-12


def test_qp_without_a_step_refused(natural_gop):
    # 5e-324 / 255 is 0, and 0 / 0 would quantize the levels to nan
    with pytest.raises(ValueError, match=r"classical\.qp"):
        source_encode(natural_gop, 5e-324)


class TestTransmitChain:
    def test_high_snr_is_transparent(self, natural_gop, ldpc_code):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        source_only = source_decode(prep.bitstream)
        received, stats = transmit_prepared(prep, 25.0, 3, max_iters=MAX_ITERS)
        assert stats.decode_failures == 0
        for a, b in zip(source_only, received):
            assert psnr(a, b) == psnr(a, a)  # identical reconstruction

    def test_low_snr_collapses_to_concealment(self, natural_gop, ldpc_code):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        received, stats = transmit_prepared(prep, -10.0, 3, max_iters=MAX_ITERS)
        values = [psnr(a, b) for a, b in zip(natural_gop.frames, received)]
        assert stats.decode_failures > 0
        assert np.mean(values) < 20.0

    def test_symbol_accounting(self, natural_gop, ldpc_code):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        _, stats = transmit_prepared(prep, 25.0, 3, max_iters=MAX_ITERS)
        padded = -(-stats.payload_bits // ldpc_code.k) * ldpc_code.k
        assert stats.channel_symbols == 2 * padded
        assert stats.channel_symbols >= 2 * stats.payload_bits

    def test_concealment_uses_previous_frame(self, natural_gop, ldpc_code):
        reference = natural_gop.frames[-1]
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        received, _ = transmit_prepared(
            prep, -10.0, 3, prev_frame=reference, max_iters=MAX_ITERS)
        # with everything concealed, the first frame copies the reference
        assert psnr(reference, received[0]) > psnr(natural_gop.frames[0], received[0])

    def test_intact_send_is_the_clean_decode(self, natural_gop, ldpc_code, monkeypatch):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        parsed = source_decode(prep.bitstream)
        decodes, quantizations = [], []
        decode, quantize = semvid.classical.source_decode, semvid.classical._quantize
        monkeypatch.setattr(semvid.classical, "source_decode",
                            lambda *args: decodes.append(args) or decode(*args))
        monkeypatch.setattr(semvid.classical, "_quantize",
                            lambda *args: quantizations.append(args) or quantize(*args))
        plate = np.full((64, 64, 3), 0.25)
        for seed, prev in ((3, None), (4, plate)):
            received, stats = transmit_prepared(
                prep, 25.0, seed, prev_frame=prev, max_iters=MAX_ITERS)
            assert stats.decode_failures == 0
            assert np.array_equal(parsed, received)
        # taken from the quantizer, never parsed, once per prepared GOP
        assert (len(decodes), len(quantizations)) == (0, 1)

    def test_clean_decode_is_read_only(self, natural_gop, ldpc_code):
        # it is cached, and the sweep's workers share it
        frames = prepare_classical(natural_gop, 4.0, ldpc_code).clean_decode
        with pytest.raises(ValueError, match="read-only"):
            frames[0, 0, 0, 0] = 0.0

    def test_failed_block_conceals_its_macroblocks(self, natural_gop, ldpc_code, monkeypatch):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        clean = source_decode(prep.bitstream)
        decode = semvid.classical.ldpc_decode

        def first_block_fails(*args, **kwargs):
            info, converged = decode(*args, **kwargs)
            converged = converged.copy()
            converged[0] = False
            return info, converged

        monkeypatch.setattr(semvid.classical, "ldpc_decode", first_block_fails)
        plate = np.full((64, 64, 3), 0.25)
        received, stats = transmit_prepared(
            prep, 25.0, 3, prev_frame=plate, max_iters=MAX_ITERS)
        assert stats.decode_failures == 1
        starts = prep.bitstream.block_map[:, 0]
        hit = set(np.nonzero(starts < ldpc_code.k)[0])  # macroblocks block 0 covers
        cols = natural_gop.width // MB
        assert hit and max(hit) < cols * (natural_gop.height // MB)  # all in frame 0
        for f, (a, b) in enumerate(zip(clean, received)):
            for i in range(a.shape[0] // MB * cols):
                sl = (slice(i // cols * MB, (i // cols + 1) * MB),
                      slice(i % cols * MB, (i % cols + 1) * MB))
                want = plate[sl] if f == 0 and i in hit else a[sl]
                assert np.array_equal(b[sl], want)
