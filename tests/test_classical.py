import numpy as np
import pytest

from semvid.channel import ChannelConfig
import semvid.classical
from semvid.classical import (
    MB,
    Bitstream,
    BitstreamError,
    prepare_classical,
    source_decode,
    source_encode,
    transmit_prepared,
)
from semvid.metrics import psnr
from semvid.video import Frame, Gop


def _raw_bits(gop):
    return gop.gop_size * gop.height * gop.width * 3 * 8


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
    return Gop.from_array(arr)


class TestSourceCoder:
    def test_constant_frame_compresses_hard(self):
        gop = Gop.from_array(np.full((1, 256, 256, 3), 0.4))
        bs = source_encode(gop, qp=16.0)
        assert _raw_bits(gop) / bs.bit_length > 50

    def test_constant_frame_round_trip_quality(self):
        gop = Gop.from_array(np.full((1, 256, 256, 3), 0.4))
        decoded = source_decode(source_encode(gop, qp=16.0))
        assert psnr(gop.frames[0], decoded.frames[0]) >= 50.0

    def test_noise_near_lossless_at_fine_step(self, rng):
        gop = Gop.from_array(np.round(rng.random((1, 64, 64, 3)) * 255)[None][0] / 255)
        bs = source_encode(gop, qp=1.0)
        ratio = _raw_bits(gop) / bs.bit_length
        assert 0.9 < ratio < 1.1
        decoded = source_decode(bs)
        assert psnr(gop.frames[0], decoded.frames[0]) >= 50.0

    def test_size_weakly_decreasing_in_qp(self, natural_gop):
        sizes = [source_encode(natural_gop, qp=q).bit_length for q in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_idempotent_size(self, natural_gop):
        bs = source_encode(natural_gop, qp=4.0)
        again = source_encode(source_decode(bs), qp=4.0)
        assert abs(again.bit_length - bs.bit_length) <= 0.01 * bs.bit_length

    def test_round_trip_dims_match(self, natural_gop):
        decoded = source_decode(source_encode(natural_gop, qp=4.0))
        assert decoded.gop_size == natural_gop.gop_size
        assert (decoded.width, decoded.height) == (natural_gop.width, natural_gop.height)

    def test_qp_must_be_positive(self, natural_gop):
        with pytest.raises(ValueError):
            source_encode(natural_gop, qp=0.0)

    def test_single_corrupt_block_conceals_one_macroblock(self, natural_gop):
        bs = source_encode(natural_gop, qp=2.0)
        clean = source_decode(bs)
        start, _ = bs.block_map[9]
        hit = source_decode(bs, corrupted_ranges=[(int(start), int(start) + 1)])
        diff = np.abs(clean.to_array() - hit.to_array()).sum(axis=3)
        changed_frames = np.nonzero(diff.reshape(diff.shape[0], -1).sum(axis=1))[0]
        assert changed_frames.size == 1
        changed = np.argwhere(diff[changed_frames[0]] > 0)
        assert changed.size > 0
        spans = changed.max(axis=0) - changed.min(axis=0)
        assert spans[0] <= 15 and spans[1] <= 15

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


class TestTransmitChain:
    def test_high_snr_is_transparent(self, natural_gop, ldpc_code):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        source_only = source_decode(prep.bitstream)
        received, stats = transmit_prepared(prep, ChannelConfig(snr_db=25.0, seed=3), ldpc_code)
        assert stats.decode_failures == 0
        for a, b in zip(source_only.frames, received.frames):
            assert psnr(a, b) == psnr(a, a)  # identical reconstruction

    def test_low_snr_collapses_to_concealment(self, natural_gop, ldpc_code):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        received, stats = transmit_prepared(prep, ChannelConfig(snr_db=-10.0, seed=3), ldpc_code)
        values = [psnr(a, b) for a, b in zip(natural_gop.frames, received.frames)]
        assert stats.decode_failures > 0
        assert np.mean(values) < 20.0

    def test_symbol_accounting(self, natural_gop, ldpc_code):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        _, stats = transmit_prepared(prep, ChannelConfig(snr_db=25.0, seed=3), ldpc_code)
        padded = -(-stats.payload_bits // ldpc_code.k) * ldpc_code.k
        assert stats.channel_symbols == 2 * padded
        assert stats.channel_symbols >= 2 * stats.payload_bits

    def test_concealment_uses_previous_frame(self, natural_gop, ldpc_code):
        reference = natural_gop.frames[-1]
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        received, _ = transmit_prepared(
            prep, ChannelConfig(snr_db=-10.0, seed=3), ldpc_code, prev_frame=reference)
        # with everything concealed, the first frame copies the reference
        assert psnr(reference, received.frames[0]) > psnr(natural_gop.frames[0], received.frames[0])

    def test_intact_send_is_the_clean_decode(self, natural_gop, ldpc_code, monkeypatch):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        clean = source_decode(prep.bitstream)
        calls = []
        decode = semvid.classical.source_decode
        monkeypatch.setattr(semvid.classical, "source_decode",
                            lambda *args: calls.append(args) or decode(*args))
        plate = Frame(np.full((64, 64, 3), 0.25))
        for seed, prev in ((3, None), (4, plate)):
            received, stats = transmit_prepared(
                prep, ChannelConfig(snr_db=25.0, seed=seed), ldpc_code, prev_frame=prev)
            assert stats.decode_failures == 0
            for a, b in zip(clean.frames, received.frames):
                assert np.array_equal(a.data, b.data)
        assert len(calls) == 1  # decoded once per prepared GOP, then reused

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
        plate = Frame(np.full((64, 64, 3), 0.25))
        received, stats = transmit_prepared(
            prep, ChannelConfig(snr_db=25.0, seed=3), ldpc_code, prev_frame=plate)
        assert stats.decode_failures == 1
        starts = prep.bitstream.block_map[:, 0]
        hit = set(np.nonzero(starts < ldpc_code.k)[0])  # macroblocks block 0 covers
        cols = natural_gop.width // MB
        assert hit and max(hit) < cols * (natural_gop.height // MB)  # all in frame 0
        for f, (a, b) in enumerate(zip(clean.frames, received.frames)):
            for i in range(a.data.shape[0] // MB * cols):
                sl = (slice(i // cols * MB, (i // cols + 1) * MB),
                      slice(i % cols * MB, (i % cols + 1) * MB))
                want = plate.data[sl] if f == 0 and i in hit else a.data[sl]
                assert np.array_equal(b.data[sl], want)
