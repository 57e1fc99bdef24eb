import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semvid.channel import ChannelConfig
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
from semvid.video import Frame, VideoSequence


MAX_ITERS = ClassicalSettings().max_iters


def _raw_bits(gop):
    return len(gop) * gop.height * gop.width * 3 * 8


def _clip(arr):
    return VideoSequence.from_array(arr, 8.0)


def _stack(frames):
    return np.stack([f.data for f in frames])


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
        assert len(decoded) == len(natural_gop)
        assert {(f.width, f.height) for f in decoded} == {(natural_gop.width, natural_gop.height)}

    def test_qp_must_be_positive(self, natural_gop):
        with pytest.raises(ValueError):
            source_encode(natural_gop, qp=0.0)

    def test_single_corrupt_block_conceals_one_macroblock(self, natural_gop):
        bs = source_encode(natural_gop, qp=2.0)
        clean = source_decode(bs)
        start, _ = bs.block_map[9]
        hit = source_decode(bs, corrupted_ranges=[(int(start), int(start) + 1)])
        as_array = source_decode(bs, corrupted_ranges=np.array([[start, start + 1], [0, 0]]))
        assert np.array_equal(_stack(as_array), _stack(hit))
        diff = np.abs(_stack(clean) - _stack(hit)).sum(axis=3)
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
        decoded = _stack(source_decode(bs))
        assert np.abs(decoded - gop.to_array()).max() <= 0.5 / 255
        assert np.array_equal(_stack(prep.clean_decode), decoded)

    def test_empty_trailing_macroblock_is_concealed(self):
        # its range starts at the payload's end, so it has no mode bit to read
        gop = _clip(np.full((1, 16, 32, 3), 0.9))
        bs = source_encode(gop, 4.0)
        end = int(bs.block_map[0, 1])
        cut = Bitstream(bits=bs.bits[:end], width=32, height=16, n_frames=1, qp=4.0,
                        block_map=np.array([[0, end], [end, end]]))
        decoded = _stack(source_decode(cut))
        assert np.array_equal(decoded[0, :, :16], _stack(source_decode(bs))[0, :, :16])
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


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


PINNED_CLIPS = {
    "reference": (112, 112, 8, 8.0, 2024),  # the reference config's user clip
    "40x24": (40, 24, 3, 8.0, 9),           # not a multiple of the macroblock
}

# SHA-256 of (bits, block map), of the clean decode, of a decode with every
# 7th 512-bit block flagged corrupted, and of a decode with every 997th bit
# flipped and nothing flagged (so the parser meets the damage), both
# concealed from the GOP's last frame.  Recorded from the bit-at-a-time
# coder this one replaced.
PINNED_DIGESTS = {
    ("reference", 1.0): (
        "e48d4a5ab096bd3497e53a5b1b0dc0361e5193175d19c54535c4c393400f4313",
        "0adbe83c325dfcd7ddf4efa094ffe27ea80fd1f27fa92f4ceaeeb7632ff6b707",
        "2f4e20a003196eb97c9b802d4c6d9fbe85540517e6db13f2f1662af971a16eec",
        "fccb5030d4af154638a04794d655f1783b8c35b6c2347ee72e46c828fe146024",
    ),
    ("reference", 5.0): (
        "feaa50bed1b88a610385dfe21b597d0181c505da8fc83301c82eeb6e347b0c4a",
        "da8869cf6c641726508360b9cee1171e459dcccb24988838a147885018a17c65",
        "fadf20f7637845b9a9da259b33006d1c6843b2332430b9c1dd8b89b9f4ceb37c",
        "eff64472657cd17382a4847341edf5fd13989f716621167089ae60b9d197fcf9",
    ),
    ("reference", 16.0): (
        "1285c2dc114ceb6473766075b78f30f5b9a2e8e4fcf79f9d5421838c37879789",
        "2a3a37167d6386917c1f20e44a3017a079c1b39c431e3299b6eaf59934f92043",
        "67fa2e22cce0ff4c878d741af67dc0c95ff24b02e7036d5ddd3a5c2971819f3a",
        "227536763b0badf3b982cfdfb746178960383171b0b20acf871caad7d0148f60",
    ),
    ("40x24", 1.0): (
        "21f4481e17fbe4852747523b4583afd1a0bdef726c7d67c5aa2798d3b6daeb33",
        "d8e99c0f6426ca4bad2856e55b2b4013a6559438d19fef69fafef4583832d50c",
        "d3c23aedd5a4b2f6ccef4a6ed41b24e462c5dfdbd154b17a6604b3e21c457b47",
        "085a35fbd695f77f6362d9a55f94993eca9a93d54c248ffc8c2049f81408ffae",
    ),
    ("40x24", 5.0): (
        "cd8ec6f3ed822dd9fb6d94802e68def3705144faa1103ae5d28319268e306881",
        "e488f86af3c148e42e4caf79bf6e5e075dc2702367cd5d7d665f8995def07964",
        "07f093a2bd467a568f4771ece0b3dfe344c6256de05663719ce8c9942890094b",
        "ca36ee23e5dc5a5d0ae52118a94f3aa2e67a421e769e3a6487990685ba9a572e",
    ),
    ("40x24", 16.0): (
        "545bf331ca6809b5d57d9d8851fbfd06d0cd6047e3ef18326c1f60f205702c3f",
        "c47ed5ebd985ee526ee9ff9271df5d9c7610b6dde3bc62a9be7c5fd22fabd258",
        "700e47363280991f9530d250d6f864beb240de732067fbfbb805253834b4affa",
        "82c4cf3b8534145da71a3b93a95ed25d9592abc1e6716893c67fd00599d8afb4",
    ),
}


@pytest.mark.parametrize("clip,qp", sorted(PINNED_DIGESTS))
def test_coder_output_pinned(clip, qp):
    gop = make_test_clip(*PINNED_CLIPS[clip])
    bs = source_encode(gop, qp)
    n = bs.bit_length
    corrupted = [(b, min(b + 512, n)) for b in range(0, n, 7 * 512)]
    flipped = bs.bits.copy()
    flipped[::997] ^= 1
    got = (
        _digest(bs.bits, bs.block_map),
        _digest(_stack(source_decode(bs))),
        _digest(_stack(source_decode(bs, corrupted, gop.frames[-1]))),
        _digest(_stack(source_decode(replace(bs, bits=flipped), None, gop.frames[-1]))),
    )
    assert got == PINNED_DIGESTS[(clip, qp)]


def _fuzz_gop():
    """Two 32 px frames: PCM-escaped noise on the left, coded blocks on the right."""
    arr = make_test_clip(32, 32, 2, 8.0, 3).to_array()
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
        decoded = _stack(source_decode(replace(FUZZ_BS, bits=bits), spans, prev))
        assert decoded.shape == FUZZ_GOP.to_array().shape
        assert decoded.min() >= 0.0 and decoded.max() <= 1.0

    def test_fuzz_stream_mixes_pcm_and_coded(self):
        sizes = np.diff(FUZZ_BS.block_map, axis=1).ravel()
        assert (sizes > PCM_BITS).any() and (sizes < PCM_BITS).any()


CLEAN_DECODE_GOPS = {
    "reference": make_test_clip(*PINNED_CLIPS["reference"]),
    "40x24": make_test_clip(*PINNED_CLIPS["40x24"]),
    "fuzz": FUZZ_GOP,
    "33x17 noise": _clip(np.random.default_rng(17).random((2, 17, 33, 3))),
}


@pytest.mark.parametrize("qp", [0.3, 1.0, 5.0, 16.0, 1e-9])  # 1e-9: nearly all PCM
@pytest.mark.parametrize("clip", sorted(CLEAN_DECODE_GOPS))
def test_clean_decode_is_the_parsed_decode(clip, qp, ldpc_code):
    gop = CLEAN_DECODE_GOPS[clip]
    parsed = _stack(source_decode(source_encode(gop, qp)))
    assert np.array_equal(_stack(prepare_classical(gop, qp, ldpc_code).clean_decode), parsed)


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
    parsed = _stack(source_decode(prep.bitstream))
    assert np.array_equal(_stack(prep.clean_decode), parsed)
    assert np.abs(parsed - gop.to_array()).max() <= 0.5 / 255 + 1e-12


def test_qp_without_a_step_refused(natural_gop):
    # 5e-324 / 255 is 0, and 0 / 0 would quantize the levels to nan
    with pytest.raises(ValueError, match=r"classical\.qp"):
        source_encode(natural_gop, 5e-324)


class TestTransmitChain:
    def test_high_snr_is_transparent(self, natural_gop, ldpc_code):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        source_only = source_decode(prep.bitstream)
        received, stats = transmit_prepared(prep, ChannelConfig(snr_db=25.0, seed=3),
                                            max_iters=MAX_ITERS)
        assert stats.decode_failures == 0
        for a, b in zip(source_only, received):
            assert psnr(a, b) == psnr(a, a)  # identical reconstruction

    def test_low_snr_collapses_to_concealment(self, natural_gop, ldpc_code):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        received, stats = transmit_prepared(prep, ChannelConfig(snr_db=-10.0, seed=3),
                                            max_iters=MAX_ITERS)
        values = [psnr(a, b) for a, b in zip(natural_gop.frames, received)]
        assert stats.decode_failures > 0
        assert np.mean(values) < 20.0

    def test_symbol_accounting(self, natural_gop, ldpc_code):
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        _, stats = transmit_prepared(prep, ChannelConfig(snr_db=25.0, seed=3),
                                     max_iters=MAX_ITERS)
        padded = -(-stats.payload_bits // ldpc_code.k) * ldpc_code.k
        assert stats.channel_symbols == 2 * padded
        assert stats.channel_symbols >= 2 * stats.payload_bits

    def test_concealment_uses_previous_frame(self, natural_gop, ldpc_code):
        reference = natural_gop.frames[-1]
        prep = prepare_classical(natural_gop, 4.0, ldpc_code)
        received, _ = transmit_prepared(
            prep, ChannelConfig(snr_db=-10.0, seed=3), prev_frame=reference,
            max_iters=MAX_ITERS)
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
        plate = Frame(np.full((64, 64, 3), 0.25))
        for seed, prev in ((3, None), (4, plate)):
            received, stats = transmit_prepared(
                prep, ChannelConfig(snr_db=25.0, seed=seed), prev_frame=prev,
                max_iters=MAX_ITERS)
            assert stats.decode_failures == 0
            for a, b in zip(parsed, received):
                assert np.array_equal(a.data, b.data)
        # taken from the quantizer, never parsed, once per prepared GOP
        assert (len(decodes), len(quantizations)) == (0, 1)

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
            prep, ChannelConfig(snr_db=25.0, seed=3), prev_frame=plate,
            max_iters=MAX_ITERS)
        assert stats.decode_failures == 1
        starts = prep.bitstream.block_map[:, 0]
        hit = set(np.nonzero(starts < ldpc_code.k)[0])  # macroblocks block 0 covers
        cols = natural_gop.width // MB
        assert hit and max(hit) < cols * (natural_gop.height // MB)  # all in frame 0
        for f, (a, b) in enumerate(zip(clean, received)):
            for i in range(a.data.shape[0] // MB * cols):
                sl = (slice(i // cols * MB, (i // cols + 1) * MB),
                      slice(i % cols * MB, (i % cols + 1) * MB))
                want = plate.data[sl] if f == 0 and i in hit else a.data[sl]
                assert np.array_equal(b.data[sl], want)
