import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semvid.channel import ChannelConfig
from semvid.fixtures import make_test_clip
from semvid.metrics import psnr
from semvid.semantic import (
    BIN_WIDTH,
    SemanticCodecConfig,
    decode_packet,
    extract_common,
    fit_entropy_model,
    jscc_decode,
    jscc_encode,
    latent_inverse,
    latent_transform,
    merge_common,
    prepare_semantic,
    semantic_transmit,
    snap_to_grid,
    transmit_packet,
    variable_length_code,
)
from semvid.video import VideoSequence

CFG = SemanticCodecConfig()


def _features(gop):
    return jscc_encode(latent_transform(gop, CFG), CFG)


def _clip(arr):
    return VideoSequence.from_array(arr, 8.0)


def _stack(frames):
    return np.stack([f.data for f in frames])


def _mean_psnr(clip, decoded):
    return float(np.mean([psnr(x, y) for x, y in zip(clip.frames, decoded)]))


def _noise_gop(seed=42, n=4, size=64):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n):
        x = rng.standard_normal((size, size, 3))
        for _ in range(2):
            x = (np.roll(x, 1, 0) + np.roll(x, -1, 0) + np.roll(x, 1, 1) + np.roll(x, -1, 1) + 4 * x) / 8
        frames.append(np.clip(0.5 + 0.25 * x / np.abs(x).std(), 0, 1))
    return _clip(np.round(np.stack(frames) * 255) / 255)


class TestLatentTransform:
    def test_channel_dimension_is_128(self):
        assert CFG.channel_dim == 128
        lat = latent_transform(_noise_gop(n=2), CFG)
        assert lat.values.shape[-1] == 128

    def test_constant_gop_energy_in_dc_channel(self):
        gop = _clip(np.full((2, 32, 32, 3), 0.5))
        lat = latent_transform(gop, CFG)
        energy = np.sum(lat.values**2, axis=(0, 1, 2))
        assert energy[0] > 0
        assert np.all(energy[1:] < 1e-18)

    def test_round_trip_quality(self, small_clip):
        rec = latent_inverse(latent_transform(small_clip, CFG), CFG)
        assert _mean_psnr(small_clip, rec) >= 50.0

    def test_pads_odd_dimensions(self):
        gop = _noise_gop(n=2, size=50)
        rec = latent_inverse(latent_transform(gop, CFG), CFG)
        assert [(f.width, f.height) for f in rec] == [(50, 50)] * 2
        assert _mean_psnr(gop, rec) >= 50.0


class TestJscc:
    def test_zero_latent_maps_to_zero(self):
        lat = latent_transform(_clip(np.zeros((2, 16, 16, 3))), CFG)
        feat = jscc_encode(lat, CFG)
        assert not feat.values.any()

    def test_inverse_pair(self, small_clip):
        lat = latent_transform(small_clip, CFG)
        back = jscc_decode(jscc_encode(lat, CFG), CFG)
        assert np.max(np.abs(back.values - lat.values)) < 1e-9

    def test_energy_compaction(self, small_clip):
        feat = _features(small_clip)
        energy = np.sum(feat.values**2, axis=(0, 1, 2))
        assert energy[:16].sum() / energy.sum() >= 0.8


class TestCommonFeatureSplit:
    def test_single_frame_gop_has_zero_individuals(self):
        maps = extract_common(_features(_clip(np.random.default_rng(0).random((1, 16, 16, 3))))
                              )
        assert not maps.individual.any()

    def test_static_gop_has_zero_individuals(self):
        frame = np.random.default_rng(1).random((16, 16, 3))
        maps = extract_common(_features(_clip(np.tile(frame, (3, 1, 1, 1)))))
        assert not maps.individual.any()

    def test_two_frame_algebra(self):
        # common = (a + b) / 2 up to the documented dyadic grid rounding,
        # and the split always reconstructs bit-exactly
        rng = np.random.default_rng(2)
        a = np.round(rng.random((16, 16, 3)) * 256) / 256
        b = np.round(rng.random((16, 16, 3)) * 256) / 256
        feat = _features(_clip(np.stack([a, b])))
        maps = extract_common(feat)
        mean = (feat.values[0] + feat.values[1]) / 2.0
        grid_quantum = 2.0**-32
        assert np.max(np.abs(maps.common - mean)) <= grid_quantum
        assert np.max(np.abs(maps.individual[0] + maps.individual[1])) <= 2 * grid_quantum
        assert np.array_equal(maps.common + maps.individual[0], feat.values[0])
        assert np.array_equal(maps.common + maps.individual[1], feat.values[1])

    def test_reconstruction_bit_exact(self, small_clip):
        feat = _features(small_clip)
        maps = extract_common(feat)
        assert np.array_equal(merge_common(maps).values, feat.values)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 1000))
    def test_bit_exact_property(self, n, seed):
        rng = np.random.default_rng(seed)
        gop = _clip(rng.random((n, 8, 16, 3)))
        feat = _features(gop)
        maps = extract_common(feat)
        assert np.array_equal(merge_common(maps).values, feat.values)


class TestEntropyModel:
    def test_constant_channel_uniform_max_likelihood(self):
        # per-channel-constant maps: every element sits at its fitted
        # location, so likelihoods are equal and maximal per channel
        from semvid.semantic import FeatureMaps, FeatureMeta

        meta = FeatureMeta(16, 16)
        channel_values = np.linspace(-3.0, 3.0, 128)
        common = np.broadcast_to(channel_values, (2, 3, 128)).copy()
        individual = np.broadcast_to(channel_values * 0.5, (2, 2, 3, 128)).copy()
        maps = FeatureMaps(common, individual, meta)
        model = fit_entropy_model(maps, CFG)
        em_common = model.likelihood(maps.common, 0)
        em_individual = model.likelihood(maps.individual, 1)
        peak = model.likelihood(model.locations[0], 0)
        assert np.allclose(em_common, np.broadcast_to(peak, em_common.shape))
        assert np.allclose(em_individual, em_individual[0, 0, 0])
        # maximal: any off-location value has lower mass
        off = model.likelihood(model.locations[0] + 5 * model.scales[0], 0)
        assert np.all(peak > off)

    def test_unimodal_around_location(self):
        maps = extract_common(_features(_noise_gop()))
        model = fit_entropy_model(maps, CFG)
        loc = model.locations[0, 0]
        scale = model.scales[0, 0]
        at_loc = model.likelihood(np.array([loc]), 0)[0]
        away = model.likelihood(np.array([loc + 3 * scale]), 0)[0]
        assert at_loc > away

    def test_degenerate_channel_gets_scale_floor(self):
        maps = extract_common(_features(_clip(np.zeros((2, 16, 16, 3)))))
        model = fit_entropy_model(maps, CFG)
        assert np.all(model.scales >= CFG.entropy_floor)

    def test_model_bits_close_to_histogram_entropy(self):
        maps = extract_common(_features(_noise_gop()))
        model = fit_entropy_model(maps, CFG)
        em_common = model.likelihood(maps.common, 0)
        em_individual = model.likelihood(maps.individual, 1)
        model_bits = -np.log2(em_common).sum() - np.log2(em_individual).sum()
        hist_bits = 0.0
        for data in (maps.common.reshape(-1, 128), maps.individual.reshape(-1, 128)):
            for c in range(data.shape[1]):
                q = np.round(data[:, c] / BIN_WIDTH).astype(np.int64)
                _, counts = np.unique(q, return_counts=True)
                p = counts / counts.sum()
                hist_bits += -(p * np.log2(p)).sum() * counts.sum()
        assert abs(model_bits - hist_bits) <= 0.1 * hist_bits


class TestVariableLengthCoding:
    def test_full_budget_is_lossless_packetization(self, small_clip):
        feat = _features(small_clip)
        maps = extract_common(feat)
        model = fit_entropy_model(maps, CFG)
        total = maps.common.size + maps.individual.size
        packet = variable_length_code(maps, model, total, CFG)
        assert packet.symbol_count == total
        decoded = decode_packet(packet, packet.block, 0.0, CFG)
        assert np.allclose(decoded.common, maps.common, atol=1e-9)
        assert np.allclose(decoded.individual, maps.individual, atol=1e-9)

    def test_budget_larger_than_elements_keeps_all(self, small_clip):
        maps = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        total = maps.common.size + maps.individual.size
        packet = variable_length_code(maps, model, total * 10, CFG)
        assert packet.symbol_count == total

    def test_budget_must_be_positive(self, small_clip):
        maps = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        with pytest.raises(ValueError):
            variable_length_code(maps, model, 0, CFG)

    def test_common_prioritized_first(self, small_clip):
        maps = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        packet = variable_length_code(maps, model, 100, CFG)
        assert packet.kept_common.sum() == 100
        assert packet.kept_individual.sum() == 0

    def test_budget_one_past_common_keeps_top_individual(self, small_clip):
        maps = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        packet = variable_length_code(maps, model, maps.common.size + 1, CFG)
        assert packet.kept_common.all()
        info = -np.log2(model.likelihood(maps.individual, 1)).reshape(-1)
        # argmax takes the first index on ties, as the stable ranking must
        assert np.flatnonzero(packet.kept_individual).tolist() == [int(np.argmax(info))]

    def test_dropped_elements_fill_with_locations(self, small_clip):
        maps = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        packet = variable_length_code(maps, model, 50, CFG)
        decoded = decode_packet(packet, packet.block, 0.0, CFG)
        dropped = ~packet.kept_individual
        expected = np.broadcast_to(packet.locations[1], packet.kept_individual.shape)
        assert np.array_equal(decoded.individual[dropped], expected[dropped])

    def test_static_gop_small_budget_matches_full(self):
        # bandlimited static content: the kept common map carries everything
        ys, xs = np.mgrid[0:32, 0:32].astype(float)
        frame = 0.5 + 0.2 * np.cos(np.pi * xs / 16) + 0.15 * np.cos(np.pi * ys / 8)
        frame = np.stack([frame, frame * 0.9, frame * 0.8], axis=-1)
        gop = _clip(np.tile(np.clip(frame, 0, 1)[None], (4, 1, 1, 1)))
        maps = extract_common(_features(gop))
        total = maps.common.size + maps.individual.size
        ch = ChannelConfig(snr_db=300.0, seed=4)
        full, _ = semantic_transmit(gop, ch, total, CFG)
        tenth, _ = semantic_transmit(gop, ch, total // 10, CFG)
        assert _mean_psnr(gop, tenth) >= _mean_psnr(gop, full) - 3.0


class TestSemanticTransmit:
    def test_high_snr_full_budget_quality(self, reference_clip):
        maps = extract_common(_features(reference_clip))
        total = maps.common.size + maps.individual.size
        out, stats = semantic_transmit(reference_clip, ChannelConfig(snr_db=25.0, seed=9), total, CFG)
        assert _mean_psnr(reference_clip, out) >= 40.0
        assert stats.decode_failures == 0
        assert stats.channel_symbols == total

    def test_infinite_snr_full_budget_transform_loss_only(self, small_clip):
        maps = extract_common(_features(small_clip))
        total = maps.common.size + maps.individual.size
        out, _ = semantic_transmit(small_clip, ChannelConfig(snr_db=300.0, seed=1), total, CFG)
        assert _mean_psnr(small_clip, out) >= 50.0

    def test_graceful_degradation(self, small_clip):
        budgets = 2000
        values = []
        for snr in np.arange(-10.0, 26.0, 5.0):
            out, _ = semantic_transmit(small_clip, ChannelConfig(snr_db=float(snr), seed=9), budgets, CFG)
            values.append(_mean_psnr(small_clip, out))
        drops = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        assert all(v >= -6.0 for v in drops)  # rising SNR never drops sharply
        assert max(values) > min(values)

    def test_deterministic(self, small_clip):
        ch = ChannelConfig(snr_db=5.0, seed=31)
        a, _ = semantic_transmit(small_clip, ch, 1500, CFG)
        b, _ = semantic_transmit(small_clip, ch, 1500, CFG)
        assert np.array_equal(_stack(a), _stack(b))

    def test_payload_accounting(self, small_clip):
        _, stats = semantic_transmit(small_clip, ChannelConfig(snr_db=10.0, seed=2), 700, CFG)
        assert stats.channel_symbols == 700
        assert stats.payload_bits == 700 * CFG.bits_per_symbol_eq
        assert stats.side_info_bits > 0

    def test_budget_monotonicity_statistical(self):
        gop = _noise_gop(seed=11, n=4, size=32)
        budgets = [150, 400, 1000, 2500, 6000]
        ordered = 0
        comparisons = 0
        for seed in range(8):
            values = []
            for budget in budgets:
                out, _ = semantic_transmit(gop, ChannelConfig(snr_db=10.0, seed=seed), budget, CFG)
                values.append(_mean_psnr(gop, out))
            for a, b in zip(values, values[1:]):
                comparisons += 1
                if b >= a - 0.1:
                    ordered += 1
        assert ordered / comparisons >= 0.95


class TestPacketGeometry:
    def test_mask_matches_symbol_count(self, small_clip):
        packet = prepare_semantic(small_clip, 1234, CFG)
        kept = packet.kept_common.sum() + packet.kept_individual.sum()
        assert kept == packet.symbol_count == 1234

    def test_grid_snap_is_dyadic(self):
        vals = np.array([0.1, -2.7, 3.3e-11])
        snapped = snap_to_grid(vals)
        assert np.array_equal(snapped * 2.0**32, np.round(snapped * 2.0**32))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# budgets around the common map's size (n_common), a service-sized one and
# ten times every element; "noise50" is odd-sized, so its frames are padded
PINNED_BUDGETS = ("100", "n_common", "n_common+1", "18000", "10*total")
PINNED_SNRS_DB = (-10.0, 5.0, 300.0)

# SHA-256 of what prepare_semantic sends (both masks, symbols, symbol
# scale, locations, scales, side-information bits) and of the frames
# transmit_packet gives at each of PINNED_SNRS_DB.  Recorded from the chain
# that coded the common and individual maps in two written-out halves.
PINNED_CHAIN_DIGESTS = {
    ("reference", "100"): (
        "f0763e450e94bedf1727e5a729afc15e0fae8e7bd5e4dd13bdc35e8f18639f75",
        "96c3e4c69c95dd87061945849a443322fc005a6c5252d6fbcccf73899882cb7e",
        "acf31931cadbeff5cef14cb25ecf91bbb106d7f38aee2f2cb1bae775f2d6fd87",
        "9bd3635aba7c3a8b253ae5dfe61b22282447daf226cadbfd9e48f5922e961a40",
    ),
    ("reference", "n_common"): (
        "073df0438e6144989c6e733bfad076618feb78c967d846455d2d63fedb100524",
        "48140b20593b018cc450685616dd9feaa4d50a92c4f023d6f5eec11e847eb18b",
        "0e796c5f13a73339abcc94be8de97fdd8bd06891ae830df4f606d7ebeb83fc1b",
        "42113157f1312fb719bde99e5d4608453c67c883fae35ada0a269a990f50ea7c",
    ),
    ("reference", "n_common+1"): (
        "9b034d8c4337e52852e6409dbef4689911c390ea96684d396fa2c883ba8574af",
        "aa8616126da21115ca3beb5e884e3fb4e5fe8360f659f27f180167f62029970f",
        "7086e98ab1226a519b2d1629263d1d0cdd7b046fcd0a268d90645137365ce6dd",
        "d2c5b78f31f524405e12882bb77796f4730bb5f7e1e77d4902aaf558765249ae",
    ),
    ("reference", "18000"): (
        "eadac71b20e7598624333adb2272015adf8413d78d4f81a9dc5eeb7b29a2efef",
        "c15bc2122e54e068b90854e887776282090f225e22994e7e100b104ca4e209e1",
        "0dd0dea8208b44d0aef4cbd84ebd7da99b1fe4caf2deed0ad8a0b0da68a78886",
        "29b6c043d91e5dcca2053021d7b08a51b372d720bf19a8c3061ed2bb2f2435a2",
    ),
    ("reference", "10*total"): (
        "794f0fdb6b20423f3d1443e083b650bc6e73e31ed623a82b44108d5668db3655",
        "7990aaeca666ef99a678e729b50c0d069a3b797b66538a6e29efa871fb41f1b2",
        "a8b55bc06b25b5b10f81a0246e11b8775dd82b61e50f1d795bfb7f6c52afdb47",
        "9060d0739fa245946a21cae7068f0b2bfcc1ef2bfd87b87e4c198fda484e04e7",
    ),
    ("noise50", "100"): (
        "6dd981e931d6e0fae7b2bfd8fa6b9121c19866f4390d825569108d659165313f",
        "b0ba83322307cee94d96cb502168521c6e1fc5c5af6e5dd34da1327be3b2ec2f",
        "183a3c4c5f9abff5c1ec267b96b3ff3a4690a1f9508c683e0c4b922720894ac1",
        "5f54a784cb2513f473532f5506beee181ee210c9b91e328aa9ea12f54dc5e37c",
    ),
    ("noise50", "n_common"): (
        "8961242f978b4087204c49a67e94d6ba2640fb1d959efa12464b8013a5d1eba2",
        "3804de3c0c05ab222ef60f27fff220d259b157f30d1879a941eb0d18b38fb0c1",
        "f9b613fffb90473138a58d02d41885d670182aa010a268b1396bfc32fe0625c4",
        "d4645c6b3274cc0bd55cbe3df7b54d048dd9b6b5e42cba1b1b4a8f05f8ab19f8",
    ),
    ("noise50", "n_common+1"): (
        "c11b6385fa12a2abee4f334fe908889512b871396197a90ed0e9c1a0891d8801",
        "dd5800210a17b596d5f65342a1f1a04fcc4060f8dc87aaa2530b62a093b83a52",
        "3a3b49e161a415ed819d2d0db8945a645dcc86e39cf43b4822c4a37ed3087d9f",
        "3bc79b1bea89ec8f9e7c64ebfc94b805b3a7796731ccef0b2c9fdf4f6d5b6cc2",
    ),
    ("noise50", "18000"): (
        "46ae1ce497fe02f9f0e242f1933e56051d86028bdee2aacfd73f41596763e402",
        "54248629f5394437e4e172234309417937186d0a5f7ed2b8d08d61107d28900a",
        "4a6eb2b22e83d4e182d5b46a1498dce7278e26384988171862a75b8f2c1aab7d",
        "6f07988c17fde09fd27cda44b6a38e4cefac557f7bf5728e39d2e0076d026875",
    ),
    ("noise50", "10*total"): (
        "c53712d5639ed37f38954449df829119cb451b34d06070fcbf3253143e354c6b",
        "a574e8583b550b9dfdacda88cb0a8f4b6c597811e84c53c604664f9e6befb774",
        "3b60d52789475eb60ec1b86f9d03aed04cae79ddf21696099c1e9ae8656a10f0",
        "4172d5c7fc92af2849b5e36a3256982176aff0b71b5c3e80c1bc2b8c80df12c3",
    ),
}


def _pinned_gop(name):
    if name == "reference":  # the reference config's user clip
        return make_test_clip(112, 112)
    return _noise_gop(n=3, size=50)


def _pinned_budget(label, n_common, total):
    return {"100": 100, "n_common": n_common, "n_common+1": n_common + 1,
            "18000": 18000, "10*total": 10 * total}[label]


@pytest.mark.parametrize("gop_name,budget", sorted(PINNED_CHAIN_DIGESTS))
def test_chain_output_pinned(gop_name, budget):
    gop = _pinned_gop(gop_name)
    maps = extract_common(_features(gop))
    n_common = maps.common.size
    total = n_common + maps.individual.size
    packet = prepare_semantic(gop, _pinned_budget(budget, n_common, total), CFG)
    got = (
        _digest(packet.kept_common, packet.kept_individual, packet.block.symbols,
                np.float64(packet.block.scale), packet.locations, packet.scales,
                np.int64(packet.side_info_bits)),
        *(_digest(_stack(transmit_packet(packet, ChannelConfig(snr_db=snr, seed=5), CFG)[0]))
          for snr in PINNED_SNRS_DB),
    )
    assert got == PINNED_CHAIN_DIGESTS[(gop_name, budget)]
