import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semvid.channel import ChannelConfig
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
    likelihood,
    merge_common,
    prepare_semantic,
    semantic_transmit,
    snap_to_grid,
    variable_length_code,
)
from semvid.video import Gop

CFG = SemanticCodecConfig()


def _features(gop):
    return jscc_encode(latent_transform(gop, CFG), CFG)


def _mean_psnr(a, b):
    return float(np.mean([psnr(x, y) for x, y in zip(a.frames, b.frames)]))


def _noise_gop(seed=42, n=4, size=64):
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n):
        x = rng.standard_normal((size, size, 3))
        for _ in range(2):
            x = (np.roll(x, 1, 0) + np.roll(x, -1, 0) + np.roll(x, 1, 1) + np.roll(x, -1, 1) + 4 * x) / 8
        frames.append(np.clip(0.5 + 0.25 * x / np.abs(x).std(), 0, 1))
    return Gop.from_array(np.round(np.stack(frames) * 255) / 255)


class TestLatentTransform:
    def test_channel_dimension_is_128(self):
        assert CFG.channel_dim == 128
        lat = latent_transform(_noise_gop(n=2), CFG)
        assert lat.values.shape[-1] == 128

    def test_constant_gop_energy_in_dc_channel(self):
        gop = Gop.from_array(np.full((2, 32, 32, 3), 0.5))
        lat = latent_transform(gop, CFG)
        energy = np.sum(lat.values**2, axis=(0, 1, 2))
        assert energy[0] > 0
        assert np.all(energy[1:] < 1e-18)

    def test_round_trip_quality(self, small_gop):
        rec = latent_inverse(latent_transform(small_gop, CFG), CFG)
        assert _mean_psnr(small_gop, rec) >= 50.0

    def test_pads_odd_dimensions(self):
        gop = _noise_gop(n=2, size=50)
        rec = latent_inverse(latent_transform(gop, CFG), CFG)
        assert rec.width == 50 and rec.height == 50
        assert _mean_psnr(gop, rec) >= 50.0


class TestJscc:
    def test_zero_latent_maps_to_zero(self):
        lat = latent_transform(Gop.from_array(np.zeros((2, 16, 16, 3))), CFG)
        feat = jscc_encode(lat, CFG)
        assert not feat.values.any()

    def test_inverse_pair(self, small_gop):
        lat = latent_transform(small_gop, CFG)
        back = jscc_decode(jscc_encode(lat, CFG), CFG)
        assert np.max(np.abs(back.values - lat.values)) < 1e-9

    def test_energy_compaction(self, small_gop):
        feat = _features(small_gop)
        energy = np.sum(feat.values**2, axis=(0, 1, 2))
        assert energy[:16].sum() / energy.sum() >= 0.8


class TestCommonFeatureSplit:
    def test_single_frame_gop_has_zero_individuals(self):
        maps = extract_common(_features(Gop.from_array(np.random.default_rng(0).random((1, 16, 16, 3))))
                              )
        assert not maps.individual.any()

    def test_static_gop_has_zero_individuals(self):
        frame = np.random.default_rng(1).random((16, 16, 3))
        maps = extract_common(_features(Gop.from_array(np.tile(frame, (3, 1, 1, 1)))))
        assert not maps.individual.any()

    def test_two_frame_algebra(self):
        # common = (a + b) / 2 up to the documented dyadic grid rounding,
        # and the split always reconstructs bit-exactly
        rng = np.random.default_rng(2)
        a = np.round(rng.random((16, 16, 3)) * 256) / 256
        b = np.round(rng.random((16, 16, 3)) * 256) / 256
        feat = _features(Gop.from_array(np.stack([a, b])))
        maps = extract_common(feat)
        mean = (feat.values[0] + feat.values[1]) / 2.0
        grid_quantum = 2.0**-32
        assert np.max(np.abs(maps.common - mean)) <= grid_quantum
        assert np.max(np.abs(maps.individual[0] + maps.individual[1])) <= 2 * grid_quantum
        assert np.array_equal(maps.common + maps.individual[0], feat.values[0])
        assert np.array_equal(maps.common + maps.individual[1], feat.values[1])

    def test_reconstruction_bit_exact(self, small_gop):
        feat = _features(small_gop)
        maps = extract_common(feat)
        assert np.array_equal(merge_common(maps).values, feat.values)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 1000))
    def test_bit_exact_property(self, n, seed):
        rng = np.random.default_rng(seed)
        gop = Gop.from_array(rng.random((n, 8, 16, 3)))
        feat = _features(gop)
        maps = extract_common(feat)
        assert np.array_equal(merge_common(maps).values, feat.values)


class TestEntropyModel:
    def test_constant_channel_uniform_max_likelihood(self):
        # per-channel-constant maps: every element sits at its fitted
        # location, so likelihoods are equal and maximal per channel
        from semvid.semantic import FeatureMaps, FeatureMeta

        meta = FeatureMeta(2, 16, 16, 2, 3, 128)
        channel_values = np.linspace(-3.0, 3.0, 128)
        common = np.broadcast_to(channel_values, (2, 3, 128)).copy()
        individual = np.broadcast_to(channel_values * 0.5, (2, 2, 3, 128)).copy()
        maps = FeatureMaps(common, individual, meta)
        model = fit_entropy_model(maps, CFG)
        em_common, em_individual = likelihood(maps, model)
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
        maps = extract_common(_features(Gop.from_array(np.zeros((2, 16, 16, 3)))))
        model = fit_entropy_model(maps, CFG)
        assert np.all(model.scales >= CFG.entropy_floor)

    def test_model_bits_close_to_histogram_entropy(self):
        maps = extract_common(_features(_noise_gop()))
        model = fit_entropy_model(maps, CFG)
        em_common, em_individual = likelihood(maps, model)
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
    def test_full_budget_is_lossless_packetization(self, small_gop):
        feat = _features(small_gop)
        maps = extract_common(feat)
        model = fit_entropy_model(maps, CFG)
        total = maps.common.size + maps.individual.size
        packet = variable_length_code(maps, model, total, CFG)
        assert packet.symbol_count == total
        decoded = decode_packet(packet, packet.block, 0.0, CFG)
        assert np.allclose(decoded.common, maps.common, atol=1e-9)
        assert np.allclose(decoded.individual, maps.individual, atol=1e-9)

    def test_budget_larger_than_elements_keeps_all(self, small_gop):
        maps = extract_common(_features(small_gop))
        model = fit_entropy_model(maps, CFG)
        total = maps.common.size + maps.individual.size
        packet = variable_length_code(maps, model, total * 10, CFG)
        assert packet.symbol_count == total

    def test_budget_must_be_positive(self, small_gop):
        maps = extract_common(_features(small_gop))
        model = fit_entropy_model(maps, CFG)
        with pytest.raises(ValueError):
            variable_length_code(maps, model, 0, CFG)

    def test_common_prioritized_first(self, small_gop):
        maps = extract_common(_features(small_gop))
        model = fit_entropy_model(maps, CFG)
        packet = variable_length_code(maps, model, 100, CFG)
        assert packet.kept_common.sum() == 100
        assert packet.kept_individual.sum() == 0

    def test_dropped_elements_fill_with_locations(self, small_gop):
        maps = extract_common(_features(small_gop))
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
        gop = Gop.from_array(np.tile(np.clip(frame, 0, 1)[None], (4, 1, 1, 1)))
        maps = extract_common(_features(gop))
        total = maps.common.size + maps.individual.size
        ch = ChannelConfig(snr_db=300.0, seed=4)
        full, _ = semantic_transmit(gop, ch, total, CFG)
        tenth, _ = semantic_transmit(gop, ch, total // 10, CFG)
        assert _mean_psnr(gop, tenth) >= _mean_psnr(gop, full) - 3.0


class TestSemanticTransmit:
    def test_high_snr_full_budget_quality(self, reference_gop):
        maps = extract_common(_features(reference_gop))
        total = maps.common.size + maps.individual.size
        out, stats = semantic_transmit(reference_gop, ChannelConfig(snr_db=25.0, seed=9), total, CFG)
        assert _mean_psnr(reference_gop, out) >= 40.0
        assert stats.decode_failures == 0
        assert stats.channel_symbols == total

    def test_infinite_snr_full_budget_transform_loss_only(self, small_gop):
        maps = extract_common(_features(small_gop))
        total = maps.common.size + maps.individual.size
        out, _ = semantic_transmit(small_gop, ChannelConfig(snr_db=300.0, seed=1), total, CFG)
        assert _mean_psnr(small_gop, out) >= 50.0

    def test_graceful_degradation(self, small_gop):
        budgets = 2000
        values = []
        for snr in np.arange(-10.0, 26.0, 5.0):
            out, _ = semantic_transmit(small_gop, ChannelConfig(snr_db=float(snr), seed=9), budgets, CFG)
            values.append(_mean_psnr(small_gop, out))
        drops = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        assert all(v >= -6.0 for v in drops)  # rising SNR never drops sharply
        assert max(values) > min(values)

    def test_deterministic(self, small_gop):
        ch = ChannelConfig(snr_db=5.0, seed=31)
        a, _ = semantic_transmit(small_gop, ch, 1500, CFG)
        b, _ = semantic_transmit(small_gop, ch, 1500, CFG)
        assert np.array_equal(a.to_array(), b.to_array())

    def test_payload_accounting(self, small_gop):
        _, stats = semantic_transmit(small_gop, ChannelConfig(snr_db=10.0, seed=2), 700, CFG)
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
    def test_mask_matches_symbol_count(self, small_gop):
        packet = prepare_semantic(small_gop, 1234, CFG)
        kept = packet.kept_common.sum() + packet.kept_individual.sum()
        assert kept == packet.symbol_count == 1234

    def test_grid_snap_is_dyadic(self):
        vals = np.array([0.1, -2.7, 3.3e-11])
        snapped = snap_to_grid(vals)
        assert np.array_equal(snapped * 2.0**32, np.round(snapped * 2.0**32))
