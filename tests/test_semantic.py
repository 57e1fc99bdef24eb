import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    prepare_semantic,
    semantic_transmit,
    snap_to_grid,
    variable_length_code,
)
from semvid.video import VideoSequence

import pins

CFG = SemanticCodecConfig()


def _features(gop):
    return jscc_encode(latent_transform(gop, CFG), CFG)


def _clip(arr):
    return VideoSequence(arr, 8.0)


def _size(clip):
    return clip.height, clip.width


def _mean_psnr(clip, decoded):
    return float(np.mean([psnr(x, y) for x, y in zip(clip.frames, decoded)]))


class TestLatentTransform:
    def test_channel_dimension_is_128(self):
        assert CFG.channel_dim == 128
        lat = latent_transform(pins.noise_gop(n=2), CFG)
        assert lat.shape[-1] == 128

    def test_constant_gop_energy_in_dc_channel(self):
        gop = _clip(np.full((2, 32, 32, 3), 0.5))
        lat = latent_transform(gop, CFG)
        energy = np.sum(lat**2, axis=(0, 1, 2))
        assert energy[0] > 0
        assert np.all(energy[1:] < 1e-18)

    def test_round_trip_quality(self, small_clip):
        rec = latent_inverse(latent_transform(small_clip, CFG), _size(small_clip), CFG)
        assert _mean_psnr(small_clip, rec) >= 50.0

    def test_pads_odd_dimensions(self):
        gop = pins.noise_gop(n=2, size=50)
        rec = latent_inverse(latent_transform(gop, CFG), _size(gop), CFG)
        assert rec.shape == (2, 50, 50, 3)
        assert _mean_psnr(gop, rec) >= 50.0


class TestJscc:
    def test_zero_latent_maps_to_zero(self):
        lat = latent_transform(_clip(np.zeros((2, 16, 16, 3))), CFG)
        feat = jscc_encode(lat, CFG)
        assert not feat.any()

    def test_inverse_pair(self, small_clip):
        lat = latent_transform(small_clip, CFG)
        back = jscc_decode(jscc_encode(lat, CFG), CFG)
        assert np.max(np.abs(back - lat)) < 1e-9

    def test_energy_compaction(self, small_clip):
        feat = _features(small_clip)
        energy = np.sum(feat**2, axis=(0, 1, 2))
        assert energy[:16].sum() / energy.sum() >= 0.8


class TestCommonFeatureSplit:
    def test_single_frame_gop_has_zero_individuals(self):
        gop = _clip(np.random.default_rng(0).random((1, 16, 16, 3)))
        _, individual = extract_common(_features(gop))
        assert not individual.any()

    def test_static_gop_has_zero_individuals(self):
        frame = np.random.default_rng(1).random((16, 16, 3))
        _, individual = extract_common(_features(_clip(np.tile(frame, (3, 1, 1, 1)))))
        assert not individual.any()

    def test_two_frame_algebra(self):
        # common = (a + b) / 2 up to the documented dyadic grid rounding,
        # and the split always reconstructs bit-exactly
        rng = np.random.default_rng(2)
        a = np.round(rng.random((16, 16, 3)) * 256) / 256
        b = np.round(rng.random((16, 16, 3)) * 256) / 256
        feat = _features(_clip(np.stack([a, b])))
        common, individual = extract_common(feat)
        mean = (feat[0] + feat[1]) / 2.0
        grid_quantum = 2.0**-32
        assert np.max(np.abs(common - mean)) <= grid_quantum
        assert np.max(np.abs(individual[0] + individual[1])) <= 2 * grid_quantum
        assert np.array_equal(common + individual[0], feat[0])
        assert np.array_equal(common + individual[1], feat[1])

    def test_reconstruction_bit_exact(self, small_clip):
        feat = _features(small_clip)
        common, individual = extract_common(feat)
        assert np.array_equal(common + individual, feat)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 1000))
    def test_bit_exact_property(self, n, seed):
        rng = np.random.default_rng(seed)
        gop = _clip(rng.random((n, 8, 16, 3)))
        feat = _features(gop)
        common, individual = extract_common(feat)
        assert np.array_equal(common + individual, feat)


class TestEntropyModel:
    def test_constant_channel_uniform_max_likelihood(self):
        # per-channel-constant maps: every element sits at its fitted
        # location, so likelihoods are equal and maximal per channel
        channel_values = np.linspace(-3.0, 3.0, 128)
        common = np.broadcast_to(channel_values, (2, 3, 128)).copy()
        individual = np.broadcast_to(channel_values * 0.5, (2, 2, 3, 128)).copy()
        model = fit_entropy_model((common, individual), CFG)
        em_common = model.likelihood(common, 0)
        em_individual = model.likelihood(individual, 1)
        peak = model.likelihood(model.locations[0], 0)
        assert np.allclose(em_common, np.broadcast_to(peak, em_common.shape))
        assert np.allclose(em_individual, em_individual[0, 0, 0])
        # maximal: any off-location value has lower mass
        off = model.likelihood(model.locations[0] + 5 * model.scales[0], 0)
        assert np.all(peak > off)

    def test_unimodal_around_location(self):
        maps = extract_common(_features(pins.noise_gop()))
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
        maps = common, individual = extract_common(_features(pins.noise_gop()))
        model = fit_entropy_model(maps, CFG)
        em_common = model.likelihood(common, 0)
        em_individual = model.likelihood(individual, 1)
        model_bits = -np.log2(em_common).sum() - np.log2(em_individual).sum()
        hist_bits = 0.0
        for data in (common.reshape(-1, 128), individual.reshape(-1, 128)):
            for c in range(data.shape[1]):
                q = np.round(data[:, c] / BIN_WIDTH).astype(np.int64)
                _, counts = np.unique(q, return_counts=True)
                p = counts / counts.sum()
                hist_bits += -(p * np.log2(p)).sum() * counts.sum()
        assert abs(model_bits - hist_bits) <= 0.1 * hist_bits


class TestVariableLengthCoding:
    def test_full_budget_is_lossless_packetization(self, small_clip):
        maps = common, individual = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        total = common.size + individual.size
        packet = variable_length_code(maps, model, total, _size(small_clip), CFG)
        assert packet.symbols.size == total
        common_hat, individual_hat = decode_packet(packet, packet.symbols, 0.0, CFG)
        assert np.allclose(common_hat, common, atol=1e-9)
        assert np.allclose(individual_hat, individual, atol=1e-9)

    def test_budget_larger_than_elements_keeps_all(self, small_clip):
        maps = common, individual = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        total = common.size + individual.size
        packet = variable_length_code(maps, model, total * 10, _size(small_clip), CFG)
        assert packet.symbols.size == total

    def test_budget_must_be_positive(self, small_clip):
        maps = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        with pytest.raises(ValueError):
            variable_length_code(maps, model, 0, _size(small_clip), CFG)

    def test_common_prioritized_first(self, small_clip):
        maps = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        packet = variable_length_code(maps, model, 100, _size(small_clip), CFG)
        assert packet.kept_common.sum() == 100
        assert packet.kept_individual.sum() == 0

    def test_budget_one_past_common_keeps_top_individual(self, small_clip):
        maps = common, individual = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        packet = variable_length_code(maps, model, common.size + 1, _size(small_clip), CFG)
        assert packet.kept_common.all()
        info = -np.log2(model.likelihood(individual, 1)).reshape(-1)
        # argmax takes the first index on ties, as the stable ranking must
        assert np.flatnonzero(packet.kept_individual).tolist() == [int(np.argmax(info))]

    def test_dropped_elements_fill_with_locations(self, small_clip):
        maps = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        packet = variable_length_code(maps, model, 50, _size(small_clip), CFG)
        _, individual_hat = decode_packet(packet, packet.symbols, 0.0, CFG)
        dropped = ~packet.kept_individual
        expected = np.broadcast_to(packet.locations[1], packet.kept_individual.shape)
        assert np.array_equal(individual_hat[dropped], expected[dropped])

    @pytest.mark.parametrize("change", [1, -1])
    def test_received_of_another_size_refused(self, small_clip, change):
        # one more value was silently dropped, one fewer hit a broadcast error
        maps = extract_common(_features(small_clip))
        model = fit_entropy_model(maps, CFG)
        packet = variable_length_code(maps, model, 50, _size(small_clip), CFG)
        received = np.resize(packet.symbols, 50 + change)
        with pytest.raises(ValueError, match=f"received {50 + change} values.*sent 50 symbols"):
            decode_packet(packet, received, 0.0, CFG)

    def test_static_gop_small_budget_matches_full(self):
        # bandlimited static content: the kept common map carries everything
        ys, xs = np.mgrid[0:32, 0:32].astype(float)
        frame = 0.5 + 0.2 * np.cos(np.pi * xs / 16) + 0.15 * np.cos(np.pi * ys / 8)
        frame = np.stack([frame, frame * 0.9, frame * 0.8], axis=-1)
        gop = _clip(np.tile(np.clip(frame, 0, 1)[None], (4, 1, 1, 1)))
        common, individual = extract_common(_features(gop))
        total = common.size + individual.size
        full, _ = semantic_transmit(gop, 300.0, 4, total, CFG)
        tenth, _ = semantic_transmit(gop, 300.0, 4, total // 10, CFG)
        assert _mean_psnr(gop, tenth) >= _mean_psnr(gop, full) - 3.0


class TestSemanticTransmit:
    def test_high_snr_full_budget_quality(self, reference_clip):
        common, individual = extract_common(_features(reference_clip))
        total = common.size + individual.size
        out, stats = semantic_transmit(reference_clip, 25.0, 9, total, CFG)
        assert _mean_psnr(reference_clip, out) >= 40.0
        assert stats.decode_failures == 0
        assert stats.channel_symbols == total

    def test_infinite_snr_full_budget_transform_loss_only(self, small_clip):
        common, individual = extract_common(_features(small_clip))
        total = common.size + individual.size
        out, _ = semantic_transmit(small_clip, 300.0, 1, total, CFG)
        assert _mean_psnr(small_clip, out) >= 50.0

    def test_graceful_degradation(self, small_clip):
        budgets = 2000
        values = []
        for snr in np.arange(-10.0, 26.0, 5.0):
            out, _ = semantic_transmit(small_clip, float(snr), 9, budgets, CFG)
            values.append(_mean_psnr(small_clip, out))
        drops = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        assert all(v >= -6.0 for v in drops)  # rising SNR never drops sharply
        assert max(values) > min(values)

    def test_deterministic(self, small_clip):
        a, _ = semantic_transmit(small_clip, 5.0, 31, 1500, CFG)
        b, _ = semantic_transmit(small_clip, 5.0, 31, 1500, CFG)
        assert np.array_equal(a, b)

    def test_payload_accounting(self, small_clip):
        _, stats = semantic_transmit(small_clip, 10.0, 2, 700, CFG)
        assert stats.channel_symbols == 700
        assert stats.payload_bits == 700 * CFG.bits_per_symbol_eq
        assert stats.side_info_bits > 0

    def test_budget_monotonicity_statistical(self):
        gop = pins.noise_gop(seed=11, n=4, size=32)
        budgets = [150, 400, 1000, 2500, 6000]
        ordered = 0
        comparisons = 0
        for seed in range(8):
            values = []
            for budget in budgets:
                out, _ = semantic_transmit(gop, 10.0, seed, budget, CFG)
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
        assert kept == packet.symbols.size == 1234

    def test_grid_snap_is_dyadic(self):
        vals = np.array([0.1, -2.7, 3.3e-11])
        snapped = snap_to_grid(vals)
        assert np.array_equal(snapped * 2.0**32, np.round(snapped * 2.0**32))


@pytest.mark.parametrize("budget", pins.SEMANTIC_BUDGETS)
@pytest.mark.parametrize("gop_name", pins.SEMANTIC_GOPS)
def test_chain_output_pinned(gop_name, budget):
    pins.check(f"semantic.chain[{gop_name},{budget}]")
