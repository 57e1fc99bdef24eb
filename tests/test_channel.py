import numpy as np
import pytest

from semvid.channel import TxStats, awgn, derive_seed, noise_variance
from semvid.semantic import EntropyModel, SemanticCodecConfig, variable_length_code

# unit weights and zero locations: a packet sends its maps' values as they are
UNWEIGHTED = SemanticCodecConfig(power_alloc_exp=0.0)


def unweighted_packet(common, individual):
    """The packet of maps ``common`` (1, 1, c) and ``individual`` (1, 1, 1, c),
    every element kept, common first."""
    c = len(common)
    maps = (np.reshape(common, (1, 1, c)).astype(float),
            np.reshape(individual, (1, 1, 1, c)).astype(float))
    model = EntropyModel(np.zeros((2, c)), np.ones((2, c)))
    return variable_length_code(maps, model, 2 * c, (1, 1), UNWEIGHTED)


class TestNormalizePower:
    """The semantic chain sends its symbols at the unit mean square the SNR
    is defined on; the packet's ``rms`` undoes the normalization."""

    def test_constant_block(self):
        out = unweighted_packet([2.0, 2.0, 2.0, 2.0], [2.0, 2.0, 2.0, 2.0])
        assert np.allclose(out.symbols, 1.0)
        assert out.rms == pytest.approx(2.0)

    def test_idempotent_on_unit_power(self):
        block = unweighted_packet([3.0, -4.0], [1.0, 2.0])
        again = unweighted_packet(block.symbols[:2], block.symbols[2:])
        assert np.allclose(again.symbols, block.symbols)
        assert again.rms == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        out = unweighted_packet([3.0, 4.0], [0.0, 0.0])
        assert abs(np.mean(out.symbols**2) - 1.0) < 1e-6
        assert out.rms == pytest.approx(np.sqrt(6.25))
        assert np.allclose(out.symbols * out.rms, [3.0, 4.0, 0.0, 0.0])

    def test_zero_power_packet_keeps_rms_one(self):
        out = unweighted_packet([0.0, 0.0], [0.0, 0.0])
        assert out.rms == 1.0
        assert np.array_equal(out.symbols, np.zeros(4))

    def test_symbols_read_only(self):
        out = unweighted_packet([3.0, 4.0], [1.0, 2.0])
        assert out.symbols.dtype == np.float64
        with pytest.raises(ValueError):
            out.symbols[0] = 0.0


class TestAwgn:
    def test_vanishing_noise(self):
        symbols = np.linspace(-1, 1, 64)
        out = awgn(symbols, 200.0, 1)
        assert np.max(np.abs(out - symbols)) < 1e-8

    def test_noise_variance_at_zero_db(self):
        symbols = np.ones(10**6)
        out = awgn(symbols, 0.0, 7)
        measured = np.var(out - symbols)
        assert abs(measured - 1.0) < 0.02

    def test_deterministic_under_seed(self):
        symbols = np.ones(128)
        assert np.array_equal(awgn(symbols, 5.0, 99), awgn(symbols, 5.0, 99))

    def test_matches_reference_expression(self):
        symbols = np.random.default_rng(0).standard_normal(257)
        for snr_db, seed in ((-10.0, 3), (5.0, 99), (25.0, 2**62)):
            want = np.random.default_rng(seed).standard_normal(symbols.size)
            want *= np.sqrt(10.0 ** (-snr_db / 10.0))
            want += symbols
            out = awgn(symbols, snr_db, seed)
            assert out.dtype == np.float64
            assert out.tobytes() == want.tobytes()

    def test_empirical_snr_matches_config(self):
        # module invariant: within 0.1 dB over >= 1e6 symbols
        symbols = np.ones(10**6)
        for snr_db in (-10.0, 0.0, 10.0):
            out = awgn(symbols, snr_db, 3)
            noise_power = np.mean((out - symbols) ** 2)
            measured_db = 10 * np.log10(1.0 / noise_power)
            assert abs(measured_db - snr_db) < 0.1

    def test_noise_variance_helper(self):
        assert noise_variance(0.0) == pytest.approx(1.0)
        assert noise_variance(10.0) == pytest.approx(0.1)


class TestSeeds:
    def test_derive_seed_deterministic_and_distinct(self):
        a = derive_seed(7, "semantic", 0)
        assert a == derive_seed(7, "semantic", 0)
        assert a != derive_seed(7, "semantic", 1)
        assert a != derive_seed(8, "semantic", 0)


class TestTxStats:
    def test_merge_adds_fields(self):
        a = TxStats(10, 20, 1.0, 1, 5)
        b = TxStats(1, 2, 0.5, 0, 3)
        c = a.merge(b)
        assert (c.payload_bits, c.channel_symbols) == (11, 22)
        assert c.wireless_delay_seconds == pytest.approx(1.5)
        assert (c.decode_failures, c.side_info_bits) == (1, 8)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TxStats(-1, 0)


class TestValidation:
    def test_snr_must_be_finite(self):
        with pytest.raises(ValueError):
            awgn(np.ones(4), float("nan"), 0)

    @pytest.mark.parametrize("snr", [-4000.0, -300.5, 300.5, 4000.0])
    def test_snr_out_of_range_rejected(self, snr):
        # far enough out, 10**(-snr_db / 10) overflows a float
        with pytest.raises(ValueError, match="snr_db must be finite and between -300 and 300 dB"):
            awgn(np.ones(4), snr, 0)

    @pytest.mark.parametrize("snr", [-300.0, 300.0])
    def test_snr_range_edges_usable(self, snr):
        out = awgn(np.ones(4), snr, 0)
        assert np.isfinite(out).all()
        assert np.isfinite(noise_variance(snr))

    @pytest.mark.parametrize("shape", [(), (2, 2)])
    def test_symbols_must_be_one_dimensional(self, shape):
        with pytest.raises(ValueError, match="one-dimensional"):
            awgn(np.ones(shape), 10.0, 0)
