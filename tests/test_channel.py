import numpy as np
import pytest

from semvid.channel import (
    ChannelConfig,
    SymbolBlock,
    TxStats,
    awgn,
    derive_seed,
    noise_variance,
    normalize_power,
)


class TestNormalizePower:
    def test_constant_block(self):
        out = normalize_power(SymbolBlock(np.full(8, 2.0)))
        assert np.allclose(out.symbols, 1.0)
        assert out.scale == pytest.approx(2.0)

    def test_idempotent_on_unit_power(self):
        block = normalize_power(SymbolBlock(np.array([3.0, -4.0, 1.0, 2.0])))
        again = normalize_power(block)
        assert np.allclose(again.symbols, block.symbols)
        assert again.scale == pytest.approx(block.scale)

    def test_hand_arithmetic(self):
        out = normalize_power(SymbolBlock(np.array([3.0, 4.0])))
        assert abs(out.power - 1.0) < 1e-6
        assert out.scale == pytest.approx(np.sqrt(12.5))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_power(SymbolBlock(np.zeros(4)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_power(SymbolBlock(np.array([])))


class TestAwgn:
    def test_vanishing_noise(self):
        block = SymbolBlock(np.linspace(-1, 1, 64))
        out = awgn(block, ChannelConfig(snr_db=200.0, seed=1))
        assert np.max(np.abs(out.symbols - block.symbols)) < 1e-8

    def test_noise_variance_at_zero_db(self):
        block = SymbolBlock(np.ones(10**6))
        out = awgn(block, ChannelConfig(snr_db=0.0, seed=7))
        measured = np.var(out.symbols - block.symbols)
        assert abs(measured - 1.0) < 0.02

    def test_deterministic_under_seed(self):
        block = SymbolBlock(np.ones(128))
        cfg = ChannelConfig(snr_db=5.0, seed=99)
        assert np.array_equal(awgn(block, cfg).symbols, awgn(block, cfg).symbols)

    def test_empirical_snr_matches_config(self):
        # module invariant: within 0.1 dB over >= 1e6 symbols
        block = SymbolBlock(np.ones(10**6))
        for snr_db in (-10.0, 0.0, 10.0):
            out = awgn(block, ChannelConfig(snr_db=snr_db, seed=3))
            noise_power = np.mean((out.symbols - block.symbols) ** 2)
            measured_db = 10 * np.log10(1.0 / noise_power)
            assert abs(measured_db - snr_db) < 0.1

    def test_scale_carried_through(self):
        block = SymbolBlock(np.ones(4), scale=3.5)
        out = awgn(block, ChannelConfig(snr_db=20.0, seed=2))
        assert out.scale == 3.5

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
            ChannelConfig(snr_db=float("nan"), seed=0)
