import numpy as np
import pytest

from semvid.channel import ChannelConfig, awgn, noise_variance
from semvid.ldpc import (
    LLR_MAX,
    bpsk_demodulate,
    bpsk_modulate,
    ldpc_decode,
    ldpc_encode,
    make_ldpc_code,
)


def _gf2_rank(mat):
    work = mat.copy().astype(np.uint8)
    rank = 0
    for col in range(work.shape[1]):
        rows = np.nonzero(work[rank:, col])[0]
        if rows.size == 0:
            continue
        pivot = rank + rows[0]
        work[[rank, pivot]] = work[[pivot, rank]]
        others = np.nonzero(work[:, col])[0]
        others = others[others != rank]
        work[others] ^= work[rank]
        rank += 1
        if rank == work.shape[0]:
            break
    return rank


class TestConstruction:
    def test_rate_and_shape(self, ldpc_code):
        assert ldpc_code.k == 512
        assert ldpc_code.n == 1024
        assert ldpc_code.parity_check.shape == (512, 1024)

    def test_regular_degrees(self, ldpc_code):
        h = ldpc_code.parity_check
        assert np.all(h.sum(axis=0) == ldpc_code.var_degree)
        assert np.all(h.sum(axis=1) == ldpc_code.check_degree)

    def test_full_row_rank(self, ldpc_code):
        assert _gf2_rank(ldpc_code.parity_check) == ldpc_code.k

    def test_no_length_four_cycles(self, ldpc_code):
        h = ldpc_code.parity_check.astype(np.int64)
        overlap = h.T @ h
        np.fill_diagonal(overlap, 0)
        assert overlap.max() <= 1

    def test_rank_repair_gives_up(self, monkeypatch):
        monkeypatch.setattr("semvid.ldpc._gf2_row_reduce", lambda mat: [])
        with pytest.raises(RuntimeError, match="full rank"):
            make_ldpc_code(72, seed=3)

    def test_construction_deterministic(self):
        a = make_ldpc_code(72, seed=3)
        b = make_ldpc_code(72, seed=3)
        assert np.array_equal(a.parity_check, b.parity_check)


class TestEncode:
    def test_all_zero_info_gives_all_zero_codeword(self, ldpc_code):
        coded = ldpc_encode(np.zeros(512, dtype=np.uint8), ldpc_code)
        assert not coded.any()

    def test_parity_holds_for_random_blocks(self, ldpc_code, rng):
        info = rng.integers(0, 2, 512 * 8).astype(np.uint8)
        coded = ldpc_encode(info, ldpc_code).reshape(-1, 1024)
        syndromes = (coded @ ldpc_code.parity_check.T.astype(np.int64)) % 2
        assert not syndromes.any()

    def test_rate_half_exact(self, ldpc_code):
        coded = ldpc_encode(np.zeros(512, dtype=np.uint8), ldpc_code)
        assert coded.size == 1024

    def test_requires_multiple_of_k(self, ldpc_code):
        with pytest.raises(ValueError):
            ldpc_encode(np.zeros(100, dtype=np.uint8), ldpc_code)


class TestDecode:
    def test_noiseless_exact_in_one_iteration(self, ldpc_code, rng):
        info = rng.integers(0, 2, 512 * 3).astype(np.uint8)
        coded = ldpc_encode(info, ldpc_code)
        llrs = bpsk_demodulate(bpsk_modulate(coded), 1e-6)
        decoded, converged = ldpc_decode(llrs, ldpc_code, max_iters=1)
        assert np.array_equal(decoded, info)
        assert converged.all()

    def test_low_snr_mostly_fails(self, ldpc_code, rng):
        info = rng.integers(0, 2, 512 * 10).astype(np.uint8)
        coded = ldpc_encode(info, ldpc_code)
        sym = bpsk_modulate(coded)
        received = awgn(sym, ChannelConfig(snr_db=-10.0, seed=1))
        llrs = bpsk_demodulate(received, noise_variance(-10.0))
        _, converged = ldpc_decode(llrs, ldpc_code, max_iters=50)
        assert np.count_nonzero(~converged) >= 9

    def test_moderate_snr_corrects_errors(self, ldpc_code, rng):
        info = rng.integers(0, 2, 512 * 10).astype(np.uint8)
        coded = ldpc_encode(info, ldpc_code)
        sym = bpsk_modulate(coded)
        received = awgn(sym, ChannelConfig(snr_db=5.0, seed=1))
        hard = (received.symbols < 0).astype(np.uint8)
        assert np.count_nonzero(hard != coded) > 0  # channel actually flips bits
        llrs = bpsk_demodulate(received, noise_variance(5.0))
        decoded, converged = ldpc_decode(llrs, ldpc_code)
        assert converged.all()
        assert np.array_equal(decoded, info)


class TestBpsk:
    def test_mapping(self):
        block = bpsk_modulate([0, 1, 0])
        assert np.array_equal(block.symbols, [1.0, -1.0, 1.0])

    def test_empty(self):
        assert bpsk_modulate([]).symbols.size == 0

    def test_unit_power(self, rng):
        block = bpsk_modulate(rng.integers(0, 2, 100))
        assert block.power == 1.0

    def test_round_trip_at_high_snr(self, rng):
        bits = rng.integers(0, 2, 256).astype(np.uint8)
        received = awgn(bpsk_modulate(bits), ChannelConfig(snr_db=30.0, seed=4))
        hard = (bpsk_demodulate(received, noise_variance(30.0)) < 0).astype(np.uint8)
        assert np.array_equal(hard, bits)

    def test_llr_formula(self):
        assert bpsk_demodulate(np.array([1.0]), 1.0)[0] == pytest.approx(2.0)
        assert bpsk_demodulate(np.array([0.0]), 1.0)[0] == 0.0

    def test_zero_variance_clamps(self):
        llr = bpsk_demodulate(np.array([1.0, -1.0]), 0.0)
        assert np.array_equal(llr, [LLR_MAX, -LLR_MAX])

    def test_magnitude_scales_with_variance(self):
        strong = bpsk_demodulate(np.array([0.5]), 0.1)[0]
        weak = bpsk_demodulate(np.array([0.5]), 1.0)[0]
        assert strong > weak > 0
