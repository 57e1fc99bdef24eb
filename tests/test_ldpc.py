import hashlib

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


# SHA-256 of every array of make_ldpc_code(k, seed), recorded before the
# decoder and the GF(2) products were rewritten; they must not move
CODE_SHA256 = {
    (512, 11): "cd5285078199f78228da9516459ecf76651920c3430ba7a8f6ac600fdf487e3e",
    (256, 11): "1e36867ecc5c861e444077eec1daf0a44076c11ceccc5a08767c1d6903d0b2fe",
    (128, 5): "7d0effbb109c8f6b057f6828bebf12f9f3bb6833adbe7c196747a1a2317a0fc2",
    (64, 3): "8516de9bdb004aef7b0970af7c318f234bfea176965ec2d096c46534edbe27e5",
    (72, 3): "b5c886118fd1c9844814e2a464248a68a0d60d389b3b22a6b2adf74d7e3b6270",
}
CODE_FIELDS = ("parity_check", "check_neighbors", "var_edge_check", "var_edge_slot",
               "info_positions", "parity_positions", "encode_matrix")
# SHA-256 of (info, converged) for the mixed batch below, recorded likewise
MIXED_DECODE_SHA256 = "ab2421b87fd946bfeaef3d022ef3a5efe240fd125717913d09f4e478994a0d85"
MIXED_SNRS_DB = (-10.0, -10.0, 0.0, 0.0, 2.0, 2.0, 5.0, 5.0)


def _code_sha256(code):
    digest = hashlib.sha256()
    for name in CODE_FIELDS:
        arr = getattr(code, name)
        for part in (name, str(arr.dtype), str(arr.shape)):
            digest.update(part.encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def mixed_llrs(ldpc_code):
    """One block per SNR in MIXED_SNRS_DB: the -10 and 0 dB blocks run every
    iteration and fail, the 2 and 5 dB ones converge part-way."""
    info = np.random.default_rng(2024).integers(0, 2, 512 * len(MIXED_SNRS_DB)).astype(np.uint8)
    coded = ldpc_encode(info, ldpc_code).reshape(len(MIXED_SNRS_DB), -1)
    llrs = []
    for b, snr in enumerate(MIXED_SNRS_DB):
        received = awgn(bpsk_modulate(coded[b]), ChannelConfig(snr_db=snr, seed=b))
        llrs.append(bpsk_demodulate(received, noise_variance(snr)))
    return np.concatenate(llrs)


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

    @pytest.mark.parametrize("k, seed", sorted(CODE_SHA256))
    def test_code_arrays_pinned(self, k, seed, ldpc_code):
        code = ldpc_code if (k, seed) == (512, 11) else make_ldpc_code(k, seed)
        assert _code_sha256(code) == CODE_SHA256[(k, seed)]

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


    def test_mixed_batch_pinned(self, ldpc_code, mixed_llrs):
        info, converged = ldpc_decode(mixed_llrs, ldpc_code)
        assert converged.tolist() == [False] * 4 + [True] * 4
        digest = hashlib.sha256(info.tobytes() + converged.tobytes()).hexdigest()
        assert digest == MIXED_DECODE_SHA256

    def test_mixed_batch_equals_blocks_alone(self, ldpc_code, mixed_llrs):
        # blocks leave the batch as they converge; that must not change any
        # block's result
        info, converged = ldpc_decode(mixed_llrs, ldpc_code)
        alone = [ldpc_decode(llr, ldpc_code) for llr in mixed_llrs.reshape(-1, ldpc_code.n)]
        assert np.array_equal(info, np.concatenate([a[0] for a in alone]))
        assert np.array_equal(converged, np.concatenate([a[1] for a in alone]))

    def test_max_iters_one_is_the_hard_decision(self, ldpc_code, mixed_llrs):
        info, converged = ldpc_decode(mixed_llrs, ldpc_code, max_iters=1)
        hard = (mixed_llrs.reshape(-1, ldpc_code.n) < 0).astype(np.uint8)
        assert np.array_equal(info, hard[:, ldpc_code.info_positions].reshape(-1))
        assert converged.sum() < converged.size


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
