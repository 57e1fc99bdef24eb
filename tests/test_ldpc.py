import hashlib
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

from semvid import ldpc
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
    # recorded before 4-cycles were found from the check lists
    (512, 2024): "9259b3d4324ad61eab94edaf032e47d40fd27f27ad82c88631f16d7b2493fee7",
    (512, 2031): "52f54ff9e13605a4a20c8d840f4f23635111b7788f603a1cfbe7c609ba71aa8c",
    (1024, 11): "9382d935953ba387eb18308383a04ed4fb83b6c065c8d9927e151768c7c7f0c9",
}
CODE_FIELDS = ("parity_check", "check_neighbors", "var_edge_check", "var_edge_slot",
               "info_positions", "parity_positions", "encode_matrix")
# SHA-256 of (info, converged) for the mixed batch below, recorded likewise;
# the stall exit leaves it unchanged, and without it the BP arithmetic must
# still give it
MIXED_DECODE_SHA256 = "ab2421b87fd946bfeaef3d022ef3a5efe240fd125717913d09f4e478994a0d85"
MIXED_SNRS_DB = (-10.0, -10.0, 0.0, 0.0, 2.0, 2.0, 5.0, 5.0)
# the split batch: hopeless blocks, waterfall-region blocks that converge
# after many iterations or never, and easy ones that converge in a few
SPLIT_SNRS_DB = (-10.0, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0) * 3


def _code_sha256(code):
    digest = hashlib.sha256()
    for name in CODE_FIELDS:
        arr = getattr(code, name)
        for part in (name, str(arr.dtype), str(arr.shape)):
            digest.update(part.encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _noisy_llrs(code, snrs_db, seed):
    """One block per SNR: random info bits, BPSK over AWGN, channel LLRs."""
    info = np.random.default_rng(seed).integers(0, 2, code.k * len(snrs_db)).astype(np.uint8)
    coded = ldpc_encode(info, code).reshape(len(snrs_db), -1)
    llrs = []
    for b, snr in enumerate(snrs_db):
        received = awgn(bpsk_modulate(coded[b]), ChannelConfig(snr_db=snr, seed=b))
        llrs.append(bpsk_demodulate(received, noise_variance(snr)))
    return np.concatenate(llrs)


@pytest.fixture(scope="module")
def mixed_llrs(ldpc_code):
    """One block per SNR in MIXED_SNRS_DB: the -10 and 0 dB blocks never
    converge and leave when they stall, the 2 and 5 dB ones converge
    part-way."""
    return _noisy_llrs(ldpc_code, MIXED_SNRS_DB, seed=2024)


@pytest.fixture(scope="module")
def split_llrs(ldpc_code):
    return _noisy_llrs(ldpc_code, SPLIT_SNRS_DB, seed=8)


@pytest.fixture(scope="module")
def pinned_codes(ldpc_code):
    return {key: ldpc_code if key == (512, 11) else make_ldpc_code(*key) for key in CODE_SHA256}


def _dense_four_cycle_pairs(cols, m):
    """Oracle: pairs (i, j), i < j, of variables sharing two or more checks,
    read off the dense variable-overlap matrix."""
    adj = np.zeros((cols.shape[0], m), dtype=np.float32)
    adj[np.arange(cols.shape[0])[:, None], cols] = 1
    overlap = adj @ adj.T  # exact in float32: each count is at most 3
    np.fill_diagonal(overlap, 0)
    pairs = np.argwhere(overlap >= 2)
    return pairs[pairs[:, 0] < pairs[:, 1]]


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
        assert np.all(h.sum(axis=0) == 3)
        assert np.all(h.sum(axis=1) == 6)

    def test_full_row_rank(self, ldpc_code):
        assert _gf2_rank(ldpc_code.parity_check) == ldpc_code.k

    def test_no_length_four_cycles(self, pinned_codes):
        for key, code in pinned_codes.items():
            # float32 BLAS product: exact, since each count is at most 3
            h = code.parity_check.astype(np.float32)
            overlap = h.T @ h
            np.fill_diagonal(overlap, 0)
            assert overlap.max() <= 1, key

    @pytest.mark.parametrize("m, seed", [(18, 1), (20, 0), (40, 2), (64, 3), (256, 4), (512, 5)])
    def test_four_cycle_pairs_match_dense_overlap(self, m, seed):
        # fresh random graphs, before any cycle removal, so most have many
        cols = ldpc._build_graph(m, 2 * m, np.random.default_rng(seed))
        want = _dense_four_cycle_pairs(cols, m)
        got = ldpc._four_cycle_pairs(cols)
        assert want.size > 0
        assert np.array_equal(got, want)

    def test_four_cycle_pairs_of_a_cycle_free_code_are_empty(self, pinned_codes):
        code = pinned_codes[(512, 11)]
        assert ldpc._four_cycle_pairs(code.var_edge_check).shape == (0, 2)

    def test_rank_repair_gives_up(self, monkeypatch):
        monkeypatch.setattr("semvid.ldpc._gf2_row_reduce", lambda mat: [])
        with pytest.raises(RuntimeError, match="full rank"):
            make_ldpc_code(72, seed=3)

    @pytest.mark.parametrize("k, seed", sorted(CODE_SHA256))
    def test_code_arrays_pinned(self, k, seed, pinned_codes):
        assert _code_sha256(pinned_codes[(k, seed)]) == CODE_SHA256[(k, seed)]

    @pytest.mark.parametrize("k, seed", [(18, 0), (20, 1), (36, 0)])
    def test_small_code_whose_duplicate_cleanup_mends_a_row_twice(self, k, seed):
        # one swap of the cleanup pass fixes a row that the pass visits later
        code = make_ldpc_code(k, seed)
        assert np.all(code.parity_check.sum(axis=0) == 3)
        assert np.all(code.parity_check.sum(axis=1) == 6)
        assert _gf2_rank(code.parity_check) == k

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

    def test_mixed_batch_pinned_without_stall_exit(self, ldpc_code, mixed_llrs, monkeypatch):
        # a stall count no block can reach gives every block every iteration
        monkeypatch.setattr(ldpc, "STALL_ITERS", 50)
        info, converged = ldpc_decode(mixed_llrs, ldpc_code, max_iters=50)
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


class TestStallExit:
    """A block leaves BP unconverged once STALL_ITERS iterations in a row
    set no new least unsatisfied-check count."""

    def test_hopeless_block_leaves_early(self, ldpc_code, mixed_llrs, monkeypatch):
        real = ldpc._exclude_self_products
        calls = [0]

        def counting(t, out):
            calls[0] += 1
            return real(t, out)

        monkeypatch.setattr(ldpc, "_exclude_self_products", counting)
        blocks = mixed_llrs.reshape(-1, ldpc_code.n)
        for b in np.nonzero(np.array(MIXED_SNRS_DB) == -10.0)[0]:
            calls[0] = 0
            _, converged = ldpc_decode(blocks[b], ldpc_code, max_iters=50)
            assert not converged[0]
            # one call per BP iteration, against 49 without the stall exit
            assert ldpc.STALL_ITERS <= calls[0] <= ldpc.STALL_ITERS + 1, b

    def test_converged_blocks_unchanged(self, ldpc_code, split_llrs, monkeypatch):
        snrs = np.array(SPLIT_SNRS_DB)
        info, converged = ldpc_decode(split_llrs, ldpc_code, max_iters=50)
        monkeypatch.setattr(ldpc, "STALL_ITERS", 50)
        full_info, full_converged = ldpc_decode(split_llrs, ldpc_code, max_iters=50)
        # the stall exit only gives up; it never makes a block converge
        assert not (converged & ~full_converged).any()
        same = (info.reshape(len(snrs), -1) == full_info.reshape(len(snrs), -1)).all(axis=1)
        assert same[converged].all()
        # away from the code threshold it abandons no block that converges
        high = snrs >= 3.0
        assert np.array_equal(converged[high], full_converged[high])
        assert converged[high].all()
        # the premise: the -10 and 0 dB blocks never converge, so the stall
        # exit does give up on some blocks here
        assert not full_converged[snrs <= 0.0].any()


class TestSplitDecode:
    """The iterating blocks are split across threads; no split may change a
    bit."""

    def test_batch_iterates_unevenly(self, ldpc_code, split_llrs):
        # the premise of the tests below: blocks converge at different
        # iterations, and some never do
        counts = [int(ldpc_decode(split_llrs, ldpc_code, max_iters=it)[1].sum())
                  for it in (1, 5, 50)]
        assert counts[0] < counts[1] < counts[2] < len(SPLIT_SNRS_DB)

    def test_part_messages_fit_the_budget(self, ldpc_code):
        # 64 blocks for k = 512; a larger code gets proportionally fewer
        assert ldpc._part_blocks(ldpc_code) == 64
        assert ldpc._part_blocks(make_ldpc_code(1024, seed=11)) == 32

    def test_result_independent_of_worker_count(self, ldpc_code, split_llrs, monkeypatch):
        # nor on the part size: every (part size, workers) pair gives the same bits
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the parts' threads more often
        try:
            for part_blocks in (1, 7, 64, len(SPLIT_SNRS_DB)):
                # part size 1 runs the most workers the batch allows, one per block
                for workers in (1, 2, 3, len(SPLIT_SNRS_DB) + 5):
                    monkeypatch.setattr(ldpc, "_part_blocks", lambda code, b=part_blocks: b)
                    monkeypatch.setattr(ldpc, "_worker_count", lambda w=workers: w)
                    results[part_blocks, workers] = ldpc_decode(split_llrs, ldpc_code)
        finally:
            sys.setswitchinterval(interval)
        info, converged = results[len(SPLIT_SNRS_DB), 1]
        for key, (other_info, other_converged) in results.items():
            assert np.array_equal(other_info, info), key
            assert np.array_equal(other_converged, converged), key

    @pytest.mark.parametrize("where", ["pool", "caller"])
    def test_exception_in_a_part_propagates(self, ldpc_code, split_llrs, monkeypatch, where):
        real = ldpc._exclude_self_products

        def failing(t, out):
            if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
                raise FloatingPointError(f"injected in the {where} part")
            return real(t, out)

        # three parts on two workers: the caller decodes parts 0 and 2, the
        # pool thread part 1
        monkeypatch.setattr(ldpc, "_part_blocks", lambda code: len(SPLIT_SNRS_DB) // 3)
        monkeypatch.setattr(ldpc, "_worker_count", lambda: 2)
        monkeypatch.setattr(ldpc, "_exclude_self_products", failing)
        with pytest.raises(FloatingPointError, match=where):
            ldpc_decode(split_llrs, ldpc_code)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_decodes(self, ldpc_code, mixed_llrs, monkeypatch):
        monkeypatch.setattr(ldpc, "_part_blocks", lambda code: 2)
        monkeypatch.setattr(ldpc, "_worker_count", lambda: 2)
        info, converged = ldpc_decode(mixed_llrs, ldpc_code)
        # each decode's pool is gone when it returns: the child inherits none
        assert not any(t.name.startswith("ldpc-bp") for t in threading.enumerate())
        with warnings.catch_warnings():
            # newer Pythons warn on forking a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(10)  # a hung decode kills the child
                child_info, child_converged = ldpc_decode(mixed_llrs, ldpc_code)
                same = (np.array_equal(child_info, info)
                        and np.array_equal(child_converged, converged))
                status = 0 if same else 1
            finally:
                os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(wait_status) == 0


class TestSyndrome:
    @pytest.mark.parametrize("n_blocks", [1, 7, 8, 9, 64, 65])
    def test_packed_count_matches_boolean_xor(self, ldpc_code, n_blocks):
        # the count before the bits were packed: gather the hard decisions,
        # XOR each check's bits and count the ones per block
        hard = np.random.default_rng(n_blocks).random((ldpc_code.n, n_blocks)) < 0.3
        hard[:, 0] = False  # an all-zero codeword satisfies every check
        gathered = np.take(hard, ldpc_code.check_neighbors, axis=0)
        expected = np.bitwise_xor.reduce(gathered, axis=1).sum(axis=0, dtype=np.int32)
        count = ldpc._unsatisfied_checks(hard, ldpc_code)
        assert count.dtype == np.int32
        assert np.array_equal(count, expected)
        assert count[0] == 0 and (n_blocks == 1 or count[1:].all())


@pytest.mark.parametrize("x", [25.0, float(np.nextafter(np.float32(25), np.float32(np.inf))),
                               1e3, float(np.finfo(np.float32).max), np.inf])
def test_float32_tanh_saturates_from_25(x):
    # why BP feeds tanh its messages unclipped: a clip to +-25 could change
    # no output
    for sign in (1.0, -1.0):
        value = np.tanh(np.float32(sign * x))
        assert value.dtype == np.float32
        assert value == np.float32(sign)


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
