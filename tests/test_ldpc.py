import functools
import threading
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest

from semvid import ldpc, parallel
from semvid.channel import awgn, noise_variance
from semvid.ldpc import (
    LLR_MAX,
    bpsk_demodulate,
    bpsk_modulate,
    ldpc_decode,
    ldpc_encode,
    make_ldpc_code,
)

import pins


# the split batch: hopeless blocks, waterfall-region blocks that converge
# after many iterations or never, and easy ones that converge in a few
SPLIT_SNRS_DB = (-10.0, 0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0) * 3
# 32 blocks at each quarter dB from -2 to 3 dB: the pre-test takes out every
# block up to -0.25 dB and most at 0 dB, and from 0.5 dB on some converge
BATTERY_SNRS_DB = tuple(np.arange(-2.0, 3.01, 0.25).round(2)) * 32


@pytest.fixture(scope="module")
def mixed_llrs():
    return pins.mixed_llrs()


@pytest.fixture(scope="module")
def split_llrs(ldpc_code):
    return pins.noisy_llrs(ldpc_code, SPLIT_SNRS_DB, seed=8)


@pytest.fixture(scope="module")
def battery_decode(ldpc_code):
    """Decode the battery with the named early exits on, once per set of
    names: per-block bits, converged flags and the BP block-iterations run."""
    llrs = pins.noisy_llrs(ldpc_code, BATTERY_SNRS_DB, seed=33)

    @functools.cache
    def decode(on):
        real, runs = ldpc._exclude_self_products, []

        def counting(t, out):
            runs.append(t.shape[2])  # one call per BP iteration of the part's blocks
            return real(t, out)

        with pins.exits_off(*(name for name in pins.EXITS_OFF if name not in on)), \
                mock.patch.object(ldpc, "_exclude_self_products", counting):
            info, converged = ldpc_decode(llrs, ldpc_code)
        return info.reshape(converged.size, -1), converged, sum(runs)

    return decode


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

    def test_no_length_four_cycles(self):
        for key in pins.CODE_KEYS:
            code = make_ldpc_code(*key)
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

    def test_four_cycle_pairs_of_a_cycle_free_code_are_empty(self, ldpc_code):
        assert ldpc._four_cycle_pairs(ldpc_code.var_edge_check).shape == (0, 2)

    def test_rank_repair_gives_up(self, monkeypatch):
        monkeypatch.setattr("semvid.ldpc._gf2_row_reduce", lambda mat: [])
        with pytest.raises(RuntimeError, match="full rank"):
            make_ldpc_code.__wrapped__(72, 3)  # uncached: a cached code would not rebuild

    @pytest.mark.parametrize("k, seed", sorted(pins.CODE_KEYS))
    def test_code_arrays_pinned(self, k, seed):
        pins.check(f"ldpc.code[{k},{seed}]")

    @pytest.mark.parametrize("k, seed", [(18, 0), (20, 1), (36, 0)])
    def test_small_code_whose_duplicate_cleanup_mends_a_row_twice(self, k, seed):
        # one swap of the cleanup pass fixes a row that the pass visits later
        code = make_ldpc_code(k, seed)
        assert np.all(code.parity_check.sum(axis=0) == 3)
        assert np.all(code.parity_check.sum(axis=1) == 6)
        assert _gf2_rank(code.parity_check) == k

    def test_construction_deterministic(self):
        a = make_ldpc_code.__wrapped__(72, 3)
        b = make_ldpc_code.__wrapped__(72, 3)
        assert a is not b
        for name in pins.CODE_FIELDS + ("encode_table", "codeword_order"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_one_shared_read_only_code_per_key(self):
        code = make_ldpc_code(72, 3)
        assert make_ldpc_code(72, 3) is code
        assert make_ldpc_code(72, 4) is not code
        with pytest.raises(TypeError):
            make_ldpc_code(72, seed=3)  # positional only: one cache entry per (k, seed)
        with pytest.raises(FrozenInstanceError):
            code.k = 36
        for name in pins.CODE_FIELDS + ("encode_table", "codeword_order"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(code, name)[0] = 0


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

    @pytest.mark.parametrize("k, seed", sorted(pins.CODE_KEYS) + [(18, 0), (20, 1), (36, 0)])
    @pytest.mark.parametrize("n_blocks", [0, 1, 5])
    def test_matches_dense_gf2_product(self, k, seed, n_blocks):
        # k = 18, 20 and 36 leave a partial last info byte and a partial
        # last parity word
        code = make_ldpc_code(k, seed)
        blocks = np.random.default_rng([k, seed, n_blocks]).integers(0, 2, (n_blocks, k))
        blocks[:1] = 1  # an all-ones block sets every table byte to 255
        parity = (blocks @ code.encode_matrix.T.astype(np.int64)) % 2
        want = np.zeros((n_blocks, code.n), dtype=np.uint8)
        want[:, code.info_positions] = blocks
        want[:, code.parity_positions] = parity
        coded = ldpc_encode(blocks.astype(np.uint8).reshape(-1), code)
        assert coded.dtype == np.uint8
        assert np.array_equal(coded, want.reshape(-1))
        assert not ((want @ code.parity_check.T.astype(np.int64)) % 2).any()

    @pytest.mark.parametrize("info", [np.array([0, 2]), np.array([255, 0], dtype=np.uint8),
                                      np.array([-1, 1]), np.array([0.5, 1.0])])
    def test_rejects_non_binary_info(self, info):
        code = make_ldpc_code(18, 0)
        bits = np.zeros(code.k, dtype=info.dtype)
        bits[3:5] = info
        with pytest.raises(ValueError, match="0 or 1"):
            ldpc_encode(bits, code)

    def test_accepts_bool_and_integer_info(self):
        code = make_ldpc_code(18, 0)
        bits = np.random.default_rng(1).integers(0, 2, code.k)
        want = ldpc_encode(bits.astype(np.uint8), code)
        for info in (bits, bits.astype(bool), bits.astype(np.float64), bits.tolist()):
            coded = ldpc_encode(info, code)
            assert coded.dtype == np.uint8
            assert np.array_equal(coded, want)


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
        received = awgn(sym, -10.0, 1)
        llrs = bpsk_demodulate(received, noise_variance(-10.0))
        _, converged = ldpc_decode(llrs, ldpc_code, max_iters=50)
        assert np.count_nonzero(~converged) >= 9

    def test_moderate_snr_corrects_errors(self, ldpc_code, rng):
        info = rng.integers(0, 2, 512 * 10).astype(np.uint8)
        coded = ldpc_encode(info, ldpc_code)
        sym = bpsk_modulate(coded)
        received = awgn(sym, 5.0, 1)
        hard = (received < 0).astype(np.uint8)
        assert np.count_nonzero(hard != coded) > 0  # channel actually flips bits
        llrs = bpsk_demodulate(received, noise_variance(5.0))
        decoded, converged = ldpc_decode(llrs, ldpc_code)
        assert converged.all()
        assert np.array_equal(decoded, info)


    def test_mixed_batch_pinned(self, ldpc_code, mixed_llrs):
        assert ldpc_decode(mixed_llrs, ldpc_code)[1].tolist() == [False] * 4 + [True] * 4
        pins.check("ldpc.mixed_batch")

    def test_mixed_batch_pinned_without_stall_exit(self):
        pins.check("ldpc.mixed_batch_without_stall_exit")

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


    def test_all_nan_block_refused(self, ldpc_code, mixed_llrs):
        # NaN < 0 is False: the block would decode to zeros and read as converged
        llrs = mixed_llrs.copy()
        llrs[:ldpc_code.n] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ldpc_decode(llrs, ldpc_code)

    def test_one_nan_llr_refused(self, ldpc_code, mixed_llrs):
        llrs = mixed_llrs.copy()
        llrs[-1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ldpc_decode(llrs, ldpc_code)


class TestStallExit:
    """A block that cannot converge leaves BP unconverged: before the first
    iteration when its channel fails the pre-test, from the third when its
    least unsatisfied-check count is above the iteration's ceiling, or once
    STALL_ITERS iterations in a row set no new least count."""

    def test_hopeless_block_leaves_early(self, ldpc_code, mixed_llrs, monkeypatch):
        real = ldpc._exclude_self_products
        calls = [0]

        def counting(t, out):
            calls[0] += 1
            return real(t, out)

        monkeypatch.setattr(ldpc, "_exclude_self_products", counting)
        blocks = mixed_llrs.reshape(-1, ldpc_code.n)
        for b in np.nonzero(np.array(pins.MIXED_SNRS_DB) == -10.0)[0]:
            calls[0] = 0
            info, converged = ldpc_decode(blocks[b], ldpc_code, max_iters=50)
            assert not converged[0]
            # one call per BP iteration: the pre-test runs none, against 49
            # without any early exit
            assert calls[0] == 0, b
            hard = (blocks[b] < 0).astype(np.uint8)[ldpc_code.info_positions]
            assert np.array_equal(info, hard), b

    @pytest.mark.parametrize("on, reference", [
        (("pretest",), ()),
        (("ceiling",), ()),
        # the stall exit gives up a few blocks that converge later (0.75 to
        # 1.5 dB here), so every exit together is held to the stall exit alone
        (("pretest", "ceiling", "stall"), ("stall",)),
    ], ids=["pretest", "ceiling", "every-exit"])
    def test_battery_converges_as_without_the_exits(self, battery_decode, on, reference):
        info, converged, iters = battery_decode(on)
        want_info, want_converged, want_iters = battery_decode(reference)
        assert 0 < want_converged.sum() < want_converged.size
        assert np.array_equal(converged, want_converged)
        assert np.array_equal(info[converged], want_info[converged])
        # the premise: the exits under test do take blocks out of BP
        assert iters < want_iters

    def test_pretest_sums_one_add_at_a_time(self):
        # a block whose float32 chain sum of clipped |LLR| is exactly the
        # threshold total, and one a step below it: each verdict must be its
        # chain sum's, alone and among other blocks
        n = 1024
        d = np.random.default_rng(4).uniform(-1.0, 1.0, n // 2 - 1)
        head = (ldpc.PRETEST_MEAN + np.concatenate([d, -d, [0.0]])).astype(np.float32)
        total = np.float32(0.0)
        for value in head:
            total += value
        edge = np.float32(ldpc.PRETEST_MEAN) * np.float32(n)  # exact: n is a power of two
        last = edge - total
        assert 0 < last < ldpc.PRETEST_CLIP
        rows = np.stack([np.append(head, last), np.append(head, last - np.spacing(edge))])
        assert ldpc._passes_pretest(rows).tolist() == [True, False]
        assert ldpc._passes_pretest(rows[:1]).tolist() == [True]
        assert ldpc._passes_pretest(rows[1:]).tolist() == [False]
        assert ldpc._passes_pretest(np.tile(rows, (5, 1))).tolist() == [True, False] * 5
        # the decoder hands it float64 LLRs of either sign
        assert ldpc._passes_pretest(-rows.astype(np.float64)).tolist() == [True, False]

    def test_converged_blocks_unchanged(self, ldpc_code, split_llrs):
        snrs = np.array(SPLIT_SNRS_DB)
        # the stall exit alone, against no early exit at all
        with pins.exits_off("pretest", "ceiling"):
            info, converged = ldpc_decode(split_llrs, ldpc_code, max_iters=50)
        with pins.exits_off(*pins.EXITS_OFF):
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
    """The iterating blocks are decoded in parts sized for a core's L2
    cache; no split may change a bit."""

    def test_batch_iterates_unevenly(self, ldpc_code, split_llrs):
        # the premise of the tests below: blocks converge at different
        # iterations, and some never do
        counts = [int(ldpc_decode(split_llrs, ldpc_code, max_iters=it)[1].sum())
                  for it in (1, 5, 50)]
        assert counts[0] < counts[1] < counts[2] < len(SPLIT_SNRS_DB)

    def test_part_messages_fit_the_budget(self, ldpc_code):
        # 64 blocks for k = 512; a larger code gets proportionally fewer
        assert ldpc._part_blocks(ldpc_code) == 64
        assert ldpc._part_blocks(make_ldpc_code(1024, 11)) == 32

    def test_result_independent_of_worker_count(self, ldpc_code, split_llrs, monkeypatch):
        # the parts run in the calling thread (below), so only the part size
        # could change a bit, and none does
        results = {}
        for part_blocks in (1, 7, 64, len(SPLIT_SNRS_DB)):
            monkeypatch.setattr(ldpc, "_part_blocks", lambda code, b=part_blocks: b)
            results[part_blocks] = ldpc_decode(split_llrs, ldpc_code)
        info, converged = results[len(SPLIT_SNRS_DB)]
        for key, (other_info, other_converged) in results.items():
            assert np.array_equal(other_info, info), key
            assert np.array_equal(other_converged, converged), key

    def test_parts_run_in_the_calling_thread(self, ldpc_code, split_llrs, monkeypatch):
        # with workers to spare, a decode still starts no thread: the SNR
        # sweep's points are the program's one level of threads
        threads, real = [], ldpc._bp_part

        def recording(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(ldpc, "_part_blocks", lambda code: len(SPLIT_SNRS_DB) // 3)
        monkeypatch.setattr(parallel, "_worker_count", lambda: 4)
        monkeypatch.setattr(ldpc, "_bp_part", recording)
        ldpc_decode(split_llrs, ldpc_code)
        assert threads == [threading.current_thread()] * 3


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
        symbols = bpsk_modulate([0, 1, 0])
        assert symbols.dtype == np.float64
        assert np.array_equal(symbols, [1.0, -1.0, 1.0])

    def test_empty(self):
        assert bpsk_modulate([]).size == 0

    def test_unit_power(self, rng):
        symbols = bpsk_modulate(rng.integers(0, 2, 100))
        assert np.mean(symbols**2) == 1.0

    def test_symbols_read_only(self):
        # every send of a prepared GOP, on any sweep worker, shares them
        symbols = bpsk_modulate([0, 1, 0])
        with pytest.raises(ValueError):
            symbols[0] = 0.0

    def test_round_trip_at_high_snr(self, rng):
        bits = rng.integers(0, 2, 256).astype(np.uint8)
        received = awgn(bpsk_modulate(bits), 30.0, 4)
        hard = (bpsk_demodulate(received, noise_variance(30.0)) < 0).astype(np.uint8)
        assert np.array_equal(hard, bits)

    def test_llr_formula(self):
        assert bpsk_demodulate(np.array([1.0]), 1.0)[0] == pytest.approx(2.0)
        assert bpsk_demodulate(np.array([0.0]), 1.0)[0] == 0.0

    def test_zero_variance_clamps(self):
        llr = bpsk_demodulate(np.array([1.0, -1.0]), 0.0)
        assert np.array_equal(llr, [LLR_MAX, -LLR_MAX])

    @pytest.mark.parametrize("noise_var", [-1.0, np.nan])
    def test_negative_or_nan_variance_refused(self, noise_var):
        with pytest.raises(ValueError, match=">= 0"):
            bpsk_demodulate(np.array([1.0, -1.0]), noise_var)

    def test_magnitude_scales_with_variance(self):
        strong = bpsk_demodulate(np.array([0.5]), 0.1)[0]
        weak = bpsk_demodulate(np.array([0.5]), 1.0)[0]
        assert strong > weak > 0


class TestChannelBits:
    """BPSK, AWGN and the LLRs work in place; each must give exactly the
    bits of the expression it replaced, written out here, and leave its
    input as it was."""

    @pytest.mark.parametrize("snr_db", [-300.0, -10.0, 0.0, 2.5, 25.0, 300.0])
    def test_send_equals_reference_expressions(self, ldpc_code, snr_db):
        bits = np.random.default_rng(5).integers(0, 2, 4 * ldpc_code.n).astype(np.uint8)
        bits_before = bits.copy()
        symbols = bpsk_modulate(bits)
        assert np.array_equal(bits, bits_before)
        assert np.array_equal(symbols, 1.0 - 2.0 * bits.astype(np.float64))

        symbols_before = symbols.copy()
        received = awgn(symbols, snr_db, 9)
        sigma = np.sqrt(noise_variance(snr_db))
        z = np.random.default_rng(9).standard_normal(symbols.size)
        assert np.array_equal(symbols, symbols_before)
        assert np.array_equal(received, symbols + sigma * z)

        for nv in (noise_variance(snr_db), 0.0):
            y = received.copy()  # a copy, so a write to it would show
            llr = bpsk_demodulate(y, nv)
            assert np.array_equal(y, received)
            if nv == 0:
                want = np.clip(np.sign(y) * LLR_MAX, -LLR_MAX, LLR_MAX)
            else:
                want = np.clip(2.0 * y / nv, -LLR_MAX, LLR_MAX)
            assert llr.dtype == want.dtype
            assert np.array_equal(llr, want)
            assert np.array_equal(bpsk_demodulate(received, nv), want)
