"""Rate-1/2 regular LDPC code plus BPSK mapping.

Construction: Gallager-style random regular (``VAR_DEGREE``,
``CHECK_DEGREE``) = (3, 6) graph from a seeded shuffle of check slots,
followed by duplicate-edge cleanup, 4-cycle removal and degree-preserving
swaps until the parity matrix has full row rank.  The degrees are fixed, so
every code has rate 1/2 and each check has full degree; only the block
size ``k`` and the seed vary.
Decoding: flooding sum-product belief propagation, vectorized across
codewords, with early exit both for blocks that converge and for blocks
that cannot.

The decoder keeps its messages slot-major: a float32 (CHECK_DEGREE, m, b)
array, one (m, b) slab per check slot, with the b still-iterating blocks
along the contiguous last axis, so each slot's slab in
``_exclude_self_products`` is one contiguous array.  Check and variable
gathers are ``np.take`` over rows (``check_neighbors.T`` for check-side
views of per-variable arrays, ``var_edge_slot * m + var_edge_check`` for
the variable-side view of the edges), so each gathered row is one
contiguous copy.  The syndrome is counted on hard decisions packed eight
blocks to a byte.  A block leaves the batch as soon as its syndrome clears.
Three stopping rules of the kind surveyed by Kienle and Wehn (VTC
2005-Spring) take out, unconverged with their hard decisions, blocks that
cannot converge:

- the channel pre-test, before the first iteration: a block whose mean of
  min(|LLR|, ``PRETEST_CLIP``) over its n channel LLRs is below
  ``PRETEST_MEAN`` runs no iteration.  It judges from the channel alone
  whether a block can decode, as ten Brink's EXIT charts (IEEE Trans.
  Commun. 2001) do with a mutual-information estimate; the clipped mean
  needs no ``exp`` or ``log``, whose bits vary with SIMD dispatch, and is
  summed one float32 add at a time;
- the count ceiling, from the third iteration on: a block whose least count
  of unsatisfied checks is above the iteration's ``COUNT_CEILINGS`` leaves;
- the stall exit: a block leaves once ``STALL_ITERS`` iterations in a row
  have not lowered that least count.

Far below the code threshold no block converges, and an unconverged block's
bits are concealed downstream anyway.  The pre-test and the ceiling gave up
no block that converges without them on the battery a test decodes (-2 to
3 dB); near the threshold (1-2 dB) the stall exit gives up a few blocks that
would have converged later.

The blocks that fail the initial hard-decision check and pass the pre-test
are split into parts of at most ``PART_BYTES`` of messages per array (64
blocks for k = 512), so that a part's messages stay in a core's L2 cache:
BP's time goes to memory traffic more than to ``tanh``, and one part per
CPU (about 500 blocks, 6 MB of messages per array) did not fit.  The parts
(``_bp_part``) are decoded one after another in the calling thread: the SNR
sweep, which runs each point on its own worker, is the program's one level
of threads.  The split cannot change a bit: every operation is elementwise
along the block axis or gathers whole rows, the packed syndrome XORs bit by
bit, and nothing reduces across blocks, so a block's float32 arithmetic is
the same whichever blocks share its part, and each part writes only its own
blocks' rows of the results.
Construction finds 4-cycles from the check lists and runs once per (k, seed)
in a process: ``make_ldpc_code`` is memoized and returns a read-only code.
Encoding is a GF(2) product by table lookup, the "Four Russians" method
(Arlazarov, Dinic, Kronrod and Faradzev, Soviet Math. Dokl. 1970): for each
info byte the code holds the XOR of its eight ``encode_matrix`` columns for
all 256 byte values, packed into uint64 words, so a block's parity is one
gather and one XOR reduction over its ceil(k / 8) info bytes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

# every code is (3, 6)-regular: rate 1/2 with each check of full degree
VAR_DEGREE = 3
CHECK_DEGREE = 6
LLR_MAX = 1e6
# a block leaves BP unconverged once this many iterations in a row have not
# lowered its least unsatisfied-check count
STALL_ITERS = 8
# a block whose mean of min(|LLR|, PRETEST_CLIP) over its channel LLRs, in
# float32, is below PRETEST_MEAN runs no BP iteration: of 120,000 random
# blocks at -2 to 4 dB, the lowest mean of one that converged was 2.194
PRETEST_CLIP = 4.0
PRETEST_MEAN = 2.18
# from the third BP iteration on, a block whose least unsatisfied-check count
# is above COUNT_CEILINGS[i] per 512 checks at iteration 3 + i (the last entry
# at every later iteration) leaves BP unconverged
COUNT_CEILINGS = (128, 115, 110, 100, 96)
CYCLE_PASSES = 60  # 4-cycle removal is best effort within this many swap passes
# BP decodes the iterating blocks in parts whose float32 (CHECK_DEGREE, m, b)
# message array takes at most this many bytes, so a part's arrays stay in a
# core's L2 cache: 64 blocks for k = 512
PART_BYTES = 768 * 1024


def _part_blocks(code: LdpcCode) -> int:
    """Blocks per BP part for ``code``: one float32 message per edge and block."""
    return max(1, PART_BYTES // (code.check_neighbors.size * 4))


def _gf2_row_reduce(mat: np.ndarray):
    """In-place GF(2) elimination; returns pivot column per pivot row."""
    m, n = mat.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        hits = np.nonzero(mat[row:, col])[0]
        if hits.size == 0:
            continue
        pivot = row + hits[0]
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
        others = np.nonzero(mat[:, col])[0]
        others = others[others != row]
        mat[others] ^= mat[row]
        pivots.append(col)
        row += 1
    return pivots


@dataclass(frozen=True, eq=False)
class LdpcCode:
    """A (3, 6)-regular rate-1/2 code with precomputed encoder tables.  Its
    arrays are read-only: one code per (k, seed) is shared by every caller."""

    k: int
    n: int
    parity_check: np.ndarray            # (m, n) uint8, full row rank
    check_neighbors: np.ndarray         # (m, CHECK_DEGREE) variable indices
    var_edge_check: np.ndarray          # (n, VAR_DEGREE) check index per edge
    var_edge_slot: np.ndarray           # (n, VAR_DEGREE) slot within the check row
    info_positions: np.ndarray          # (k,) columns carrying info bits
    parity_positions: np.ndarray        # (m,) pivot columns
    encode_matrix: np.ndarray           # (m, k): parity = encode_matrix @ info mod 2
    encode_table: np.ndarray            # (ceil(k/8) * 256, ceil(m/64)) uint64, see _encode_table
    codeword_order: np.ndarray          # (n,) column of [info | parity] at each codeword bit

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def _build_graph(m: int, n: int, rng) -> np.ndarray:
    """Random regular bipartite graph as an (n, VAR_DEGREE) array of check
    indices per variable, with no duplicate edges."""
    pool = np.repeat(np.arange(m), CHECK_DEGREE)
    rng.shuffle(pool)
    cols = pool.reshape(n, VAR_DEGREE)
    # resolve duplicate checks within a column by swapping with another column
    for _ in range(10_000):
        dup_rows = [i for i in range(n) if len(set(cols[i])) < VAR_DEGREE]
        if not dup_rows:
            break
        for i in dup_rows:
            vals, counts = np.unique(cols[i], return_counts=True)
            if counts.max() == 1:
                continue  # a swap earlier in this pass mended the row
            bad = vals[counts > 1][0]
            slot = int(np.nonzero(cols[i] == bad)[0][-1])
            j = int(rng.integers(n))
            s = int(rng.integers(VAR_DEGREE))
            if j == i:
                continue
            if cols[j, s] in cols[i] or bad in np.delete(cols[j], s):
                continue
            cols[i, slot], cols[j, s] = cols[j, s], cols[i, slot]
    else:
        raise RuntimeError("could not remove duplicate edges")
    return cols


def _check_edges(cols: np.ndarray) -> np.ndarray:
    """Edge ids ``v * VAR_DEGREE + d`` grouped by check, in ascending order
    within each check: an (m, CHECK_DEGREE) array."""
    return np.argsort(cols.reshape(-1), kind="stable").reshape(-1, CHECK_DEGREE)


def _four_cycle_pairs(cols: np.ndarray) -> np.ndarray:
    """Variable pairs (i, j), i < j, that share two or more checks, as a
    (p, 2) array in lexicographic order: each check's member pairs, counted."""
    n = cols.shape[0]
    members = _check_edges(cols) // VAR_DEGREE  # ascending and distinct per check
    first, second = np.triu_indices(CHECK_DEGREE, 1)
    keys, counts = np.unique(members[:, first] * n + members[:, second], return_counts=True)
    return np.stack(np.divmod(keys[counts >= 2], n), axis=1)


def _remove_short_cycles(cols: np.ndarray, rng) -> np.ndarray:
    """Degree-preserving edge swaps until no two variables share two checks
    (girth > 4), best effort within ``CYCLE_PASSES``."""
    n = cols.shape[0]
    for _ in range(CYCLE_PASSES):
        pairs = _four_cycle_pairs(cols)
        if pairs.size == 0:
            return cols
        for i, j in pairs[: max(1, len(pairs) // 2)]:
            shared = np.intersect1d(cols[i], cols[j])
            if shared.size < 2:
                continue
            bad = shared[0]
            slot = int(np.nonzero(cols[i] == bad)[0][0])
            for _ in range(50):
                other = int(rng.integers(n))
                oslot = int(rng.integers(VAR_DEGREE))
                candidate = cols[other, oslot]
                if other in (i, j):
                    continue
                if candidate in cols[i] or bad in np.delete(cols[other], oslot):
                    continue
                cols[i, slot], cols[other, oslot] = candidate, bad
                break
    return cols


def _encode_table(encode_matrix: np.ndarray) -> np.ndarray:
    """Four Russians table for ``encode_matrix`` (m, k): row ``256 * j + v``
    is the XOR of the columns ``8 j .. 8 j + 7`` whose bits are set in the
    byte value ``v`` (most significant bit first, as ``np.packbits`` packs),
    held as the packed parity bits in ceil(m / 64) uint64 words.  Columns
    past k are zero, so a partial last byte needs no mask."""
    m, k = encode_matrix.shape
    k_bytes, words = -(-k // 8), -(-m // 64)
    columns = np.zeros((8 * k_bytes, 8 * words), dtype=np.uint8)
    columns[:k, : -(-m // 8)] = np.packbits(encode_matrix.T, axis=1)
    columns = columns.view(np.uint64).reshape(k_bytes, 8, words)
    table = np.zeros((k_bytes, 256, words), dtype=np.uint64)
    for bit in range(8):  # values with bit ``bit`` set add column 7 - bit of their byte
        low = 1 << bit
        np.bitwise_xor(table[:, :low], columns[:, 7 - bit, None], out=table[:, low:2 * low])
    return table.reshape(256 * k_bytes, words)


@functools.cache
def make_ldpc_code(k: int, seed: int, /) -> LdpcCode:
    """Construct a rate-1/2 code with ``k`` info bits per block.  Memoized
    on ``(k, seed)``, positional so that each pair is one cache entry: every
    call with the same pair returns the same read-only code."""
    if k < VAR_DEGREE * CHECK_DEGREE:
        raise ValueError(f"block size k must be >= {VAR_DEGREE * CHECK_DEGREE}")
    m, n = k, 2 * k
    rng = np.random.default_rng(seed)
    cols = _build_graph(m, n, rng)
    cols = _remove_short_cycles(cols, rng)

    def to_matrix(c):
        h = np.zeros((m, n), dtype=np.uint8)
        h[c.reshape(-1), np.repeat(np.arange(n), VAR_DEGREE)] = 1
        return h

    h = to_matrix(cols)
    # rank repair: swap edges between rows until full row rank; the
    # elimination that finds it is kept for the encoder below
    for _ in range(200):
        work = h.copy()
        pivots = _gf2_row_reduce(work)
        if len(pivots) == m:
            break
        i = int(rng.integers(n))
        slot = int(rng.integers(VAR_DEGREE))
        j = int(rng.integers(n))
        oslot = int(rng.integers(VAR_DEGREE))
        a, b = cols[i, slot], cols[j, oslot]
        if i == j or a == b or b in cols[i] or a in cols[j]:
            continue
        cols[i, slot], cols[j, oslot] = b, a
        h = to_matrix(cols)
    else:
        raise RuntimeError("could not repair parity matrix to full rank")

    # check-side neighbor table (row degree is exactly CHECK_DEGREE)
    edges = _check_edges(cols)

    # systematic encoder: pivot columns carry parity, the rest carry info
    parity_positions = np.array(pivots, dtype=np.int64)
    info_positions = np.setdiff1d(np.arange(n), parity_positions)
    # after full reduction, work[:, pivots] is identity, so parity bits are
    # read straight off the reduced info columns
    encode_matrix = work[:, info_positions].astype(np.uint8)

    return LdpcCode(
        k=k,
        n=n,
        parity_check=h,
        check_neighbors=edges // VAR_DEGREE,
        var_edge_check=cols,
        var_edge_slot=(np.argsort(edges, axis=None) % CHECK_DEGREE).reshape(n, VAR_DEGREE),
        info_positions=info_positions,
        parity_positions=parity_positions,
        encode_matrix=encode_matrix,
        encode_table=_encode_table(encode_matrix),
        codeword_order=np.argsort(np.concatenate([info_positions, parity_positions])),
    )


def ldpc_encode(info_bits, code: LdpcCode) -> np.ndarray:
    """Encode info bits (0 or 1, length a multiple of k) into codewords
    satisfying H @ c = 0 (mod 2)."""
    bits = np.asarray(info_bits).reshape(-1)
    if bits.size % code.k != 0:
        raise ValueError("info length must be a multiple of k (pad first)")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("info bits must be 0 or 1")
    blocks = bits.astype(np.uint8, copy=False).reshape(-1, code.k)
    packed = np.packbits(blocks, axis=1).T  # (ceil(k / 8), b) info bytes
    rows = packed + 256 * np.arange(packed.shape[0])[:, None]  # each byte's encode_table row
    # byte-major gather, so the XOR reduction runs over whole (b, words) slabs
    words = np.bitwise_xor.reduce(np.take(code.encode_table, rows, axis=0), axis=0)
    parity = np.unpackbits(words.view(np.uint8), axis=1, count=code.n - code.k)
    joined = np.concatenate([blocks, parity], axis=1)
    return np.take(joined, code.codeword_order, axis=1).reshape(-1)


def _unsatisfied_checks(hard: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Per-block count of unsatisfied parity checks for bit-major hard bits
    of shape (n, B): a check is unsatisfied when the XOR of its gathered
    bits is 1.  A block's syndrome clears when its count is 0.  The bits are
    packed eight blocks to a byte along the block axis, so each gather and
    XOR moves an eighth of the bytes."""
    packed = np.packbits(hard, axis=1)  # (n, ceil(B / 8))
    parity = np.bitwise_xor.reduce(np.take(packed, code.check_neighbors.T, axis=0), axis=0)
    return np.unpackbits(parity, axis=1, count=hard.shape[1]).sum(axis=0, dtype=np.int32)


def _exclude_self_products(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """For each check slot, the product of the other slots' ``t`` (dc, m, b),
    written into ``out``: suffix products first, then each multiplied by the
    running prefix, in the multiplication order of a left-to-right and a
    right-to-left cumulative product."""
    dc = t.shape[0]
    out[dc - 2] = t[dc - 1]
    for s in range(dc - 3, -1, -1):
        np.multiply(out[s + 1], t[s + 1], out=out[s])
    prefix = t[0].copy()
    for s in range(1, dc - 1):
        out[s] *= prefix
        prefix *= t[s]
    out[dc - 1] = prefix
    return out


def _passes_pretest(rows: np.ndarray) -> np.ndarray:
    """Per block of the (b, n) channel LLRs: is the mean of min(|LLR|,
    PRETEST_CLIP), in float32, at least PRETEST_MEAN?  The sum is
    ``np.add.accumulate`` along the block, one float32 add at a time, so a
    block's verdict is the same in any batch and at any SIMD width: ``sum``
    adds pairwise when it reduces along the contiguous axis."""
    clipped = np.minimum(np.abs(rows, dtype=np.float32), np.float32(PRETEST_CLIP))
    total = np.add.accumulate(clipped, axis=1, out=clipped)[:, -1]
    return total / np.float32(rows.shape[1]) >= PRETEST_MEAN


def _bp_part(blocks: np.ndarray, idx: np.ndarray, code: LdpcCode, max_iters: int,
             decided: np.ndarray, converged: np.ndarray, unsatisfied: np.ndarray) -> None:
    """Flooding BP on ``blocks[idx]``, blocks whose hard decision failed its
    syndrome check and whose channel passed the pre-test, for up to
    ``max_iters - 1`` iterations.  A block leaves when its syndrome clears,
    when its least count is above the iteration's ceiling
    (``COUNT_CEILINGS``) or when it stalls (``STALL_ITERS``), its least
    count starting at the hard decision's ``unsatisfied``.  Writes only
    those blocks' rows of ``decided`` and ``converged``; ``idx`` keeps the
    blocks still iterating, one column each."""
    m, dc = code.check_neighbors.shape
    check_rows = code.check_neighbors.T  # (dc, m) variable per check slot
    var_edges = (code.var_edge_slot * m + code.var_edge_check).T  # (dv, n) edge rows
    # message passing runs in float32: plenty for BP and twice as fast; a
    # part casts only its own blocks
    channel = np.ascontiguousarray(blocks[idx].astype(np.float32).T)  # (n, b)
    ceilings = [m] * 2 + [c * m / 512 for c in COUNT_CEILINGS]
    q = np.take(channel, check_rows, axis=0)  # (dc, m, b) var->check
    least = unsatisfied[idx]
    stalled_for = np.zeros(idx.size, dtype=np.int64)
    spare = None
    for it in range(max_iters - 1):
        if spare is None or spare.shape != q.shape:  # first pass, or the batch shrank
            spare = np.empty_like(q)
            r_at_var = np.empty(var_edges.shape + q.shape[2:], dtype=np.float32)
            totals = np.empty_like(channel)
        # float32 tanh is exactly +-1 from |x| = 25 on, so no clip is needed
        t = np.tanh(np.multiply(q, 0.5, out=spare), out=spare)
        r = _exclude_self_products(t, out=q)  # check->var messages, in q's buffer
        np.arctanh(np.clip(r, -1 + 1e-7, 1 - 1e-7, out=r), out=r)
        r *= 2.0
        # variable updates: total r per variable plus the channel LLR, then
        # each check's message excludes its own r.  The edge indices are in
        # range, so mode="clip" only skips the buffered bounds check.
        np.take(r.reshape(dc * m, -1), var_edges, axis=0, out=r_at_var, mode="clip")
        np.copyto(totals, r_at_var[0])
        for d in range(1, r_at_var.shape[0]):
            totals += r_at_var[d]
        totals += channel
        q = np.take(totals, check_rows, axis=0, out=t, mode="clip")
        q -= r
        spare = r
        hard = totals < 0
        count = _unsatisfied_checks(hard, code)
        stalled_for = np.where(count < least, 0, stalled_for + 1)
        np.minimum(least, count, out=least)
        ok = count == 0
        leave = ok | (stalled_for >= STALL_ITERS) | (least > ceilings[min(it, len(ceilings) - 1)])
        if leave.any():
            # converged, hopeless and stalled blocks leave the batch with their decisions
            decided[idx[leave]] = hard[:, leave].T
            converged[idx[ok]] = True
            keep = ~leave
            idx, channel, hard = idx[keep], channel[:, keep], hard[:, keep]
            least, stalled_for = least[keep], stalled_for[keep]
            q = np.compress(keep, q, axis=2)
            if idx.size == 0:
                break
    decided[idx] = hard.T


def ldpc_decode(llrs, code: LdpcCode, max_iters: int = 50):
    """Sum-product decode of per-bit LLRs (positive favors bit 0).

    Returns ``(info_bits, converged)`` where ``converged`` flags each block
    whose parity checks were all satisfied.  The initial hard decision counts
    as the first iteration, so noiseless input converges in one.  A block
    that fails the channel pre-test (``PRETEST_MEAN``) returns its hard
    decision, and one whose count stays above a ceiling
    (``COUNT_CEILINGS``) or stalls (``STALL_ITERS``) its last hard
    decision, unconverged.
    """
    llr = np.asarray(llrs, dtype=np.float64).reshape(-1)
    if llr.size % code.n != 0:
        raise ValueError("llr length must be a multiple of n")
    if np.isnan(llr).any():  # NaN < 0 is False: a NaN block would read as converged zeros
        raise ValueError("llrs must not be NaN")
    blocks = llr.reshape(-1, code.n)

    decided = (blocks < 0).astype(np.uint8)
    unsatisfied = _unsatisfied_checks(np.ascontiguousarray(decided.T), code)
    converged = unsatisfied == 0
    idx = np.nonzero(~converged)[0]
    if idx.size > 0 and max_iters >= 2:
        size = _part_blocks(code)
        # the pre-test takes a part's worth of blocks at a time, so its copies
        # stay small, and BP's parts are filled with blocks that passed it
        hopeful = [_passes_pretest(blocks[idx[i:i + size]]) for i in range(0, idx.size, size)]
        idx = idx[np.concatenate(hopeful)]
        for i in range(0, idx.size, size):
            _bp_part(blocks, idx[i:i + size], code, max_iters, decided, converged, unsatisfied)

    info = decided[:, code.info_positions].reshape(-1)
    return info, converged


def bpsk_modulate(bits) -> np.ndarray:
    """Map bit 0 -> +1 and bit 1 -> -1 (unit power by construction); the
    symbols are read-only, since every send of a prepared GOP shares them."""
    symbols = np.asarray(bits, dtype=np.uint8).reshape(-1) * -2.0
    symbols += 1.0
    symbols.setflags(write=False)
    return symbols


def bpsk_demodulate(symbols, noise_var: float) -> np.ndarray:
    """Per-symbol LLRs 2*y/sigma^2; a zero-variance channel clamps to
    +/-LLR_MAX."""
    y = np.asarray(symbols)
    if not noise_var >= 0:  # NaN too
        raise ValueError("noise variance must be >= 0")
    if noise_var == 0:
        return np.clip(np.sign(y) * LLR_MAX, -LLR_MAX, LLR_MAX)
    llr = y * 2.0
    llr /= noise_var
    return np.clip(llr, -LLR_MAX, LLR_MAX, out=llr)
