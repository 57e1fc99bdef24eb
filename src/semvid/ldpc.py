"""Rate-1/2 regular LDPC code plus BPSK mapping.

Construction: Gallager-style random regular (3, 6) graph from a seeded
shuffle of check slots, followed by duplicate-edge cleanup, 4-cycle removal
and degree-preserving swaps until the parity matrix has full row rank.
Decoding: flooding sum-product belief propagation with early exit,
vectorized across codewords.

The decoder keeps its messages edge-major: a float32 (m, check_degree, b)
array, one row per check slot in check-major edge order, with the b
still-iterating blocks along the contiguous last axis.  Check and variable
gathers are ``np.take`` over rows (``check_neighbors`` for check-side views
of per-variable arrays, ``var_edge_check * check_degree + var_edge_slot``
for the variable-side view of the edges), so each gathered row is one
contiguous copy.  A block leaves the batch as soon as its syndrome clears.

The blocks that fail the initial hard-decision check are split into one
contiguous part per CPU the process may run on; each part runs the same BP
loop (``_bp_part``), the caller's thread taking the first and a shared
thread pool the rest, while numpy releases the interpreter lock inside the
ufuncs and gathers.  The split cannot change a bit: every operation is
elementwise along the block axis or gathers whole rows, nothing reduces
across blocks, so a block's float32 arithmetic is the same whichever blocks
share its batch, and each part writes only its own blocks' rows of the
results.
The GF(2) products of construction and encoding run as float32 BLAS
matmuls, which are exact because no sum exceeds 2**24.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .channel import SymbolBlock

LLR_MAX = 1e6
_TANH_CLIP = 25.0


def _worker_count() -> int:
    """CPUs this process may run on, one BP part each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _new_pool() -> None:
    """Make the pool that runs every BP part but the caller's.  It starts no
    thread until the first split decode.  A forked child inherits the pool
    but none of its threads, so work queued there would never run: the
    child gets a new pool."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=max(1, _worker_count() - 1),
                               thread_name_prefix="ldpc-bp")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


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


@dataclass
class LdpcCode:
    """A (3, 6)-regular rate-1/2 code with precomputed encoder tables."""

    k: int
    n: int
    var_degree: int
    check_degree: int
    seed: int
    parity_check: np.ndarray            # (m, n) uint8, full row rank
    check_neighbors: np.ndarray         # (m, check_degree) variable indices
    var_edge_check: np.ndarray          # (n, var_degree) check index per edge
    var_edge_slot: np.ndarray           # (n, var_degree) slot within the check row
    info_positions: np.ndarray          # (k,) columns carrying info bits
    parity_positions: np.ndarray        # (m,) pivot columns
    encode_matrix: np.ndarray           # (m, k): parity = encode_matrix @ info mod 2

    @property
    def rate(self) -> float:
        return self.k / self.n


def _build_graph(m: int, n: int, var_degree: int, check_degree: int, rng) -> np.ndarray:
    """Random regular bipartite graph as an (n, var_degree) array of check
    indices per variable, with no duplicate edges."""
    pool = np.repeat(np.arange(m), check_degree)
    rng.shuffle(pool)
    cols = pool.reshape(n, var_degree)
    # resolve duplicate checks within a column by swapping with another column
    for _ in range(10_000):
        dup_rows = [i for i in range(n) if len(set(cols[i])) < var_degree]
        if not dup_rows:
            break
        for i in dup_rows:
            vals, counts = np.unique(cols[i], return_counts=True)
            bad = vals[counts > 1][0]
            slot = int(np.nonzero(cols[i] == bad)[0][-1])
            j = int(rng.integers(n))
            s = int(rng.integers(var_degree))
            if j == i:
                continue
            if cols[j, s] in cols[i] or bad in np.delete(cols[j], s):
                continue
            cols[i, slot], cols[j, s] = cols[j, s], cols[i, slot]
    else:
        raise RuntimeError("could not remove duplicate edges")
    return cols


def _remove_short_cycles(cols: np.ndarray, m: int, rng, max_passes: int = 60) -> np.ndarray:
    """Degree-preserving edge swaps until no two variables share two checks
    (girth > 4), best effort within ``max_passes``."""
    n, var_degree = cols.shape
    for _ in range(max_passes):
        # float32 BLAS product: exact, since each count is at most var_degree
        adj = np.zeros((n, m), dtype=np.float32)
        adj[np.arange(n)[:, None], cols] = 1
        overlap = adj @ adj.T
        np.fill_diagonal(overlap, 0)
        pairs = np.argwhere(overlap >= 2)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
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
                oslot = int(rng.integers(var_degree))
                candidate = cols[other, oslot]
                if other in (i, j):
                    continue
                if candidate in cols[i] or bad in np.delete(cols[other], oslot):
                    continue
                cols[i, slot], cols[other, oslot] = candidate, bad
                break
    return cols


def make_ldpc_code(k: int, seed: int, var_degree: int = 3, check_degree: int = 6) -> LdpcCode:
    """Construct a rate-1/2 code with ``k`` info bits per block."""
    if k < var_degree * check_degree:
        raise ValueError("block size too small for the requested degrees")
    m, n = k, 2 * k
    if n * var_degree != m * check_degree:
        raise ValueError("degrees incompatible with rate 1/2")
    rng = np.random.default_rng(seed)
    cols = _build_graph(m, n, var_degree, check_degree, rng)
    cols = _remove_short_cycles(cols, m, rng)

    def to_matrix(c):
        h = np.zeros((m, n), dtype=np.uint8)
        h[c.reshape(-1), np.repeat(np.arange(n), var_degree)] = 1
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
        slot = int(rng.integers(var_degree))
        j = int(rng.integers(n))
        oslot = int(rng.integers(var_degree))
        a, b = cols[i, slot], cols[j, oslot]
        if i == j or a == b or b in cols[i] or a in cols[j]:
            continue
        cols[i, slot], cols[j, oslot] = b, a
        h = to_matrix(cols)
    else:
        raise RuntimeError("could not repair parity matrix to full rank")

    # check-side neighbor table (row degree is exactly check_degree)
    check_neighbors = np.zeros((m, check_degree), dtype=np.int64)
    fill = np.zeros(m, dtype=np.int64)
    var_edge_check = np.zeros((n, var_degree), dtype=np.int64)
    var_edge_slot = np.zeros((n, var_degree), dtype=np.int64)
    for v in range(n):
        for d in range(var_degree):
            c = cols[v, d]
            slot = fill[c]
            check_neighbors[c, slot] = v
            var_edge_check[v, d] = c
            var_edge_slot[v, d] = slot
            fill[c] += 1
    assert np.all(fill == check_degree)

    # systematic encoder: pivot columns carry parity, the rest carry info
    parity_positions = np.array(pivots, dtype=np.int64)
    info_positions = np.setdiff1d(np.arange(n), parity_positions)
    # after full reduction, work[:, pivots] is identity, so parity bits are
    # read straight off the reduced info columns
    encode_matrix = work[:, info_positions].astype(np.uint8)

    return LdpcCode(
        k=k,
        n=n,
        var_degree=var_degree,
        check_degree=check_degree,
        seed=seed,
        parity_check=h,
        check_neighbors=check_neighbors,
        var_edge_check=var_edge_check,
        var_edge_slot=var_edge_slot,
        info_positions=info_positions,
        parity_positions=parity_positions,
        encode_matrix=encode_matrix,
    )


def ldpc_encode(info_bits, code: LdpcCode) -> np.ndarray:
    """Encode info bits (length a multiple of k) into codewords satisfying
    H @ c = 0 (mod 2)."""
    bits = np.asarray(info_bits, dtype=np.uint8).reshape(-1)
    if bits.size % code.k != 0:
        raise ValueError("info length must be a multiple of k (pad first)")
    blocks = bits.reshape(-1, code.k)
    # float32 BLAS product: exact, since each sum is at most k < 2**24
    parity = blocks.astype(np.float32) @ code.encode_matrix.T.astype(np.float32)
    out = np.zeros((blocks.shape[0], code.n), dtype=np.uint8)
    out[:, code.info_positions] = blocks
    out[:, code.parity_positions] = np.fmod(parity, 2.0, out=parity)
    return out.reshape(-1)


def _syndrome_ok(hard: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Per-block parity satisfaction for bit-major hard bits of shape (n, B):
    the XOR of each check's gathered bits must be 0 for every check."""
    parity = np.bitwise_xor.reduce(np.take(hard, code.check_neighbors, axis=0), axis=1)
    return ~parity.any(axis=0)


def _exclude_self_products(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """For each check slot, the product of the other slots' ``t`` (m, dc, b),
    written into ``out``: suffix products first, then each multiplied by the
    running prefix, in the multiplication order of a left-to-right and a
    right-to-left cumulative product."""
    dc = t.shape[1]
    out[:, dc - 2] = t[:, dc - 1]
    for s in range(dc - 3, -1, -1):
        np.multiply(out[:, s + 1], t[:, s + 1], out=out[:, s])
    prefix = t[:, 0].copy()
    for s in range(1, dc - 1):
        out[:, s] *= prefix
        prefix *= t[:, s]
    out[:, dc - 1] = prefix
    return out


def _bp_part(blocks: np.ndarray, idx: np.ndarray, code: LdpcCode, max_iters: int,
             decided: np.ndarray, converged: np.ndarray) -> None:
    """Flooding BP on ``blocks[idx]``, blocks whose hard decision failed its
    syndrome check, for up to ``max_iters - 1`` iterations.  Writes only
    those blocks' rows of ``decided`` and ``converged``; ``idx`` keeps the
    blocks still iterating, one column each."""
    m, dc = code.check_neighbors.shape
    var_edges = code.var_edge_check * dc + code.var_edge_slot  # (n, dv) edge rows
    # message passing runs in float32: plenty for BP and twice as fast; a
    # part casts only its own blocks
    channel = np.ascontiguousarray(blocks[idx].astype(np.float32).T)  # (n, b)
    q = np.take(channel, code.check_neighbors, axis=0)  # (m, dc, b) var->check
    spare = None
    for _ in range(max_iters - 1):
        if spare is None or spare.shape != q.shape:  # first pass, or the batch shrank
            spare = np.empty_like(q)
            r_at_var = np.empty(var_edges.shape + q.shape[2:], dtype=np.float32)
            totals = np.empty_like(channel)
        t = np.divide(q, 2.0, out=spare)
        np.tanh(np.clip(t, -_TANH_CLIP, _TANH_CLIP, out=t), out=t)
        r = _exclude_self_products(t, out=q)  # check->var messages, in q's buffer
        np.arctanh(np.clip(r, -1 + 1e-7, 1 - 1e-7, out=r), out=r)
        r *= 2.0
        # variable updates: total r per variable plus the channel LLR, then
        # each check's message excludes its own r.  The edge indices are in
        # range, so mode="clip" only skips the buffered bounds check.
        np.take(r.reshape(m * dc, -1), var_edges, axis=0, out=r_at_var, mode="clip")
        np.copyto(totals, r_at_var[:, 0])
        for d in range(1, r_at_var.shape[1]):
            totals += r_at_var[:, d]
        totals += channel
        q = np.take(totals, code.check_neighbors, axis=0, out=t, mode="clip")
        q -= r
        spare = r
        hard = totals < 0
        ok = _syndrome_ok(hard, code)
        if ok.any():
            # converged blocks leave the batch with their decisions
            decided[idx[ok]] = hard[:, ok].T
            converged[idx[ok]] = True
            keep = ~ok
            idx, channel, hard = idx[keep], channel[:, keep], hard[:, keep]
            q = np.compress(keep, q, axis=2)
            if idx.size == 0:
                break
    decided[idx] = hard.T


def ldpc_decode(llrs, code: LdpcCode, max_iters: int = 50):
    """Sum-product decode of per-bit LLRs (positive favors bit 0).

    Returns ``(info_bits, converged)`` where ``converged`` flags each block
    whose parity checks were all satisfied.  The initial hard decision counts
    as the first iteration, so noiseless input converges in one.
    """
    llr = np.asarray(llrs, dtype=np.float64).reshape(-1)
    if llr.size % code.n != 0:
        raise ValueError("llr length must be a multiple of n")
    blocks = llr.reshape(-1, code.n)

    decided = (blocks < 0).astype(np.uint8)
    converged = _syndrome_ok(np.ascontiguousarray(decided.T), code)
    idx = np.nonzero(~converged)[0]
    if idx.size > 0 and max_iters >= 2:
        parts = np.array_split(idx, min(_worker_count(), idx.size))
        futures = [_pool.submit(_bp_part, blocks, part, code, max_iters, decided, converged)
                   for part in parts[1:]]
        try:
            _bp_part(blocks, parts[0], code, max_iters, decided, converged)
        finally:
            wait(futures)
        for future in futures:
            future.result()  # re-raises a part's exception

    info = decided[:, code.info_positions].reshape(-1)
    return info, converged


def bpsk_modulate(bits) -> SymbolBlock:
    """Map bit 0 -> +1 and bit 1 -> -1 (unit power by construction)."""
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    return SymbolBlock(1.0 - 2.0 * bits.astype(np.float64))


def bpsk_demodulate(symbols, noise_var: float) -> np.ndarray:
    """Per-symbol LLRs 2*y/sigma^2; a zero-variance channel clamps to
    +/-LLR_MAX."""
    y = symbols.symbols if isinstance(symbols, SymbolBlock) else np.asarray(symbols)
    if noise_var < 0:
        raise ValueError("noise variance must be >= 0")
    if noise_var == 0:
        return np.clip(np.sign(y) * LLR_MAX, -LLR_MAX, LLR_MAX)
    return np.clip(2.0 * y / noise_var, -LLR_MAX, LLR_MAX)
