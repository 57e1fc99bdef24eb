"""Rate-1/2 regular LDPC code plus BPSK mapping.

Construction: Gallager-style random regular (3, 6) graph from a seeded
shuffle of check slots, followed by duplicate-edge cleanup, 4-cycle removal
and degree-preserving swaps until the parity matrix has full row rank.
Decoding: flooding sum-product belief propagation with early exit,
vectorized across codewords.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SymbolBlock

LLR_MAX = 1e6
_TANH_CLIP = 25.0


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
        adj = np.zeros((n, m), dtype=np.uint8)
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
    parity = (blocks.astype(np.int64) @ code.encode_matrix.T.astype(np.int64)) % 2
    out = np.zeros((blocks.shape[0], code.n), dtype=np.uint8)
    out[:, code.info_positions] = blocks
    out[:, code.parity_positions] = parity.astype(np.uint8)
    return out.reshape(-1)


def _syndrome_ok(hard: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Per-block parity satisfaction for hard bits of shape (B, n)."""
    sums = hard[:, code.check_neighbors].sum(axis=2) % 2
    return ~np.any(sums, axis=1)


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
    n_blocks = blocks.shape[0]

    hard = (blocks < 0).astype(np.uint8)
    converged = _syndrome_ok(hard, code)
    decided = hard.copy()
    active = ~converged

    if np.any(active):
        # message passing runs in float32: plenty for BP and twice as fast
        blocks32 = blocks.astype(np.float32)
        q = blocks32[:, code.check_neighbors]  # (B, m, dc) var->check messages
        for _ in range(max_iters - 1):
            idx = np.nonzero(active)[0]
            t = np.tanh(np.clip(q[idx] / 2.0, -_TANH_CLIP, _TANH_CLIP))
            # exclude-self products via prefix/suffix scans (stable with zeros)
            prefix = np.ones_like(t)
            suffix = np.ones_like(t)
            np.cumprod(t[:, :, :-1], axis=2, out=prefix[:, :, 1:])
            np.cumprod(t[:, :, :0:-1], axis=2, out=suffix[:, :, -2::-1])
            prod_excl = prefix * suffix
            r = 2.0 * np.arctanh(np.clip(prod_excl, -1 + 1e-7, 1 - 1e-7))
            # variable updates: total r per variable, then exclude-self
            r_at_var = r[:, code.var_edge_check, code.var_edge_slot]  # (b, n, dv)
            totals = blocks32[idx] + r_at_var.sum(axis=2)
            q_new = totals[:, code.check_neighbors] - r
            q[idx] = q_new
            hard_act = (totals < 0).astype(np.uint8)
            decided[idx] = hard_act
            ok = _syndrome_ok(hard_act, code)
            converged[idx] |= ok
            active[idx] = ~ok
            if not np.any(active):
                break

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
