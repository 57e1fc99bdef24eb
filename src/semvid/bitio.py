"""Order-0 Exp-Golomb codes, the canonical prefix code for non-negative
integers shared by the entropy coders."""

from __future__ import annotations

import numpy as np


def exp_golomb(values) -> tuple:
    """Codewords of non-negative integers as ``(code, length)`` int64 arrays.
    Value v is written as w - 1 zeros followed by the w-bit binary form of
    v + 1, so the codeword read as an integer is v + 1 and its length is
    2w - 1."""
    code = np.asarray(values, dtype=np.int64) + 1
    if np.any(code < 1):
        raise ValueError("exp-golomb encodes non-negative integers")
    width = np.frexp(code)[1].astype(np.int64)  # bit length of v + 1
    return code, 2 * width - 1


def index_list_bits(indices: np.ndarray) -> int:
    """Bit cost of delta-Exp-Golomb coding a sorted index list (the scheme
    used for kept-element masks): the count, then each gap from the
    previous index (the first from 0)."""
    deltas = np.diff(np.sort(indices.astype(np.int64)), prepend=0)
    return int(exp_golomb(np.append(deltas, indices.size))[1].sum())
