import numpy as np
import pytest

from semvid.bitio import exp_golomb, index_list_bits


def _codeword(value):
    code, length = exp_golomb([value])
    return format(int(code[0]), f"0{int(length[0])}b")


@pytest.mark.parametrize("value, word", [
    (0, "1"), (1, "010"), (2, "011"), (3, "00100"), (7, "0001000"),
])
def test_textbook_codewords(value, word):
    assert _codeword(value) == word


def test_rejects_negative():
    with pytest.raises(ValueError):
        exp_golomb([3, -1])


def test_lengths_follow_bit_length():
    values = np.arange(5000)
    _, length = exp_golomb(values)
    assert length.tolist() == [2 * (v + 1).bit_length() - 1 for v in range(5000)]


def test_index_list_bits_matches_scalar_reference():
    def reference(indices):  # count, then gaps, each written out bit by bit
        bits = ""
        for value in [len(indices)] + [i - p for p, i in zip([0] + indices, indices)]:
            binary = bin(value + 1)[2:]
            bits += "0" * (len(binary) - 1) + binary
        return len(bits)

    rng = np.random.default_rng(4)
    assert index_list_bits(np.array([], dtype=np.int64)) == reference([]) == 1
    for size in (1, 2, 7, 60, 400):
        indices = np.sort(rng.choice(5000, size=size, replace=False))
        assert index_list_bits(indices) == reference(sorted(indices.tolist()))
