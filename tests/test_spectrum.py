from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polypart import spectrum
from polypart.cells import CellCounts, index_w
from polypart.spectrum import (
    Spectrum,
    is_equidistributed,
    lemma_identity_check,
    spectral_power,
    wht,
    wht_table,
)


def wht_naive(table):
    """Direct signed-summation oracle for the transform."""
    size = len(table)
    s = size.bit_length() - 1
    out = np.zeros(size, dtype=np.int64)
    for v in range(size):
        for w in range(size):
            sign = -1 if bin(v & w).count("1") % 2 else 1
            out[v] += sign * table[w]
    return out


def test_wht_example():
    cc = CellCounts(2, np.array([2, 1, 1, 0]))
    spec = wht(cc)
    assert spec[(1, 0)] == 2
    assert spec[(0, 1)] == 2
    assert spec[(1, 1)] == 0
    assert spec[(0, 0)] == 4  # total


def test_wht_constant_counts():
    cc = CellCounts(2, np.array([3, 3, 3, 3]))
    spec = wht(cc)
    assert spec[(0, 0)] == 12
    assert np.all(spec.values[1:] == 0)


def test_wht_single_cell():
    cc = CellCounts(3, np.array([1, 0, 0, 0, 0, 0, 0, 0]))
    spec = wht(cc)
    assert np.all(spec.values == 1)


def test_wht_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for s in range(1, 11):
        table = rng.integers(0, 50, size=2**s)
        assert np.array_equal(wht_table(table), wht_naive(table))


def test_wht_involution_exact():
    rng = np.random.default_rng(1)
    for s in range(1, 11):
        table = rng.integers(0, 1000, size=2**s).astype(np.int64)
        twice = wht_table(wht_table(table))
        assert np.array_equal(twice, (2**s) * table)


@settings(max_examples=50)
@given(
    st.integers(1, 8).flatmap(
        lambda s: st.lists(st.integers(0, 10**6), min_size=2**s, max_size=2**s)
    )
)
def test_wht_involution_property(entries):
    table = np.array(entries, dtype=np.int64)
    s = len(table).bit_length() - 1
    assert np.array_equal(wht_table(wht_table(table)), (2**s) * table)


def test_is_equidistributed_examples():
    assert is_equidistributed(CellCounts(2, np.array([3, 3, 3, 3])))
    assert not is_equidistributed(CellCounts(2, np.array([2, 1, 1, 0])))
    assert is_equidistributed(CellCounts(1, np.array([5, 5])))


def test_is_equidistributed_iff_constant():
    rng = np.random.default_rng(2)
    for s in range(1, 5):
        for _ in range(200):
            table = rng.integers(0, 4, size=2**s)
            assert is_equidistributed(CellCounts(s, table)) == bool(
                np.all(table == table[0])
            )
        const = np.full(2**s, int(rng.integers(0, 9)))
        assert is_equidistributed(CellCounts(s, const))


def test_lemma_identity_example():
    cc = CellCounts(2, np.array([2, 1, 1, 0]))
    lhs, rhs = lemma_identity_check(cc, (1, 0))
    assert (lhs, rhs) == (2, 2)


def test_lemma_identity_constant():
    cc = CellCounts(3, np.full(8, 4))
    for u in range(1, 8):
        lhs, rhs = lemma_identity_check(cc, index_w(u, 3))
        assert (lhs, rhs) == (0, 0)


def test_lemma_identity_random_tables():
    rng = np.random.default_rng(3)
    for s in range(1, 11):
        for _ in range(100):
            table = rng.integers(0, 100, size=2**s)
            cc = CellCounts(s, table)
            u = index_w(int(rng.integers(1, 2**s)), s)
            lhs, rhs = lemma_identity_check(cc, u)
            assert lhs == rhs


def test_lemma_identity_rejects_zero():
    cc = CellCounts(2, np.array([1, 2, 3, 4]))
    with pytest.raises(ValueError):
        lemma_identity_check(cc, (0, 0))


def test_flip_equivariance_bridge():
    # flipping coordinate j permutes counts by w -> w + e_j and flips the
    # sign of every balance value whose frequency has bit j set
    rng = np.random.default_rng(4)
    for s in range(1, 5):
        table = rng.integers(0, 30, size=2**s)
        base = wht_table(table)
        for j in range(s):
            perm = np.arange(2**s) ^ (1 << j)
            flipped = wht_table(table[perm])
            for v in range(2**s):
                sign = -1 if (v >> j) & 1 else 1
                assert flipped[v] == sign * base[v]


def test_spectral_power():
    assert spectral_power(np.array([2, 1, 1, 0])) == 8.0
    assert spectral_power(np.array([5, 5, 5, 5])) == 0.0


@settings(max_examples=150)
@given(st.integers(1, 12), st.data())
def test_spectral_power_of_an_integer_table_is_parseval(s, data):
    # entries up to 2^((52 - 3s) // 2) keep the transform's squared sum within 2^52
    bound = 2 ** ((52 - 3 * s) // 2)
    table = np.array(
        data.draw(st.lists(st.integers(-bound, bound), min_size=2**s, max_size=2**s)),
        dtype=np.int64,
    )
    want = float(np.sum(wht_table(table)[1:].astype(float) ** 2))
    with mock.patch.object(spectrum, "wht_table", wraps=wht_table) as transform:
        got = spectral_power(table)
        assert got.hex() == want.hex() and transform.call_count == 0
        floats = table * 0.37
        got = spectral_power(floats)  # a float table keeps the transform
        assert transform.call_count == 1
    assert got == float(np.sum(wht_table(floats)[1:] ** 2))
