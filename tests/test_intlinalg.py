"""F_p elimination kernel, the exact unimodular inverse and the modular
rank certificate over Q(w)."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g3.cyclotomic import Cyc
from e8g3.intlinalg import (det_bareiss, identity, mat_mul, rank, rref,
                            rref_mod, unimodular_inverse)

PRIMES = st.sampled_from([3, 7])


def _entries(p):
    return st.integers(-2 * p, 2 * p)


def _span(rows, p, width):
    """Every F_p combination of the rows, by brute force."""
    return {tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) % p
                  for k in range(width))
            for coeffs in product(range(p), repeat=len(rows))}


@settings(deadline=None, derandomize=True)
@given(p=PRIMES, data=st.data())
def test_rank_is_log_of_row_space_size(p, data):
    width = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(
        st.lists(_entries(p), min_size=width, max_size=width),
        min_size=1, max_size=4))
    red, pivots = rref_mod(rows, width, p)
    span = _span(rows, p, width)
    assert len(span) == p ** len(pivots)
    assert _span(red, p, width) == span
    assert all(0 <= x < p for row in red for x in row)


@settings(deadline=None, derandomize=True)
@given(p=PRIMES, data=st.data())
def test_augmented_identity_reduces_to_inverse(p, data):
    n = data.draw(st.integers(1, 4))
    M = data.draw(st.lists(st.lists(_entries(p), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    red, pivots = rref_mod([row + [int(i == j) for j in range(n)]
                            for i, row in enumerate(M)], 2 * n, p)
    if det_bareiss(M) % p:
        assert pivots == list(range(n))
        assert [row[:n] for row in red] == identity(n)
        inv = [row[n:] for row in red]
        assert [[x % p for x in row] for row in mat_mul(M, inv)] == identity(n)
    else:
        assert len([c for c in pivots if c < n]) < n
        assert len(rref_mod(M, n, p)[1]) < n


def test_unimodular_inverse():
    assert unimodular_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        unimodular_inverse([[1, 2], [2, 4]])


# entries of Q(w) that are often 0 mod (7, w - 2) or not 7-integral, and
# int/Fraction entries, which rank(..., "cyc") accepts as well
_RATIONALS = st.builds(Fraction, st.sampled_from([0, 1, -2, 3, 7, -14]),
                       st.sampled_from([1, 2, 7]))
_ENTRIES = st.one_of(st.builds(Cyc, _RATIONALS, _RATIONALS),
                     st.sampled_from([Cyc(-2, 1), Cyc(7), 0, 7]),
                     _RATIONALS)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(data=st.data())
def test_cyc_rank_is_the_exact_rank(data):
    width = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(
        st.lists(_ENTRIES, min_size=width, max_size=width),
        min_size=1, max_size=4))
    # append combinations of the drawn rows, so that many inputs are
    # rank deficient
    for coeffs in data.draw(st.lists(st.lists(_ENTRIES, min_size=len(rows),
                                              max_size=len(rows)),
                                     max_size=2)):
        rows.append([sum((c * row[k] for c, row in zip(coeffs, rows)),
                         Cyc(0)) for k in range(width)])
    assert rank(rows, width, "cyc") == len(rref(rows, width, "cyc")[1])


@pytest.mark.parametrize("rows, width, expect", [
    # 7 and w - 2 are 0 mod p but nonzero
    ([[Cyc(7)]], 1, 1),
    ([[Cyc(-2, 1)]], 1, 1),
    # full rank, but the determinant 2 - w lies in p
    ([[Cyc(1), Cyc(0, 1)], [Cyc(1), Cyc(2)]], 2, 2),
    # rank deficient: the second row is w times the first
    ([[Cyc(1), Cyc(0, 1)], [Cyc(0, 1), Cyc(-1, -1)]], 2, 1),
    # rank 1 with an entry that is not 7-integral, over Q(w) and over Q
    ([[Cyc(1), Cyc(0, Fraction(1, 7))], [Cyc(0, 7), Cyc(-1, -1)]], 2, 1),
    ([[1, Fraction(1, 7)], [7, 1]], 2, 1),
], ids=["seven", "w_minus_2", "det_in_p", "deficient", "denominator_7",
        "rational_entries"])
def test_cyc_rank_falls_back_to_exact_elimination(rows, width, expect):
    assert rank(rows, width, "cyc") == expect
