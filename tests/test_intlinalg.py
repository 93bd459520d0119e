"""F_p elimination kernel and the exact unimodular inverse."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g3.intlinalg import (det_bareiss, identity, mat_mul, rref_mod,
                            unimodular_inverse)

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
