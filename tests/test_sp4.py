"""Encoded Sp4(F_3) arithmetic against F_3 matrix products written out
here, the determinant of the direct strategy, and the conjugacy-class
sweep."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g3 import sp4
from e8g3.intlinalg import det_bareiss

ELEMENTS = st.integers(0, 51839)
IDENTITY = [[int(r == c) for c in range(4)] for r in range(4)]


@lru_cache(maxsize=None)
def group():
    return sp4.enumerate_sp4()


def _vector(code):
    # code = 27 v0 + 9 v1 + 3 v2 + v3
    return [code // 3 ** (3 - r) % 3 for r in range(4)]


def _matrix(cols):
    """Rows of the matrix whose columns have the given codes."""
    vecs = [_vector(c) for c in cols]
    return [[vecs[c][r] for c in range(4)] for r in range(4)]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) % 3 for j in range(4)]
            for i in range(4)]


@settings(deadline=None, derandomize=True)
@given(i=ELEMENTS, v=st.integers(0, 80))
def test_action_is_matrix_times_vector(i, v):
    g = _matrix(group()[i])
    image = [sum(g[r][k] * x for k, x in enumerate(_vector(v))) % 3
             for r in range(4)]
    assert _vector(sp4._action(group()[i])[v]) == image


@settings(deadline=None, derandomize=True)
@given(i=ELEMENTS, j=ELEMENTS)
def test_conjugation_is_matrix_product(i, j):
    g, x = group()[i], group()[j]
    g_inv = _matrix(sp4._inverse(g))
    assert _mat_mul(_matrix(g), g_inv) == IDENTITY
    expected = _mat_mul(_mat_mul(_matrix(g), _matrix(x)), g_inv)
    assert _matrix(sp4._conjugation(g)(x)) == expected


def test_class_sweep_finds_34_classes():
    classes = sp4.conjugacy_classes(group())
    assert len(classes) == 34
    assert sum(size for _, size in classes) == 51840


@settings(deadline=None, derandomize=True)
@given(cols=st.tuples(*[st.integers(0, 80)] * 4))
def test_det_minus_identity_matches_elimination(cols):
    # any four columns, so singular and non-symplectic M are drawn too
    shifted = [[x - (r == c) for c, x in enumerate(row)]
               for r, row in enumerate(_matrix(cols))]
    det = sp4._det_minus_identity(cols)
    assert det == det_bareiss(shifted) % 3
    assert (det == 0) == sp4._has_eigenvalue_one(cols)


def test_direct_density_shares_no_kernel(monkeypatch):
    # the direct strategy uses neither the elimination kernel nor the
    # action tables of the class strategy
    def refuse(*args):
        raise RuntimeError("used by the direct strategy")

    for name in ("rref_mod", "_action", "_has_eigenvalue_one"):
        monkeypatch.setattr(sp4, name, refuse)
    assert sp4.density_direct(group()) == (51840, 18711)

