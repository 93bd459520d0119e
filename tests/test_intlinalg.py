"""Exact elimination over Q and Q(w), the field read from the entries, and
over F_p on mostly-zero matrices, the exact unimodular inverse and the
modular rank certificate over Q(w)."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g3 import intlinalg
from e8g3.intlinalg import (det_bareiss, identity, mat_mul, mat_sub,
                            nullspace, power, rank, reduce_mod_p7, rref,
                            rref_mod, smith_normal_form, solve,
                            unimodular_inverse)
from e8g3.rootsys import build_root_system

import qw_oracle as oracle
from det_oracle import det_laplace
from qw_oracle import Cyc, cyc

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


def _elementary(data, n):
    """A random n x n elementary integer matrix: a row added k times to
    another, two rows swapped, or a row negated."""
    m = identity(n)
    kind = data.draw(st.sampled_from(["add", "swap", "negate"]))
    i = data.draw(st.integers(0, n - 1))
    if kind == "negate" or n == 1:
        m[i][i] = -1
        return m
    j = data.draw(st.integers(0, n - 2))
    j += j >= i
    if kind == "add":
        m[i][j] = data.draw(st.integers(-3, 3))
    else:
        m[i], m[j] = m[j], m[i]
    return m


@settings(deadline=None, derandomize=True, max_examples=150)
@given(data=st.data())
def test_unimodular_inverse_of_elementary_products(data):
    # a product of elementary matrices is unimodular (det +-1); its inverse
    # read off the Smith form is an int inverse and is the right half of
    # the reduced [M | I] over Q
    n = data.draw(st.integers(1, 6))
    M = identity(n)
    for _ in range(data.draw(st.integers(0, 12))):
        M = mat_mul(_elementary(data, n), M)
    inv = unimodular_inverse(M)
    assert all(type(x) is int for row in inv for x in row)
    assert mat_mul(M, inv) == identity(n)
    red, pivots = rref([[Fraction(x) for x in row]
                        + [Fraction(int(i == j)) for j in range(n)]
                        for i, row in enumerate(M)], 2 * n)
    assert pivots == list(range(n))
    assert [row[n:] for row in red] == inv
    # scaling one row by 2, or making it a copy of another, gives det +-2
    # or det 0: no integral inverse
    i = data.draw(st.integers(0, n - 1))
    doubled = [[2 * x for x in row] if r == i else row
               for r, row in enumerate(M)]
    assert det_bareiss(doubled) in (2, -2)
    with pytest.raises(ValueError):
        unimodular_inverse(doubled)
    if n > 1:
        singular = [M[(i + 1) % n] if r == i else row
                    for r, row in enumerate(M)]
        assert det_bareiss(singular) == 0
        with pytest.raises(ValueError):
            unimodular_inverse(singular)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(data=st.data())
def test_bareiss_matches_laplace_through_a_zero_pivot(data):
    # a singular leading (k+1) x (k+1) block forces a zero pivot by step k,
    # and a row swap; a column k that is a multiple of an earlier one (or
    # 0) leaves no pivot in that column, and elimination returns 0 early
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, n - 1))
    M = [data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
         for _ in range(n)]
    c = data.draw(st.integers(-2, 2))
    j = data.draw(st.integers(0, k - 1)) if k else None
    if data.draw(st.booleans()):
        M[k][:k + 1] = [c * x for x in M[j][:k + 1]] if k else [0]
    else:
        for row in M:
            row[k] = c * row[j] if k else 0
    assert det_bareiss(M) == det_laplace(M)


def test_gram_inverse_of_the_root_basis():
    rs = build_root_system()
    assert mat_mul(rs.gram_inv, rs.gram) == identity(8)
    assert mat_mul(rs.gram, rs.gram_inv) == identity(8)


# entries of Q(w) that are often 0 mod (7, w - 2) or not 7-integral: w-pairs
# and the int/Fraction entries that a matrix over Q(w) may hold as well
_RATIONALS = st.builds(Fraction, st.sampled_from([0, 1, -2, 3, 7, -14]),
                       st.sampled_from([1, 2, 7]))
_ENTRIES = st.one_of(st.tuples(_RATIONALS, _RATIONALS).map(
                         lambda p: Cyc(*p).pair()),
                     st.sampled_from([(-2, 1), (7, 0), 0, 7]),
                     _RATIONALS)


def _combination(coeffs, rows, width):
    """The sum of c * row over coeffs and rows, as w-pairs."""
    return [sum((cyc(c) * cyc(row[k]) for c, row in zip(coeffs, rows)),
                Cyc(0)).pair() for k in range(width)]


def _qw_matrix(data, max_width=4):
    """A matrix of _ENTRIES with up to two combinations of its rows
    appended, so that many inputs are rank deficient."""
    width = data.draw(st.integers(1, max_width))
    rows = data.draw(st.lists(
        st.lists(_ENTRIES, min_size=width, max_size=width),
        min_size=1, max_size=4))
    for coeffs in data.draw(st.lists(st.lists(_ENTRIES, min_size=len(rows),
                                              max_size=len(rows)),
                                     max_size=2)):
        rows.append(_combination(coeffs, rows, width))
    return rows, width


def _values(vectors):
    return [[cyc(x) for x in v] for v in vectors]


@settings(deadline=None, derandomize=True, max_examples=300)
@given(data=st.data())
def test_cyc_rank_is_the_exact_rank(data):
    rows, width = _qw_matrix(data)
    assert rank(rows, width) == len(oracle.rref(rows, width)[1])


@settings(deadline=None, derandomize=True, max_examples=300)
@given(data=st.data())
def test_pair_kernels_match_the_oracle(data):
    # rref, rank, nullspace and solve on w-pairs against elimination on
    # Cyc objects, compared as values; solve gives the oracle's solution
    # when the kernel is zero, and None when there is none or many
    rows, width = _qw_matrix(data, max_width=5)
    if data.draw(st.booleans()):
        # a consistent system: rhs = rows @ x0
        x0 = data.draw(st.lists(_ENTRIES, min_size=width, max_size=width))
        rhs = _combination(x0, [list(col) for col in zip(*rows)], len(rows))
    else:
        rhs = data.draw(st.lists(_ENTRIES, min_size=len(rows),
                                 max_size=len(rows)))
    red, pivots = rref(rows, width)
    assert (_values(red), pivots) == oracle.rref(rows, width)
    assert rank(rows, width) == len(pivots)
    kernel = oracle.nullspace(rows, width)
    assert _values(nullspace(rows, width)) == kernel
    x, want = solve(rows, rhs, width), oracle.solve(rows, rhs, width)
    if kernel or want is None:
        assert x is None
    else:
        assert [cyc(v) for v in x] == want


@pytest.mark.parametrize("rows, width, expect", [
    # 7 and w - 2 are 0 mod p but nonzero
    ([[(7, 0)]], 1, 1),
    ([[(-2, 1)]], 1, 1),
    # full rank, but the determinant 2 - w lies in p
    ([[(1, 0), (0, 1)], [(1, 0), (2, 0)]], 2, 2),
    # rank deficient: the second row is w times the first
    ([[(1, 0), (0, 1)], [(0, 1), (-1, -1)]], 2, 1),
    # rank 1 with an entry that is not 7-integral, over Q(w) and over Q
    ([[(1, 0), (0, Fraction(1, 7))], [(0, 7), (-1, -1)]], 2, 1),
    ([[1, Fraction(1, 7)], [7, 1]], 2, 1),
], ids=["seven", "w_minus_2", "det_in_p", "deficient", "denominator_7",
        "rational_entries"])
def test_cyc_rank_falls_back_to_exact_elimination(rows, width, expect):
    assert rank(rows, width) == expect


# -- the field of elimination, read from the entries -------------------------

# rank 2 in width 3, with no zero entry, so that every entry of the kernel
# comes out of an elimination step; the last entry changed makes it
# nonsingular, with non-unit pivots, so the solution's entries do too
_RATIONAL_MATRIX = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
_NONSINGULAR = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
_RHS = [6, 15, 24]
_NONSINGULAR_RHS = [6, 15, 26]


def _lift_one_entry(rows):
    """rows with its first entry as a w-pair of the same value."""
    return [[(rows[0][0], 0)] + rows[0][1:]] + rows[1:]


@pytest.mark.parametrize("lift, kind", [
    (lambda rows: rows, Fraction),
    (_lift_one_entry, tuple),
], ids=["rational", "one_cyc_entry"])
def test_kernel_and_solution_entries_live_in_the_field_of_the_matrix(lift,
                                                                    kind):
    rows = lift(_RATIONAL_MATRIX)
    kernel = nullspace(rows, 3)
    assert len(kernel) == 1
    assert all(type(v) is kind for v in kernel[0])
    assert [cyc(v) for v in kernel[0]] == [1, -2, 1]
    # consistent (x = (1, 1, 1)) but not unique
    assert solve(rows, _RHS, 3) is None
    rows = lift(_NONSINGULAR)
    x = solve(rows, _NONSINGULAR_RHS, 3)
    assert x is not None and all(type(v) is kind for v in x)
    assert [cyc(v) for v in x] == [2, -1, 2]
    assert [sum((cyc(a) * cyc(v) for a, v in zip(row, x)), Cyc(0))
            for row in rows] == _NONSINGULAR_RHS


@pytest.mark.parametrize("rows, rhs, width, expect", [
    # unique, square and with more equations than unknowns
    ([[2, 1], [1, 1]], [3, 2], 2, [1, 1]),
    ([[1, 0], [0, 1], [1, 1]], [2, 3, 5], 2, [2, 3]),
    ([[(0, 1)]], [(-1, -1)], 1, [(0, 1)]),
    # consistent, with a line of solutions or a free unknown
    ([[1, 1], [2, 2]], [2, 4], 2, None),
    ([[1, 0, 0], [0, 1, 0]], [1, 1], 3, None),
    ([[(1, 0), (0, 1)]], [(1, 0)], 2, None),
    # inconsistent, with a full-rank or a deficient matrix
    ([[1, 0], [0, 1], [1, 1]], [1, 1, 3], 2, None),
    ([[1, 1], [1, 1]], [1, 2], 2, None),
    ([[(1, 0)], [(0, 1)]], [(1, 0), (1, 0)], 1, None),
], ids=["square", "overdetermined", "cyc_unique", "line", "free_column",
        "cyc_many", "overdetermined_inconsistent", "deficient_inconsistent",
        "cyc_inconsistent"])
def test_solve_answers_only_a_unique_solution(rows, rhs, width, expect):
    x = solve(rows, rhs, width)
    if expect is None:
        assert x is None
    else:
        assert [cyc(v) for v in x] == [cyc(v) for v in expect]


def test_mixed_int_and_cyc_rows_take_the_modular_certificate(monkeypatch):
    # rows shaped like rho_prime_image_rank's: int zeros and a few unit
    # entries w^k, full rank; with exact elimination disabled, the rank
    # must come from the certificate mod (7, w - 2)
    rows = [[0] * 9 for _ in range(3)]
    for i, row in enumerate(rows):
        for col in (i, 3 + i, 6 + (2 * i) % 3):
            row[col] = Cyc.zeta(i + col).pair()

    def no_elimination(rows, width):
        raise AssertionError("exact elimination ran")
    monkeypatch.setattr(intlinalg, "_eliminate_qw", no_elimination)
    assert rank(rows, 9) == 3
    # a deficient matrix does take the exact path
    with pytest.raises(AssertionError, match="exact elimination ran"):
        rank(rows + [rows[0]], 9)


# -- mostly-zero matrices, at sizes where elimination skips zero columns -----

def _sparse_rows(data, entries, zero, max_height=12, max_width=14):
    """A mostly-zero matrix over `entries`, built the way kostant builds its
    dense rows: every row starts as [zero] * width, so rows share one zero
    object.  Some rows are appended as combinations of the others, so that
    many of the matrices are rank deficient.  Cyc entries come back as
    w-pairs."""
    height = data.draw(st.integers(1, max_height))
    width = data.draw(st.integers(1, max_width))
    cells = data.draw(st.dictionaries(
        st.tuples(st.integers(0, height - 1), st.integers(0, width - 1)),
        entries, max_size=2 * width))
    rows = [[zero] * width for _ in range(height)]
    for (i, k), x in cells.items():
        rows[i][k] = x
    for coeffs in data.draw(st.lists(
            st.lists(entries, min_size=height, max_size=height), max_size=2)):
        rows.append([sum((c * row[k] for c, row in zip(coeffs, rows)), zero)
                     for k in range(width)])
    if type(zero) is Cyc:
        pair_zero = zero.pair()
        rows = [[x.pair() if x else pair_zero for x in row] for row in rows]
    return rows, width


def _assert_reduced_echelon(red, pivots, width):
    red = _values(red)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    assert all(0 <= c < width for c in pivots)
    for r, c in enumerate(pivots):
        assert red[r][c] == 1
        assert not any(red[r][:c])
        assert not any(red[i][c] for i in range(len(red)) if i != r)
    assert not any(x for row in red[len(pivots):] for x in row)


def _snapshot(rows):
    return [[repr(x) for x in row] for row in rows]


_Q_ENTRIES = st.one_of(st.integers(-3, 3),
                       st.builds(Fraction, st.integers(-5, 5),
                                 st.integers(1, 4)))
_QW_ENTRIES = st.builds(Cyc, _Q_ENTRIES, _Q_ENTRIES)


@pytest.mark.parametrize("entries, zero", [
    (_Q_ENTRIES, 0),
    (_Q_ENTRIES, Fraction(0)),
    (_QW_ENTRIES, Cyc(0)),
], ids=["int_zero", "fraction_zero", "cyc_zero"])
@settings(deadline=None, derandomize=True, max_examples=60)
@given(data=st.data())
def test_rref_on_mostly_zero_matrices(entries, zero, data):
    rows, width = _sparse_rows(data, entries, zero)
    before = _snapshot(rows)
    red, pivots = rref(rows, width)
    assert _snapshot(rows) == before
    assert zero == 0  # the zero object the rows share
    _assert_reduced_echelon(red, pivots, width)
    # the input rows lie in the row space of the output
    assert len(rref(red + rows, width)[1]) == len(pivots)
    # row rank is column rank
    cols = [list(col) for col in zip(*rows)]
    assert len(rref(cols, len(rows))[1]) == len(pivots)
    kernel = nullspace(rows, width)
    assert len(pivots) + len(kernel) == width
    for vec in kernel:
        for row in rows:
            assert not sum((cyc(x) * cyc(v) for x, v in zip(row, vec)),
                           Cyc(0))


def _unit_pivot_rows(data):
    """An int matrix whose elimination meets only +-1 pivots when it
    prefers them: echelon rows with a +-1 at each pivot, each later row
    plus multiples 0, +-2 or +-3 of the earlier ones, which put non-units
    beside each earlier pivot, then shuffled, so that a non-unit often
    comes first in a pivot column; with a sum of two rows appended."""
    width = data.draw(st.integers(1, 8))
    cols = sorted(data.draw(st.sets(st.integers(0, width - 1), min_size=1)))
    rows = []
    for c in cols:
        row = [0] * c + [data.draw(st.sampled_from([1, -1]))]
        row += data.draw(st.lists(st.integers(-4, 4), min_size=width - c - 1,
                                  max_size=width - c - 1))
        for earlier in list(rows):
            k = data.draw(st.sampled_from([0, 2, -2, 3, -3]))
            row = [x + k * y for x, y in zip(row, earlier)]
        rows.append(row)
    rows = data.draw(st.permutations(rows))
    if len(rows) > 1:
        rows.append([x + y for x, y in zip(rows[0], rows[-1])])
    return rows, width


@settings(deadline=None, derandomize=True, max_examples=200)
@given(data=st.data())
def test_eliminate_matches_gauss_jordan_and_keeps_unit_pivots_int(data):
    # _eliminate prefers a +-1 pivot row; the reduced form is unique, so
    # its values are those of the oracle's first-nonzero Gauss-Jordan, on
    # any rational matrix, and int rows whose pivots are all units stay
    # ints throughout
    if data.draw(st.booleans()):
        rows, width = _sparse_rows(data, _Q_ENTRIES, 0)
        units = False
    else:
        rows, width = _unit_pivot_rows(data)
        units = True
    red, pivots = intlinalg._eliminate(rows, width)
    expected, expected_pivots = oracle.rref(rows, width)
    assert pivots == expected_pivots
    assert [[cyc(x) for x in row] for row in red] == expected
    if units:
        assert all(type(x) is int for row in red for x in row)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(p=PRIMES, data=st.data())
def test_rref_mod_on_mostly_zero_matrices(p, data):
    rows, width = _sparse_rows(data, st.integers(1, p - 1), 0,
                               max_width=12)
    rows = [[x % p for x in row] for row in rows]
    before = _snapshot(rows)
    red, pivots = rref_mod(rows, width, p)
    assert _snapshot(rows) == before
    assert all(0 <= x < p for row in red for x in row)
    _assert_reduced_echelon(red, pivots, width)
    assert len(rref_mod(red + rows, width, p)[1]) == len(pivots)
    cols = [list(col) for col in zip(*rows)]
    assert len(rref_mod(cols, len(rows), p)[1]) == len(pivots)


_SMALL_RATIONALS = st.builds(Fraction, st.integers(-30, 30),
                             st.sampled_from([1, 2, 3, 7, 14, 49]))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(x=st.one_of(st.integers(-100, 100),
                   st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                   st.tuples(_SMALL_RATIONALS, _SMALL_RATIONALS),
                   _SMALL_RATIONALS))
def test_reduce_mod_p7_is_the_image_of_a_plus_2b(x):
    a, b = x if type(x) is tuple else (x, 0)
    a, b = Fraction(a), Fraction(b)
    if a.denominator % 7 == 0 or b.denominator % 7 == 0:
        assert reduce_mod_p7(x) is None
    else:
        image = a + 2 * b
        expect = image.numerator * pow(image.denominator, -1, 7) % 7
        assert reduce_mod_p7(x) == expect


def _counted(mul):
    """mul, and a list that gets one entry per product."""
    calls = []
    return (lambda x, y: calls.append(1) or mul(x, y)), calls


def test_power_is_repeated_products():
    # ints mod 101 and 2 x 2 integer matrices against repeated products:
    # one squaring per bit below the top, and one product per set bit
    # after the first, which is taken as it is
    A = [[1, 1], [1, 0]]
    x, M = 7, A
    for n in range(1, 40):
        mod_mul, calls = _counted(lambda u, v: u * v % 101)
        assert power(mod_mul, 7, n, 1) == x
        assert len(calls) == bin(n).count("1") + n.bit_length() - 2
        mat, calls = _counted(mat_mul)
        assert power(mat, A, n, identity(2)) == M
        assert len(calls) == bin(n).count("1") + n.bit_length() - 2
        x, M = x * 7 % 101, mat_mul(M, A)


def test_power_zero_is_one():
    mul, calls = _counted(mat_mul)
    assert power(mul, [[2, 0], [0, 3]], 0, identity(2)) == identity(2)
    assert calls == []


def _assert_smith_form(M):
    """U M V = D with U, V unimodular and D diagonal, each divisor dividing
    the next."""
    D, U, V = smith_normal_form(M)
    n, m = len(M), len(M[0])
    assert mat_mul(mat_mul(U, M), V) == D
    assert det_bareiss(U) in (1, -1) and det_bareiss(V) in (1, -1)
    assert all(D[i][j] == 0 for i in range(n) for j in range(m) if i != j)
    d = [D[i][i] for i in range(min(n, m))]
    assert all(x >= 0 for x in d)
    assert all((b % a == 0) if a else b == 0 for a, b in zip(d, d[1:]))
    return d


def test_smith_normal_form_of_w_minus_one():
    rs = build_root_system()
    assert _assert_smith_form(mat_sub(rs.w, identity(8))) == [1] * 4 + [3] * 4


@settings(deadline=None, derandomize=True, max_examples=200)
@given(data=st.data())
def test_smith_normal_form_on_small_matrices(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    M = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=m,
                                    max_size=m), min_size=n, max_size=n))
    _assert_smith_form(M)
