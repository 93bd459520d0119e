"""Quintic invariants: discriminant, height, minimality, enumeration."""

import math
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from e8g3.genus2 import (
    Quintic,
    _iroot,
    coeff_bound,
    discriminant,
    enumerate_min,
    enumerate_min_bruteforce,
    height_lt,
    is_minimal,
    remainder_discriminant,
    remainder_resultant,
    resultant,
    sylvester_matrix,
)

from det_oracle import det_laplace


def test_disc_quintuple_root():
    assert discriminant(Quintic(0, 0, 0, 0)) == 0


def test_disc_x5_minus_1():
    assert discriminant(Quintic(0, 0, 0, -1)) == 5**5


def test_disc_x5_plus_x():
    d = discriminant(Quintic(0, 0, 1, 0))
    assert d != 0
    assert d == remainder_discriminant(Quintic(0, 0, 1, 0))


def test_disc_mod_p_compatibility():
    import random
    rng = random.Random(3)
    for _ in range(20):
        q = Quintic(*(rng.randrange(-9, 10) for _ in range(4)))
        d = discriminant(q)
        for p in (7, 11, 13):
            qp = Quintic(q.c12 % p, q.c18 % p, q.c24 % p, q.c30 % p)
            assert discriminant(qp) % p == d % p


def test_disc_double_root_vanishes():
    # f = (x - 1)^2 (x^3 + 2x + c) expanded with zero x^4 term needs care;
    # use the resultant directly on a crafted product instead
    f = [1, 0, 0, 0, 0, 1]  # x^5 + 1, simple roots
    assert resultant(f, [i * f[i] for i in range(1, 6)]) != 0
    g = [0, 0, 1, 0, 0, 1]  # x^5 + x^2 = x^2 (x^3 + 1): repeated root at 0
    assert resultant(g, [i * g[i] for i in range(1, 6)]) == 0


def _times(f, g):
    """Product of two polynomials given low-to-high."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


_LEADING = st.integers(-4, 4).filter(bool)


def _poly(degree):
    # zero is drawn often, so remainders drop by more than one degree
    return st.tuples(st.lists(st.one_of(st.just(0), st.integers(-4, 4)),
                              min_size=degree, max_size=degree),
                     _LEADING).map(lambda p: p[0] + [p[1]])


@st.composite
def _pairs(draw):
    """(f, g, shared) with f and g of degrees 1 to 6 and nonzero leading
    coefficients; if shared, both are multiples of one linear factor."""
    if draw(st.booleans()):
        common = [draw(st.integers(-3, 3)), draw(_LEADING)]
        return (*(_times(draw(_poly(draw(st.integers(0, 5)))), common)
                  for _ in "fg"), True)
    return (*(draw(_poly(draw(st.integers(1, 6)))) for _ in "fg"), False)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(pair=_pairs())
@example(pair=([7, 0, 0, 0, 0, 1], [0, 0, 0, 0, 5], False))  # constant rem.
@example(pair=([0, 0, 0, 0, 5], [7, 0, 0, 0, 0, 1], False))  # deg g > deg f
@example(pair=([1, 0, 2, 1], [1, 1, 0, 0, 0, -3], False))  # both odd
# a drop by two degrees after h has left 1, so h^(1-d) lc^d is not lc^d
@example(pair=([0, -2, 2, 0, 0, 0, -2], [1, 3, 0, 0, 0, 4], False))
@example(pair=(_times([1, 2, 0, 3], [-2, 1]), _times([5, 0, 1], [-2, 1]),
               True))
# constants: Res(c, g) = c^deg g, and two constants give the 0 x 0
# Sylvester matrix, whose determinant is 1
@example(pair=([3], [4], False))
@example(pair=([-2], [0, 0, 1], False))
@example(pair=([1, 2], [5], False))
def test_remainder_resultant_matches_both_determinants(pair):
    f, g, shared = pair
    res = remainder_resultant(f, g)
    assert res == 0 or not shared
    assert res == resultant(f, g)
    assert res == det_laplace(sylvester_matrix(f, g))


def test_height():
    assert height_lt(Quintic(0, 0, 0, 0), 1)
    assert height_lt(Quintic(1, 0, 0, 0), 2)
    assert not height_lt(Quintic(0, 0, 0, 2), 2)
    assert not height_lt(Quintic(2, 0, 0, 0), 2)


def test_minimality():
    assert is_minimal(Quintic(1, 0, 0, 0))
    assert not is_minimal(Quintic(2**4, 2**6, 2**8, 2**10))
    assert is_minimal(Quintic(2**4, 0, 0, 3**10))
    assert not is_minimal(Quintic(0, 0, 0, 0))
    assert not is_minimal(Quintic(0, 0, 0, 2**10))


def test_minimality_of_a_coefficient_beyond_float_range():
    # 10^400 overflows a float; 2 is a witness for both
    assert not is_minimal(Quintic(10**400, 0, 0, 0))
    assert not is_minimal(Quintic(0, 0, 0, 2**10 * 10**400))


def _raise_timeout(signum, frame):
    raise TimeoutError("is_minimal did not return within 5 s")


def test_minimality_bound_is_the_least_root_of_the_nonzero_coefficients():
    # a witness n has n^e <= |c| for every nonzero c, so a coefficient of 1
    # leaves no candidate however large the others are; a bound read from
    # the first nonzero coefficient alone runs to about 10^10 candidates
    old = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(5)
    try:
        assert is_minimal(Quintic(10**40 + 1, 1, 0, 0))
        assert is_minimal(Quintic(0, 10**60 + 1, 0, -1))
        # witnesses at and below the bound are still found
        assert not is_minimal(Quintic(2**4 * (10**40 + 1), 2**6, 0, 0))
        assert not is_minimal(Quintic(3**4 * (10**40 + 1), 3**6, 0, 3**10))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 10**400, 3**600 + 12345,
                               (3**150 + 1)**4 - 1, (3**150 + 1)**4],
                         ids=["0", "1", "15", "16", "17", "10^400",
                              "3^600+12345", "(3^150+1)^4-1", "(3^150+1)^4"])
def test_fourth_root_is_two_square_roots(n):
    assert _iroot(n, 4) == math.isqrt(math.isqrt(n))


@pytest.mark.parametrize("e", [4, 6, 8, 10])
def test_iroot_matches_brute_force(e):
    for n in range(3000):
        root = 0
        while (root + 1)**e <= n:
            root += 1
        assert _iroot(n, e) == root


def test_scale_action():
    # the scaling by n^2 substitution matches the minimality exponents
    assert not is_minimal(Quintic(2**4 * 3, 2**6 * 5, 2**8 * 7, 2**10 * 11))


def _coeff_bound_by_scan(a, i):
    """Oracle for coeff_bound: the largest |c| with |c|^120 < a^i, by a
    linear scan."""
    c = 0
    while (c + 1) ** 120 < a ** i:
        c += 1
    return c


def test_coeff_bounds():
    assert coeff_bound(1, 12) == 0
    assert coeff_bound(2, 12) == 1
    assert coeff_bound(2, 30) == 1
    for a in range(1, 51):
        for i in (12, 18, 24, 30):
            assert coeff_bound(a, i) == _coeff_bound_by_scan(a, i)


def test_enumeration_matches_bruteforce():
    for a in (1, 2, 3):
        assert list(enumerate_min(a)) == list(enumerate_min_bruteforce(a))
    assert list(enumerate_min(1)) == []


def test_enumeration_monotone():
    counts = [len(list(enumerate_min(a))) for a in (1, 2, 3, 5)]
    assert counts == sorted(counts)
