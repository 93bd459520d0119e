"""Q(w) on w-pairs: the inverse and the rotation by w^k against the Cyc
oracle, whose ring laws are checked first, and the reduction of w-pairs
modulo the prime (7, w - 2)."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from e8g3.cyclotomic import qw_inverse, zeta_mul
from e8g3.intlinalg import reduce_mod_p7
from qw_oracle import Cyc


def _rationals(denominators):
    return st.builds(Fraction, st.integers(-30, 30),
                     st.sampled_from(denominators))


def _pairs(denominators):
    """w-pairs with components int where integral, as the library holds
    them."""
    return st.tuples(_rationals(denominators),
                     _rationals(denominators)).map(lambda p: Cyc(*p).pair())


PAIRS = _pairs([1, 2, 3, 7, 9])
# 7-integral pairs: no denominator divisible by 7
INTEGRAL = _pairs([1, 2, 3, 9, 13])
ELEMENTS = PAIRS.map(lambda p: Cyc(*p))

LAWS = settings(deadline=None, derandomize=True)


@LAWS
@given(ELEMENTS, ELEMENTS, ELEMENTS)
def test_commutative_ring(x, y, z):
    # the oracle that the pair kernels are checked against is a field
    zero, one = Cyc(0), Cyc(1)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x
    assert x + (-x) == zero and x - y == x + (-y)
    if x:
        assert x * x.inverse() == 1


@LAWS
@given(PAIRS)
def test_inverse(x):
    assume(x != (0, 0))
    assert (Cyc(*x) * Cyc(*qw_inverse(x))).pair() == (1, 0)
    assert Cyc(*qw_inverse(x)) == Cyc(*x).inverse()


def test_inverse_of_zero_raises():
    for zero in ((0, 0), (Fraction(0), 0), (0, Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            qw_inverse(zero)


@LAWS
@given(PAIRS, PAIRS)
def test_conj_and_norm_are_multiplicative(x, y):
    # the conjugate over the norm is the inverse, so the inverse of a
    # product is the product of the inverses
    assume(x != (0, 0) and y != (0, 0))
    xy = (Cyc(*x) * Cyc(*y)).pair()
    assert Cyc(*qw_inverse(xy)) == Cyc(*qw_inverse(x)) * Cyc(*qw_inverse(y))
    assert (Cyc(*x) * Cyc(*y)).norm() == Cyc(*x).norm() * Cyc(*y).norm()


def _canonical(p):
    """Each component is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p)


@LAWS
@given(PAIRS)
def test_components_are_ints_or_proper_fractions(x):
    assume(x != (0, 0))
    assert _canonical(qw_inverse(x)), qw_inverse(x)
    assert _canonical(qw_inverse(qw_inverse(x)))
    assert qw_inverse(qw_inverse(x)) == x


def test_component_representation():
    assert qw_inverse((2, 0)) == (Fraction(1, 2), 0)
    assert qw_inverse((3, 0)) == (Fraction(1, 3), 0)
    assert qw_inverse((Fraction(1, 2), 0)) == (2, 0)
    assert type(qw_inverse((Fraction(1, 2), 0))[0]) is int
    # the units of Z[w] invert within Z[w]
    assert qw_inverse((0, 1)) == (-1, -1)
    assert all(type(c) is int for c in qw_inverse((-1, -1)))
    with pytest.raises(TypeError):
        qw_inverse((0.5, 0))


@LAWS
@given(st.integers(-10, 10))
def test_zeta_is_a_cube_root_of_unity(k):
    assert zeta_mul(*zeta_mul(*zeta_mul(1, 0, k), k), k) == (1, 0)
    assert zeta_mul(*zeta_mul(1, 0, k), 1) == zeta_mul(1, 0, k + 1)
    assert qw_inverse(zeta_mul(1, 0, k)) == zeta_mul(1, 0, -k)


@LAWS
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 8))
def test_zeta_mul_is_k_products_with_w(x, y, k):
    z = Cyc(x, y)
    for _ in range(k):
        z = z * Cyc(0, 1)
    assert zeta_mul(x, y, k) == z.pair()
    assert zeta_mul(x, y, k - 3) == zeta_mul(x, y, k)


@LAWS
@given(INTEGRAL, INTEGRAL)
def test_reduction_mod_p7_is_a_ring_map(x, y):
    rx, ry = reduce_mod_p7(x), reduce_mod_p7(y)
    assert reduce_mod_p7((Cyc(*x) + Cyc(*y)).pair()) == (rx + ry) % 7
    assert reduce_mod_p7((Cyc(*x) * Cyc(*y)).pair()) == rx * ry % 7
    # a rational is read as the pair (x, 0)
    assert reduce_mod_p7(x[0]) == reduce_mod_p7((x[0], 0))
    # the inverse reduces to the inverse where both are defined
    inv = reduce_mod_p7(qw_inverse(x)) if rx else None
    assert inv is None or rx * inv % 7 == 1


def test_reduction_mod_p7_on_generators():
    assert reduce_mod_p7((0, 1)) == 2  # w -> 2, a root of t^2 + t + 1 mod 7
    assert reduce_mod_p7((7, 0)) == 0
    assert reduce_mod_p7((-2, 1)) == 0  # w - 2 lies in the prime
    assert reduce_mod_p7(Fraction(1, 2)) == 4
    assert reduce_mod_p7((0, Fraction(1, 7))) is None
    assert reduce_mod_p7(Fraction(3, 14)) is None
