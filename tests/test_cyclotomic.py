"""Ring laws of Q(w), its int-or-Fraction components, and its reduction
modulo the prime (7, w - 2)."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from e8g3.cyclotomic import Cyc, zeta_mul
from e8g3.intlinalg import reduce_mod_p7


def _rationals(denominators):
    return st.builds(Fraction, st.integers(-30, 30),
                     st.sampled_from(denominators))


ELEMENTS = st.builds(Cyc, _rationals([1, 2, 3, 7, 9]),
                     _rationals([1, 2, 3, 7, 9]))
# 7-integral elements: no denominator divisible by 7
INTEGRAL = st.builds(Cyc, _rationals([1, 2, 3, 9, 13]),
                     _rationals([1, 2, 3, 9, 13]))

LAWS = settings(deadline=None, derandomize=True)


@LAWS
@given(ELEMENTS, ELEMENTS, ELEMENTS)
def test_commutative_ring(x, y, z):
    zero, one = Cyc(0), Cyc(1)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x
    assert x + (-x) == zero and x - y == x + (-y)


@LAWS
@given(ELEMENTS)
def test_inverse(x):
    assume(x)
    assert x * x.inverse() == 1


@LAWS
@given(ELEMENTS, ELEMENTS)
def test_conj_and_norm_are_multiplicative(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).norm() == x.norm() * y.norm()
    assert x * x.conj() == x.norm()


def _canonical(x):
    """Each component is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in (x.a, x.b))


@LAWS
@given(ELEMENTS, ELEMENTS)
def test_components_are_ints_or_proper_fractions(x, y):
    results = [x, x + y, x - y, -x, x * y, x.conj()]
    if y:
        results += [x * y.inverse(), y.inverse()]
    for r in results:
        assert _canonical(r), repr(r)


def test_component_representation():
    assert Cyc(2).inverse().a == Fraction(1, 2)
    assert type(Cyc(Fraction(4, 2)).a) is int
    assert hash(Cyc(Fraction(4, 2))) == hash(Cyc(2))
    assert Cyc(3).inverse() == Cyc(Fraction(1, 3))
    assert type((Cyc(Fraction(1, 2)) * 2).a) is int
    with pytest.raises(TypeError):
        Cyc(0.5)


@LAWS
@given(st.integers(-10, 10))
def test_zeta_is_a_cube_root_of_unity(k):
    assert Cyc.zeta(k) * Cyc.zeta(k) * Cyc.zeta(k) == 1
    assert Cyc.zeta(k) * Cyc.zeta(1) == Cyc.zeta(k + 1)


@LAWS
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 8))
def test_zeta_mul_is_k_products_with_w(x, y, k):
    z = Cyc(x, y)
    for _ in range(k):
        z = z * Cyc(0, 1)
    assert zeta_mul(x, y, k) == (z.a, z.b)
    assert zeta_mul(x, y, k - 3) == zeta_mul(x, y, k)


@LAWS
@given(INTEGRAL, INTEGRAL)
def test_reduction_mod_p7_is_a_ring_map(x, y):
    rx, ry = reduce_mod_p7(x), reduce_mod_p7(y)
    assert reduce_mod_p7(x + y) == (rx + ry) % 7
    assert reduce_mod_p7(x * y) == rx * ry % 7
    assert reduce_mod_p7(x.a) == reduce_mod_p7(Cyc(x.a))


def test_reduction_mod_p7_on_generators():
    assert reduce_mod_p7(Cyc(0, 1)) == 2  # w -> 2, a root of t^2 + t + 1 mod 7
    assert reduce_mod_p7(Cyc(7)) == 0
    assert reduce_mod_p7(Cyc(-2, 1)) == 0  # w - 2 lies in the prime
    assert reduce_mod_p7(Fraction(1, 2)) == 4
    assert reduce_mod_p7(Cyc(0, Fraction(1, 7))) is None
    assert reduce_mod_p7(Fraction(3, 14)) is None
