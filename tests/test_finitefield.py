"""F_q tables against digit-vector and polynomial arithmetic written out
here, the polynomial kernels against coefficient arithmetic written out
here, the field axioms, and the bound on q."""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from e8g3.finitefield import (GF, MAX_Q, field_order, padd, pdivmod, peval,
                              pmul, pscale, psub, quadratic_roots)

ORDERS = st.sampled_from([3, 7, 9, 25, 27, 49, 169])


@lru_cache(maxsize=None)
def field(q):
    return GF(q)


def _draw_elements(data, F, n):
    return [data.draw(st.integers(0, F.q - 1)) for _ in range(n)]


def _digits(F, a):
    return [a // F.p ** i % F.p for i in range(F.k)]


def _encode(F, vec):
    return sum(c % F.p * F.p ** i for i, c in enumerate(vec))


def _poly_mulmod(F, u, v):
    """u * v as polynomials over F_p, reduced by the monic F.modulus."""
    k = F.k
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            prod[i + j] += x * y
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for j, m in enumerate(F.modulus):
            prod[top - k + j] -= c * m
    return prod[:k]


@settings(deadline=None, derandomize=True)
@given(q=ORDERS, data=st.data())
def test_tables_match_digit_and_polynomial_arithmetic(q, data):
    F = field(q)
    a, b = _draw_elements(data, F, 2)
    da, db = _digits(F, a), _digits(F, b)
    assert F.add_table[a][b] == _encode(F, [x + y for x, y in zip(da, db)])
    assert F.sub_table[a][b] == _encode(F, [x - y for x, y in zip(da, db)])
    assert F.neg_table[a] == _encode(F, [-x for x in da])
    assert F.mul_table[a][b] == _encode(F, _poly_mulmod(F, da, db))


def _add(F, a, b):
    return _encode(F, [x + y for x, y in zip(_digits(F, a), _digits(F, b))])


def _mul(F, a, b):
    return _encode(F, _poly_mulmod(F, _digits(F, a), _digits(F, b)))


def _neg(F, a):
    return _encode(F, [-x for x in _digits(F, a)])


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _oracle_add(F, a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim(_add(F, x, y) for x, y in zip(a, b))


def _oracle_mul(F, a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _add(F, out[i + j], _mul(F, x, y))
    return _trim(out)


def _draw_poly(data, F, top):
    """A polynomial of degree below 6, zero a tenth of the time, whose top
    coefficients may be copied from `top` so that sums and differences
    with it cancel at the lead."""
    n = data.draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 6, 6, 6]))
    out = _draw_elements(data, F, n)
    if top and n == len(top) and data.draw(st.booleans()):
        copied = data.draw(st.integers(1, n))
        out[n - copied:] = top[n - copied:]
    if out:
        out[-1] = out[-1] or 1
    return out


@settings(deadline=None, derandomize=True)
@given(q=st.sampled_from([7, 9, 169]), data=st.data())
def test_polynomial_kernels_match_coefficient_arithmetic(q, data):
    F = field(q)
    a = _draw_poly(data, F, None)
    b = _draw_poly(data, F, a)
    c, x = _draw_elements(data, F, 2)
    neg_b = [_neg(F, y) for y in b]
    assert padd(F, a, b) == _oracle_add(F, a, b)
    assert padd(F, a, neg_b) == psub(F, a, b) == _oracle_add(F, a, neg_b)
    assert psub(F, b, a) == _oracle_add(F, b, [_neg(F, y) for y in a])
    assert pmul(F, a, b) == _oracle_mul(F, a, b)
    assert pscale(F, a, c) == _trim(_mul(F, y, c) for y in a)
    power, value = 1, 0
    for y in a:
        value = _add(F, value, _mul(F, y, power))
        power = _mul(F, power, x)
    assert peval(F, a, x) == value
    if b:
        quo, rem = pdivmod(F, a, b)
        assert len(rem) < len(b)
        assert _oracle_add(F, _oracle_mul(F, quo, b), rem) == a


@settings(deadline=None, derandomize=True)
@given(q=st.sampled_from([7, 49, 169]),
       a=st.lists(st.integers(0, 168), max_size=8),
       b=st.lists(st.integers(0, 168), min_size=1, max_size=4),
       zeros=st.integers(0, 2))
@example(q=49, a=[1, 2, 3], b=[4, 5], zeros=2)  # trailing zeros
@example(q=169, a=[5, 7], b=[1, 2, 3], zeros=0)  # shorter than b
@example(q=7, a=[1, 2, 3, 4], b=[3], zeros=0)  # b of degree 0
@example(q=7, a=[], b=[2, 1], zeros=0)
def test_pdivmod_matches_coefficient_arithmetic(q, a, b, zeros):
    F = field(q)
    a = [x % q for x in a] + [0] * zeros
    b = [x % q for x in b]
    b[-1] = b[-1] or 1
    quo, rem = pdivmod(F, a, b)
    assert quo == _trim(quo) and rem == _trim(rem)
    assert len(rem) < len(b)
    assert _oracle_add(F, _oracle_mul(F, quo, b), rem) == _trim(a)
    with pytest.raises(ZeroDivisionError):
        pdivmod(F, a, [])


# the modulus and the generator exp[1] of each field: the recorded section
# fixture is written in the F_169 encoding, and zeta3 = exp[(q - 1) / 3]
# fixes the twist direction
ENCODINGS = {3: ([0, 1], 2), 5: ([0, 1], 2), 7: ([0, 1], 3), 13: ([0, 1], 2),
             9: ([1, 0, 1], 4), 25: ([2, 0, 1], 6), 27: ([1, 2, 0, 1], 3),
             49: ([1, 0, 1], 9), 81: ([2, 1, 0, 0, 1], 3),
             121: ([1, 0, 1], 15), 125: ([1, 1, 0, 1], 9),
             169: ([2, 0, 1], 15), 343: ([2, 0, 0, 1], 22)}


@pytest.mark.parametrize("q", sorted(ENCODINGS))
def test_modulus_and_generator_are_pinned(q):
    F = field(q)
    assert (F.modulus, F.exp[1]) == ENCODINGS[q]


# every odd prime power q <= MAX_Q that is not prime, whose product is
# polynomial arithmetic over GF(p), and the primes p it is built on;
# larger prime fields multiply ints mod p, and building their tables would
# cost seconds
POLYNOMIAL_ORDERS = [p ** k for p in (3, 5, 7, 11, 13, 17, 19)
                     for k in range(1, 6) if p ** k <= MAX_Q]


@pytest.mark.parametrize("q", POLYNOMIAL_ORDERS)
def test_mul_table_is_polynomial_arithmetic(q):
    F = field(q)
    digits = [_digits(F, a) for a in range(q)]
    assert F.mul_table == [[_encode(F, _poly_mulmod(F, da, db))
                            for db in digits] for da in digits]


@settings(deadline=None, derandomize=True)
@given(q=ORDERS, data=st.data())
def test_field_axioms(q, data):
    F = field(q)
    a, b, c = _draw_elements(data, F, 3)
    add, mul = F.add_table, F.mul_table
    assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
    assert add[add[a][b]][c] == add[a][add[b][c]]
    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
    assert add[a][F.neg_table[a]] == 0 and add[F.sub_table[a][b]][b] == a
    if a:
        assert mul[a][F.inv(a)] == 1


@settings(deadline=None, derandomize=True)
@given(q=ORDERS, data=st.data())
def test_quadratic_roots_match_a_sweep(q, data):
    # each coefficient is zero half the time, so every shape of
    # c2 x^2 + c1 x + c0 is reached: quadratic, linear, constant and zero
    F = field(q)
    coeff = st.one_of(st.just(0), st.integers(1, q - 1))
    c0, c1, c2 = (data.draw(coeff) for _ in range(3))
    mul, add = F.mul_table, F.add_table
    swept = [x for x in range(q)
             if add[add[mul[mul[c2][x]][x]][mul[c1][x]]][c0] == 0]
    assert list(quadratic_roots(F, c0, c1, c2)) == swept


# True and 169.0 compare equal to the ints 1 and 169: only the type tells
# them apart
@pytest.mark.parametrize("q", [170, 2 ** 7, 23 ** 2, 10 ** 12 + 39, True,
                               169.0],
                         ids=["not_prime_power", "even", "above_bound",
                              "huge_prime", "bool", "float"])
def test_order_outside_the_tables_is_refused(q):
    with pytest.raises(ValueError):
        GF(q)


def test_field_order_on_every_q_up_to_the_bound():
    # (p, k) by trial division for every odd prime power up to MAX_Q, and
    # ValueError for every other q in range
    expected = {}
    for p in range(3, MAX_Q + 1, 2):
        if all(p % d for d in range(3, p, 2)):
            q, k = p, 1
            while q <= MAX_Q:
                expected[q] = (p, k)
                q, k = q * p, k + 1
    for q in range(MAX_Q + 1):
        if q in expected:
            assert field_order(q) == expected[q]
        else:
            with pytest.raises(ValueError):
                field_order(q)
