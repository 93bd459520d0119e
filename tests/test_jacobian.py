"""Finite fields, Mumford decompositions, and the Cantor group law."""

from itertools import product

import pytest

from e8g3.finitefield import (
    GF,
    peval,
    pmod,
    pmul,
    psub,
    ptrim,
    pxgcd,
)
from e8g3.genus2 import Quintic, discriminant
from e8g3.jacobian import (
    IDENTITY,
    DegreeShapeError,
    NonReducedInputError,
    NonzeroQuarticCoefficientError,
    cantor_add,
    cantor_mul,
    cantor_neg,
    curve_count,
    enumerate_jacobian,
    is_reduced,
    jacobian_order_zeta,
    mumford_verify,
)

from cantor_oracle import cantor_add_general

# the three F_7 curves of the sections suite
CURVES = ((0, 0, 1, 3), (1, 1, 0, 2), (0, 2, 3, 1))


def test_field_axioms_prime_and_square():
    for q in (7, 9, 13, 49):
        F = GF(q)
        add, mul = F.add_table, F.mul_table
        els = range(q)
        for a in els[::3]:
            assert add[a][F.neg_table[a]] == 0
            if a:
                assert mul[a][F.inv(a)] == 1
            for b in els[::4]:
                assert mul[a][b] == mul[b][a]
                for c in els[:: max(1, q // 5)]:
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_field_sqrt_and_zeta():
    F = GF(13)
    mul = F.mul_table
    squares = {mul[x][x] for x in range(F.q)}
    for x in range(F.q):
        assert F.is_square(x) == (x in squares)
        if F.is_square(x):
            r = F.sqrt(x)
            assert mul[r][r] == x
    z = F.zeta3()
    assert z is not None and mul[mul[z][z]][z] == 1 and z != 1
    assert GF(7).zeta3() is not None
    assert GF(11).zeta3() is None


def test_poly_xgcd():
    F = GF(13)
    a = [1, 2, 0, 1]
    b = [5, 1, 1]
    g, s, t = pxgcd(F, a, b)
    combo = psub(F, pmul(F, s, a), [F.neg_table[c] for c in pmul(F, t, b)])
    assert combo == g


def test_mumford_shapes():
    F = GF(7)
    f = [c % 7 for c in Quintic(0, 0, 1, 3).coeffs()]
    assert mumford_verify(F, [1], f, []) == f
    with pytest.raises(DegreeShapeError):
        mumford_verify(F, [1, 1], f, [])
    with pytest.raises(DegreeShapeError):
        mumford_verify(F, [1], f, [1, 1])
    # nonzero quartic: u = x, v = monic quartic, r = 0 gives x^5 + x^4 + ...
    with pytest.raises(NonzeroQuarticCoefficientError):
        mumford_verify(F, [0, 1], [0, 0, 0, 1, 1], [])


def test_cantor_identity_and_negation():
    F = GF(7)
    f = [c % 7 for c in Quintic(0, 0, 1, 3).coeffs()]
    J = enumerate_jacobian(F, f)
    for D in J[::7]:
        assert cantor_add(F, f, D, IDENTITY) == D
        assert cantor_add(F, f, D, cantor_neg(F, D)) == IDENTITY


def _jacobian(q, coeffs):
    F = GF(q)
    f = [F.from_int(c) for c in Quintic(*coeffs).coeffs()]
    return F, f, enumerate_jacobian(F, f)


def test_cantor_add_matches_the_general_composition():
    # every ordered pair of the 34-element Jacobian of (0, 2, 3, 1) over F_7
    # and of the 84-element one over GF(9), with coprime and non-coprime
    # u1, u2 alike; GF(9) is not a prime field, as the fixture's F_169 is
    # not
    for q, order in ((7, 34), (9, 84)):
        F, f, J = _jacobian(q, (0, 2, 3, 1))
        assert len(J) == order
        assert [cantor_add(F, f, A, B) for A in J for B in J] == [
            cantor_add_general(F, f, A, B) for A in J for B in J]


@pytest.mark.parametrize("coeffs", CURVES)
def test_cantor_doubling_matches_the_general_composition(coeffs):
    F, f, J = _jacobian(7, coeffs)
    assert [cantor_add(F, f, D, D) for D in J] == [
        cantor_add_general(F, f, D, D) for D in J]


def test_cantor_doubling_over_gf13_matches_the_general_composition():
    F, f, J = _jacobian(13, (0, 2, 3, 1))
    assert len(J) == 174
    assert [cantor_add(F, f, D, D) for D in J] == [
        cantor_add_general(F, f, D, D) for D in J]


@pytest.mark.parametrize("q", [7, 9])
def test_is_reduced_matches_the_generic_predicate(q):
    # every monic u of degree at most 2 against every v of degree at most
    # 2, shape rejections included: the closed-form residue against a
    # product and a long division
    F = GF(q)
    f = [F.from_int(c) for c in Quintic(0, 0, 1, 3).coeffs()]
    els = range(q)
    us = ([(1,)] + [(t, 1) for t in els]
          + [(u0, u1, 1) for u0 in els for u1 in els])
    vs = [tuple(ptrim(list(c))) for c in product(els, repeat=3)]
    reduced = 0
    for u in us:
        for v in vs:
            generic = (len(v) < len(u)
                       and not pmod(F, psub(F, pmul(F, v, v), f), u))
            assert is_reduced(F, f, (u, v)) == generic, (u, v)
            reduced += generic
    assert reduced == len(enumerate_jacobian(F, f))


def test_path_split_over_the_f7_jacobians(monkeypatch):
    # of the 16,553 ordered pairs of the three F_7 Jacobians, those with a
    # weight-1 input and no weight-0 one, and the weight-2 pairs whose u1,
    # u2 (or, doubling, u and v) have a common factor, reach Cantor's
    # composition; every other pair takes a closed form
    from e8g3 import jacobian
    calls = []
    compose = jacobian._cantor
    monkeypatch.setattr(jacobian, "_cantor",
                        lambda *args: calls.append(1) or compose(*args))
    pairs = expected = 0
    for coeffs in CURVES:
        F, f, J = _jacobian(7, coeffs)
        for A, B in product(J, J):
            cantor_add(F, f, A, B)
            weights = {len(A[0]) - 1, len(B[0]) - 1}
            other = B[1] if A == B else B[0]
            pairs += 1
            expected += (0 not in weights
                         and (1 in weights
                              or len(pxgcd(F, A[0], other)[0]) > 1))
    assert pairs == 16553
    assert len(calls) == expected == 6976


def test_cantor_rejects_nonreduced():
    F = GF(7)
    f = [c % 7 for c in Quintic(0, 0, 1, 3).coeffs()]
    with pytest.raises(NonReducedInputError):
        cantor_add(F, f, ([1, 1], [3]), IDENTITY)  # u not monic-compatible


def test_zeta_orders_build_each_field_once(monkeypatch):
    # from an empty field cache, the three fixture curves over F_7 build
    # F_7 and F_49 once between them (F_49 reads F_7 from the same cache),
    # and get the same orders as before the cache was emptied
    from e8g3 import finitefield
    before = [jacobian_order_zeta(7, Quintic(*c).coeffs()) for c in CURVES]
    built = []
    init = GF.__init__

    def counted(self, q):
        built.append(q)
        init(self, q)
    monkeypatch.setattr(GF, "__init__", counted)
    finitefield.get_field.cache_clear()
    try:
        again = [jacobian_order_zeta(7, Quintic(*c).coeffs()) for c in CURVES]
    finally:
        finitefield.get_field.cache_clear()
    assert again == before
    assert sorted(built) == [7, 49]


def test_group_orders_three_curves():
    import random
    rng = random.Random(11)
    for coeffs in CURVES:
        q = Quintic(*coeffs)
        assert discriminant(q) % 7 != 0
        F = GF(7)
        f = [c % 7 for c in q.coeffs()]
        J = enumerate_jacobian(F, f)
        assert len(J) == jacobian_order_zeta(7, q.coeffs())
        n = len(J)
        for _ in range(8):
            D = rng.choice(J)
            assert cantor_mul(F, f, D, n) == IDENTITY


def test_cantor_mul_is_repeated_addition(monkeypatch):
    from e8g3 import jacobian
    F = GF(7)
    f = [c % 7 for c in Quintic(0, 0, 1, 3).coeffs()]
    for D in enumerate_jacobian(F, f):
        multiple = IDENTITY
        for n in range(11):
            assert cantor_mul(F, f, D, n) == multiple
            multiple = D if n == 0 else cantor_add(F, f, multiple, D)
    # one doubling per bit below the top, and one addition per set bit
    # after the first
    calls = []
    add = jacobian.cantor_add
    monkeypatch.setattr(jacobian, "cantor_add",
                        lambda *args: calls.append(1) or add(*args))
    for n in range(1, 11):
        calls.clear()
        cantor_mul(F, f, D, n)
        assert len(calls) == bin(n).count("1") + n.bit_length() - 2


def _enumerate_jacobian_by_scan(F, f):
    """Oracle for enumerate_jacobian: every v of degree below deg u is
    tried for each u = x - t and each monic quadratic u."""
    els = range(F.q)
    out = [((1,), ())]
    for u in ([(F.neg_table[t], 1) for t in els]
              + [(u0, u1, 1) for u0 in els for u1 in els]):
        for v1 in els if len(u) == 3 else [0]:
            for v0 in els:
                v = (v0, v1) if v1 else ((v0,) if v0 else ())
                if not pmod(F, psub(F, pmul(F, v, v), f), u):
                    out.append((u, v))
    return out


# the three F_7 curves of the sections suite, and smooth curves over GF(9)
# and GF(11)
@pytest.mark.parametrize("q, coeffs", [
    (7, (0, 0, 1, 3)), (7, (1, 1, 0, 2)), (7, (0, 2, 3, 1)),
    (9, (0, 0, 1, 3)), (9, (0, 2, 3, 1)), (11, (0, 0, 1, 3)),
    (11, (0, 2, 3, 1))])
def test_enumerate_jacobian_matches_scan_oracle(q, coeffs):
    # the same list in the same order: cantor_group_law draws from it
    F = GF(q)
    assert discriminant(Quintic(*coeffs)) % F.p
    f = [F.from_int(c) for c in Quintic(*coeffs).coeffs()]
    assert enumerate_jacobian(F, f) == _enumerate_jacobian_by_scan(F, f)


def test_curve_count_consistency():
    F = GF(7)
    f = [c % 7 for c in Quintic(0, 0, 1, 3).coeffs()]
    n = curve_count(F, f)
    brute = 1  # infinity
    for x in range(F.q):
        for y in range(F.q):
            if F.mul_table[y][y] == peval(F, f, x):
                brute += 1
    assert n == brute


def test_associativity_random_sample():
    import random
    rng = random.Random(5)
    F = GF(7)
    f = [c % 7 for c in Quintic(0, 0, 1, 3).coeffs()]
    J = enumerate_jacobian(F, f)
    for _ in range(40):
        A, B, C = rng.choice(J), rng.choice(J), rng.choice(J)
        assert cantor_add(F, f, cantor_add(F, f, A, B), C) == \
            cantor_add(F, f, A, cantor_add(F, f, B, C))
