"""Section scan, intersection pairing, torsion descent, Sp4 density, and
the sections checks of the session report."""

import json
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g3 import sections
from e8g3.finitefield import (GF, padd, pdivmod, pmonic, pmul, psub, ptrim,
                              pxgcd)
from e8g3.genus2 import Quintic
from e8g3.jacobian import cantor_add
from e8g3.rootsys import E8_ROW
from e8g3.sections import (
    Section,
    find_sections,
    fixture_from_json,
    load_default_fixture,
    neg_section,
    pairing_table,
    section_class,
    section_class_is_3torsion,
    twist_exponents,
    twist_section,
    verify_section_fixture,
)


def squarefree_part(F, a):
    """Monic radical of a nonzero polynomial (counts distinct roots)."""
    if not a:
        raise ValueError("zero polynomial")
    d = ptrim([F.mul_table[F.from_int(i)][a[i]] for i in range(1, len(a))])
    if not d:
        # perfect p-th power over F_q; recurse on the p-th root
        p = F.p
        root = [a[i] for i in range(0, len(a), p)]
        # p-th root of each coefficient: c -> c^(q/p) since Frobenius is
        # bijective; q/p = p^(k-1)
        root = [F.exp[(F.log[c] * (F.q // p)) % (F.q - 1)] if c else 0
                for c in root]
        return squarefree_part(F, root)
    g = pxgcd(F, a, d)[0]
    rad, rem = pdivmod(F, a, g)
    assert not rem, "gcd(a, a') does not divide a"
    base = pmonic(F, rad)
    extra = squarefree_part(F, g) if len(g) > 1 else []
    if extra:
        # distinct factors of a = factors of base together with those of g
        quot, _ = pdivmod(F, pmul(F, base, extra), pxgcd(F, base, extra)[0])
        return pmonic(F, quot)
    return base


def test_squarefree_part():
    F = GF(7)
    # (x - 1)^2 (x - 2)
    p = pmul(F, pmul(F, [6, 1], [6, 1]), [5, 1])
    rad = squarefree_part(F, p)
    assert rad == pmul(F, [6, 1], [5, 1])


def _intersection_by_gcd(F, s, t):
    """Oracle for the intersection numbers of `pairing_table`: the
    Euclidean gcd of the differences for the affine part, and the common
    vanishing order of the reversed differences for the fibre at
    infinity."""
    g1 = psub(F, list(s.b), list(t.b))
    g2 = psub(F, list(s.a), list(t.a))
    if not g1 and not g2:
        raise ValueError("identical sections")
    if not g1:
        g = g2
    elif not g2:
        g = g1
    else:
        g = pxgcd(F, g1, g2)[0]
    affine = len(g) - 1 if g else 0
    # reversed differences as series in u = 1/x
    sub = F.sub_table
    rev_a = [sub[x][y] for x, y in zip(reversed(s.a), reversed(t.a))]
    rev_b = [sub[x][y] for x, y in zip(reversed(s.b), reversed(t.b))]
    inf = min(next((i for i, c in enumerate(rev) if c), 10**9)
              for rev in (rev_a, rev_b))
    return affine + inf


@lru_cache(maxsize=None)
def _field(q):
    return GF(q)


def _find_sections_by_scan(F, f):
    """Oracle for find_sections: every a0 is tried for each (a2, a1)."""
    out = []
    add, sub, mul, neg = F.add_table, F.sub_table, F.mul_table, F.neg_table
    two = F.from_int(2)
    three = F.from_int(3)
    six = F.from_int(6)
    half = F.inv(two)
    f0, f1c, f2c, f3c, f4c, _ = (list(f) + [0] * 6)[:6]
    squares = [t for t in range(1, F.q) if F.is_square(t)]
    elements = range(F.q)
    square = [mul[x][x] for x in elements]
    cube = [mul[square[x]][x] for x in elements]
    h0 = [add[cube[a0]][f0] for a0 in elements]
    M2, M3, M6 = mul[two], mul[three], mul[six]
    A1, A2 = add[f1c], add[f2c]
    for a2 in squares:
        b3 = F.sqrt(cube[a2])
        nb3 = neg[b3]
        Minv2b3 = mul[mul[F.inv(b3)][half]]
        M3a2 = mul[M3[a2]]
        M3a2sq = mul[M3[square[a2]]]
        for a1 in elements:
            a1sq = square[a1]
            # f has unit quintic coefficient
            b2 = Minv2b3[add[M3[mul[a1][square[a2]]]][1]]
            M2b2 = mul[M2[b2]]
            M3a1 = mul[M3[a1]]
            M3a1sq = mul[M3[a1sq]]
            M6a1a2 = mul[M6[mul[a1][a2]]]
            # h4 - b2^2 = K4 + 3 a2^2 a0 and h3 = K3 + 6 a1 a2 a0
            K4 = add[sub[add[M3[mul[a1sq][a2]]][f4c]][square[b2]]]
            K3 = add[add[cube[a1]][f3c]]
            for a0 in elements:
                b1 = Minv2b3[K4[M3a2sq[a0]]]
                b0 = Minv2b3[sub[K3[M6a1a2[a0]]][M2b2[b1]]]
                if square[b0] != h0[a0]:
                    continue
                a0sq = square[a0]
                h1 = A1[M3a1[a0sq]]
                h2 = add[A2[M3a2[a0sq]]][M3a1sq[a0]]
                if (h2 == add[square[b1]][M2b2[b0]]
                        and h1 == M2[mul[b0][b1]]):
                    out.append(Section((a0, a1, a2), (b0, b1, b2, b3)))
                    out.append(Section((a0, a1, a2),
                                       (neg[b0], neg[b1], neg[b2], nb3)))
    return out


# odd orders from 3 to 125, with characteristic 3 at 3, 9, 27 and 81
SCAN_ORDERS = (3, 5, 7, 9, 13, 25, 27, 49, 81, 121, 125)


@st.composite
def monic_quintics(draw, q):
    """(F, f, planted) over F_q: f a random monic quintic and planted None,
    or f = b^2 - a^3 for a drawn section planted = (a, b)."""
    F = _field(q)
    el = st.integers(0, F.q - 1)
    if draw(st.booleans()):
        return F, [draw(el) for _ in range(5)] + [1], None
    a2 = draw(st.sampled_from([t for t in range(1, F.q) if F.is_square(t)]))
    a = [draw(el), draw(el), a2]
    add, mul = F.add_table, F.mul_table
    b3 = F.sqrt(mul[mul[a2][a2]][a2])
    # the x^5 coefficient 2 b3 b2 - 3 a2^2 a1 of b^2 - a^3 is 1
    b2 = mul[add[1][mul[F.from_int(3)][mul[mul[a2][a2]][a[1]]]]][
        F.inv(add[b3][b3])]
    b = [draw(el), draw(el), b2, b3]
    return F, psub(F, pmul(F, b, b), pmul(F, pmul(F, a, a), a)), \
        Section(tuple(a), tuple(b))


@pytest.mark.parametrize("q", SCAN_ORDERS)
@settings(deadline=None, derandomize=True, max_examples=6)
@given(data=st.data())
def test_find_sections_matches_scan_oracle(q, data):
    # the same list in the same order as the full scan
    F, f, planted = data.draw(monic_quintics(q))
    assert len(f) == 6 and f[5] == 1
    found = find_sections(F, f)
    assert found == _find_sections_by_scan(F, f)
    assert planted is None or planted in found


@st.composite
def section_pairs(draw):
    """(F, s, t) with t = s - (A, B), where the differences A = a_s - a_t
    and B = b_s - b_t are drawn by shape so that every branch of the closed
    form is reached: A zero, a nonzero constant, linear, or quadratic (with
    a known root or generic), and B random, a remainder R alone, or
    Q A + R with deg Q <= 3 - deg A, where R is zero, a nonzero constant,
    or linear through a root of A or through another point."""
    F = _field(draw(st.sampled_from((13, 169))))
    el = st.integers(0, F.q - 1)
    nz = st.integers(1, F.q - 1)
    s = Section(tuple(draw(el) for _ in range(3)),
                tuple(draw(el) for _ in range(4)))
    root = draw(el)
    x_minus_root = [F.neg_table[root], 1]
    A = {"zero": lambda: [],
         "constant": lambda: [draw(nz)],
         "linear": lambda: pmul(F, [draw(nz)], x_minus_root),
         "split": lambda: pmul(F, [draw(el), draw(nz)], x_minus_root),
         "generic": lambda: [draw(el), draw(el), draw(nz)],
         }[draw(st.sampled_from(("zero", "constant", "linear", "split",
                                 "generic")))]()
    R = {"zero": lambda: [],
         "constant": lambda: [draw(nz)],
         "through_root": lambda: pmul(F, [draw(nz)], x_minus_root),
         "through_other": lambda: [draw(el), draw(nz)],
         }[draw(st.sampled_from(("zero", "constant", "through_root",
                                 "through_other")))]()
    B = {"random": lambda: [draw(el) for _ in range(4)],
         "remainder": lambda: R,
         "multiple": lambda: padd(F, pmul(F, ptrim(
             [draw(el) for _ in range(5 - max(len(A), 1))]), A), R),
         }[draw(st.sampled_from(("random", "remainder", "multiple")))]()
    A = A + [0] * (3 - len(A))
    B = B + [0] * (4 - len(B))
    sub = F.sub_table
    t = Section(tuple(sub[x][y] for x, y in zip(s.a, A)),
                tuple(sub[x][y] for x, y in zip(s.b, B)))
    return F, s, t


def _pairing_by_gcd(F, s, t):
    """Oracle for one entry of `pairing_table`."""
    return 2 if s == t else 1 - _intersection_by_gcd(F, s, t)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(section_pairs())
def test_pairing_table_matches_gcd_oracle(case):
    F, s, t = case
    if s == t:
        with pytest.raises(ValueError):
            pairing_table(F, [s, t])
    else:
        P = pairing_table(F, [s, t])
        assert P == [[2, P[0][1]], [P[0][1], 2]]
        assert P[0][1] == 1 - _intersection_by_gcd(F, s, t)


def test_pairing_table_rejects_bad_input(small):
    F, f, secs = small
    s = secs[0]
    with pytest.raises(ValueError, match="identical"):
        pairing_table(F, [s, Section(s.a, s.b)])
    with pytest.raises(ValueError, match="coefficients"):
        pairing_table(F, [Section(s.a + (0,), s.b), secs[1]])
    with pytest.raises(ValueError, match="coefficients"):
        pairing_table(F, [secs[1], Section(s.a, s.b[:3])])


def test_fixture_pairing_table_matches_gcd_oracle():
    # every entry of the packaged fixture's 240 x 240 table: the diagonal,
    # symmetry, and each unordered pair against the oracle once
    q, coeffs, secs, _ = load_default_fixture()
    F = GF(q)
    P = pairing_table(F, secs)
    assert [row[i] for i, row in enumerate(P)] == [2] * len(secs)
    assert P == [list(col) for col in zip(*P)]
    assert [(i, j) for i, j in combinations(range(len(secs)), 2)
            if P[i][j] != 1 - _intersection_by_gcd(F, secs[i], secs[j])
            ] == []


def distinct_common_roots(F, s, t):
    """Number of distinct common zeros of (b - d, a - c): the transverse-
    intersection count (agrees with the full pairing when all meetings are
    simple and away from the fibre at infinity)."""
    g1 = psub(F, list(s.b), list(t.b))
    g2 = psub(F, list(s.a), list(t.a))
    assert g1 or g2, "identical sections"
    if not g1:
        g = g2
    elif not g2:
        g = g1
    else:
        g = pxgcd(F, g1, g2)[0]
    if not g or len(g) == 1:
        return 0
    return len(squarefree_part(F, g)) - 1


def fixture_to_json(q, quintic_coeffs, sections, histogram_row):
    payload = {
        "fixture_version": 1,
        "q": q,
        "f_coeffs_low_to_high": list(quintic_coeffs),
        "sections": sorted([list(s.a), list(s.b)] for s in sections),
        "expected_histogram_row": [list(x) for x in histogram_row],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def small():
    F = GF(13)
    f = [c % 13 for c in Quintic(0, 0, 1, 3).coeffs()]
    return F, f, find_sections(F, f)


def test_sections_satisfy_equation(small):
    from e8g3.finitefield import padd, pmul, psub
    F, f, secs = small
    assert secs
    for s in secs:
        lhs = pmul(F, list(s.b), list(s.b))
        rhs = padd(F, pmul(F, pmul(F, list(s.a), list(s.a)), list(s.a)), f)
        assert psub(F, lhs, rhs) == []


def test_closure_under_flip_and_twist(small):
    F, f, secs = small
    found = set(secs)
    for s in secs:
        assert neg_section(F, s) in found
        assert twist_section(F, s) in found
        assert twist_section(F, s) != s


def test_pairing_conventions(small):
    F, f, secs = small
    s = secs[0]
    t = twist_section(F, s)
    P = pairing_table(F, [s, neg_section(F, s), t])
    assert P[0][0] == 2
    assert P[0][1] == -2
    assert P[0][2] == P[2][0] == -1


def test_pairing_range(small):
    F, f, secs = small
    assert all(-2 <= x <= 2 for row in pairing_table(F, secs) for x in row)


def test_distinct_count_vs_intersection(small):
    # the set count never exceeds the multiplicity-aware count
    F, f, secs = small
    P = pairing_table(F, secs)
    for i, s in enumerate(secs):
        for j, t in enumerate(secs):
            if i != j:
                assert distinct_common_roots(F, s, t) <= 1 - P[i][j]


def test_torsion_descent(small):
    F, f, secs = small
    for s in secs:
        D = section_class(F, s)
        assert section_class_is_3torsion(F, f, D)
        u, v = D
        assert u[-1] == 1 and len(u) == 3


def test_fixture_doubles_each_class_once(monkeypatch):
    # whether 3 D = 0 depends on the class alone, so the 240 sections cost
    # one doubling per nonzero class
    q, coeffs, secs, _ = load_default_fixture()
    F = GF(q)
    calls = []

    def counted(*args):
        calls.append(args)
        return cantor_add(*args)
    monkeypatch.setattr(sections, "cantor_add", counted)
    rep = verify_section_fixture(F, [F.from_int(c) for c in coeffs], secs)
    assert rep["torsion_ok"] and rep["class_count"] == 80
    assert len(calls) == 80


def test_section_through_a_cusp_fails_without_its_flip():
    # a = x^2 + x and b vanish together at x = 0, where f = b^2 - a^3
    # vanishes: the section meets the cusp of the fibre z^3 = y^2 there.
    # Dropping its flip leaves it the one section to cover itself
    F = GF(13)
    mul = F.mul_table
    b3 = F.sqrt(1)
    # the x^5 coefficient 2 b3 b2 - 3 of b^2 - a^3 is 1
    s = Section((0, 1, 1), (0, 5, mul[F.from_int(2)][F.inv(b3)], b3))
    f = psub(F, pmul(F, s.b, s.b), pmul(F, pmul(F, s.a, s.a), s.a))
    assert len(f) == 6 and f[5] == 1
    found = find_sections(F, f)
    flip = neg_section(F, s)
    assert s in found and flip in found
    without_flip = [t for t in found if t != flip]
    rep = verify_section_fixture(F, f, without_flip)
    assert not rep["closed_under_flip"] and not rep["cusp_avoidance_ok"]
    for secs in (found, found[::-1], [s]):
        assert not verify_section_fixture(F, f, secs)["cusp_avoidance_ok"]


def test_twist_orbit_shares_class(small):
    F, f, secs = small
    for s in secs:
        assert section_class(F, s) == section_class(F, twist_section(F, s))


def twist_exponent_pairing(F, s, t):
    """Oracle: exponent of the central pairing via intersection counts with
    and without one twist, reduced mod 3."""
    return (_pairing_by_gcd(F, s, t)
            - _pairing_by_gcd(F, twist_section(F, s), t)) % 3


def _table_exponents(F, secs):
    P = pairing_table(F, secs)
    index = {s: i for i, s in enumerate(secs)}
    tau = [index[twist_section(F, s)] for s in secs]
    return P, twist_exponents(P, tau)


def test_pairing_table_and_exponents_match_oracle(small):
    F, f, secs = small
    P, E = _table_exponents(F, secs)
    for i, s in enumerate(secs):
        for j, t in enumerate(secs):
            assert P[i][j] == _pairing_by_gcd(F, s, t)
            assert E[i][j] == twist_exponent_pairing(F, s, t)


def test_fixture_exponents_match_oracle(report):
    # the table-derived exponents of the first eight sections against
    # every section, as the sections suite reads them
    q, coeffs, secs, _ = load_default_fixture()
    F = GF(q)
    P, E = _table_exponents(F, secs)
    for i, s in enumerate(secs[:8]):
        assert list(E[i]) == [twist_exponent_pairing(F, s, t) for t in secs]
    assert report.passed("sections", "fixture_twist_exponents")


def test_default_fixture_complete(report):
    q, coeffs, secs, row = load_default_fixture()
    assert q == 169 and len(secs) == 240 and row == E8_ROW
    assert report.passed("sections", "fixture_rescan_count",
                         "fixture_matches_scan")


def test_fixture_roundtrip():
    q, coeffs, secs, row = load_default_fixture()
    text = fixture_to_json(q, coeffs, secs, row)
    assert fixture_from_json(text)[0] == q
    assert fixture_to_json(*fixture_from_json(text)) == text


def test_sp4_strategies_agree(report):
    assert report.passed("sections", "sp4_order", "sp4_density")


def test_sp4_identity_in_C():
    # M - I = 0 for M = I, so every minor and every cofactor vanishes
    from e8g3.heis import CLASSES, UNIT_CODES
    from e8g3.sp4 import _cofactor_row, _minors
    e1, e2, f1, _ = ([x - (r == j) for r, x in enumerate(CLASSES[code])]
                     for j, code in enumerate(UNIT_CODES))
    assert _minors(e1, f1) == (0,) * 6
    assert _cofactor_row(_minors(e1, f1), e2) == (0, 0, 0, 0)
