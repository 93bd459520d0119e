"""Section scan, intersection pairing, torsion descent, Sp4 density, and
the sections checks of the session report."""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8g3.finitefield import (GF, padd, pdivmod, pgcd, pmonic, pmul, psub,
                              ptrim)
from e8g3.genus2 import Quintic
from e8g3.sections import (
    E8_ROW,
    Section,
    find_sections,
    fixture_from_json,
    intersection_number,
    load_default_fixture,
    neg_section,
    section_class,
    section_class_is_3torsion,
    section_pairing,
    twist_section,
)


def squarefree_part(F, a):
    """Monic radical of a nonzero polynomial (counts distinct roots)."""
    if not a:
        raise ValueError("zero polynomial")
    d = ptrim([F.mul(F.from_int(i), a[i]) for i in range(1, len(a))])
    if not d:
        # perfect p-th power over F_q; recurse on the p-th root
        p = F.p
        root = [a[i] for i in range(0, len(a), p)]
        # p-th root of each coefficient: c -> c^(q/p) since Frobenius is
        # bijective; q/p = p^(k-1)
        root = [F.exp[(F.log[c] * (F.q // p)) % (F.q - 1)] if c else 0
                for c in root]
        return squarefree_part(F, root)
    g = pgcd(F, a, d)
    rad, rem = pdivmod(F, a, g)
    assert not rem, "gcd(a, a') does not divide a"
    base = pmonic(F, rad)
    extra = squarefree_part(F, g) if len(g) > 1 else []
    if extra:
        # distinct factors of a = factors of base together with those of g
        quot, _ = pdivmod(F, pmul(F, base, extra), pgcd(F, base, extra))
        return pmonic(F, quot)
    return base


def test_squarefree_part():
    F = GF(7)
    # (x - 1)^2 (x - 2)
    p = pmul(F, pmul(F, [6, 1], [6, 1]), [5, 1])
    rad = squarefree_part(F, p)
    assert rad == pmul(F, [6, 1], [5, 1])


def _intersection_by_gcd(F, s, t):
    """Oracle for intersection_number: the Euclidean gcd of the differences
    for the affine part, and the common vanishing order of the reversed
    differences for the fibre at infinity."""
    g1 = psub(F, list(s.b), list(t.b))
    g2 = psub(F, list(s.a), list(t.a))
    if not g1 and not g2:
        raise ValueError("identical sections")
    if not g1:
        g = g2
    elif not g2:
        g = g1
    else:
        g = pgcd(F, g1, g2)
    affine = len(g) - 1 if g else 0
    # reversed differences as series in u = 1/x
    rev_a = [F.sub(x, y) for x, y in zip(reversed(s.a), reversed(t.a))]
    rev_b = [F.sub(x, y) for x, y in zip(reversed(s.b), reversed(t.b))]
    inf = min(next((i for i, c in enumerate(rev) if c), 10**9)
              for rev in (rev_a, rev_b))
    return affine + inf


@lru_cache(maxsize=None)
def _field(q):
    return GF(q)


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
    x_minus_root = [F.neg(root), 1]
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
    t = Section(tuple(F.sub(x, y) for x, y in zip(s.a, A)),
                tuple(F.sub(x, y) for x, y in zip(s.b, B)))
    return F, s, t


@settings(deadline=None, derandomize=True, max_examples=400)
@given(section_pairs())
def test_intersection_number_matches_gcd_oracle(case):
    F, s, t = case
    if s == t:
        with pytest.raises(ValueError):
            intersection_number(F, s, t)
    else:
        assert intersection_number(F, s, t) == _intersection_by_gcd(F, s, t)


def test_intersection_number_rejects_bad_input(small):
    F, f, secs = small
    s = secs[0]
    with pytest.raises(ValueError, match="identical"):
        intersection_number(F, s, Section(s.a, s.b))
    with pytest.raises(ValueError):
        intersection_number(F, Section(s.a + (0,), s.b), secs[1])


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
        g = pgcd(F, g1, g2)
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
    keys = {s.key() for s in secs}
    for s in secs:
        assert neg_section(F, s).key() in keys
        assert twist_section(F, s).key() in keys
        assert twist_section(F, s).key() != s.key()


def test_pairing_conventions(small):
    F, f, secs = small
    s = secs[0]
    assert section_pairing(F, s, s) == 2
    assert section_pairing(F, s, neg_section(F, s)) == -2
    t = twist_section(F, s)
    assert section_pairing(F, s, t) == -1
    assert section_pairing(F, s, t) == section_pairing(F, t, s)


def test_pairing_range(small):
    F, f, secs = small
    for s in secs:
        for t in secs:
            assert -2 <= section_pairing(F, s, t) <= 2


def test_distinct_count_vs_intersection(small):
    # the set count never exceeds the multiplicity-aware count
    F, f, secs = small
    for s in secs:
        for t in secs:
            if s == t:
                continue
            assert distinct_common_roots(F, s, t) <= \
                intersection_number(F, s, t)


def test_torsion_descent(small):
    F, f, secs = small
    for s in secs:
        assert section_class_is_3torsion(F, f, s)
        u, v = section_class(F, f, s)
        assert u[-1] == 1 and len(u) == 3


def test_twist_orbit_shares_class(small):
    F, f, secs = small
    for s in secs:
        assert section_class(F, f, s) == \
            section_class(F, f, twist_section(F, s))


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
    from e8g3.sp4 import _has_eigenvalue_one, _identity
    assert _has_eigenvalue_one(_identity())
