"""Section scan, intersection pairing, torsion descent, Sp4 density, and
the sections checks of the session report."""

import json

import pytest

from e8g3.finitefield import GF, pdivmod, pgcd, pmonic, pmul, psub, ptrim
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
