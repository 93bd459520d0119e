"""Section scan, intersection pairing, torsion descent, Sp4 density, and
the sections checks of the session report."""

import pytest

from e8g3.finitefield import GF
from e8g3.genus2 import Quintic
from e8g3.sections import (
    E8_ROW,
    Section,
    distinct_common_roots,
    find_sections,
    fixture_from_json,
    fixture_to_json,
    intersection_number,
    load_default_fixture,
    neg_section,
    section_class,
    section_class_is_3torsion,
    section_pairing,
    twist_section,
)


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
