"""The wedge model's volume-sign table against the general sign routine,
and its integer brackets and slice report against the Fraction oracle."""

from fractions import Fraction

import wedge_oracle as oracle

from e8g3 import wedge
from e8g3.cuspdata import S_H
from e8g3.wedge import W3, W6, merge_sign


def _orders(s):
    """The (q, b, c), (q, a, c), (q, a, b) orders that `bracket36` forms
    from a basis triple (a, b, c)."""
    a, b, c = s
    for q in range(1, 10):
        yield q, b, c
        yield q, a, c
        yield q, a, b


def _sign_mismatches(sixes):
    return [(o, t) for t in sixes for s in W3 for o in _orders(s)
            if wedge._VOL[t].get(o, 0) != merge_sign(o, t)[1]]


def test_vol_table_matches_merge_sign():
    assert len(wedge._VOL) == 84
    assert all(len(signs) == 6 for signs in wedge._VOL.values())
    assert _sign_mismatches(W6) == []


def test_flipped_vol_sign_fails(monkeypatch):
    t = W6[0]
    signs = dict(wedge._VOL[t])
    first = next(iter(signs))
    signs[first] = -signs[first]
    monkeypatch.setattr(wedge, "_VOL", {**wedge._VOL, t: signs})
    assert _sign_mismatches([t])


def _scaled(M, k):
    return [[k * m for m in row] for row in M]


def test_int_bracket_is_nine_times_the_fraction_bracket():
    # every basis pair of degree 3 and degree 6
    bad = [(s, t) for s in W3 for t in W6
           if wedge.bracket36({s: 1}, {t: 1})
           != _scaled(oracle.bracket36({s: Fraction(1)}, {t: Fraction(1)}), 9)]
    assert bad == []


def test_int_wedge_matches_the_fraction_wedge():
    bad = [(s, t) for s in W3 for t in W3
           if wedge.wedge33({s: 1}, {t: 1})
           != oracle.wedge33({s: Fraction(1)}, {t: Fraction(1)})]
    assert bad == []


def test_int_action_matches_the_fraction_action():
    # the 80 sl9 basis matrices on E, and the grading element, scaled by
    # 3, on every basis triple
    E = {t: 1 for t in S_H}
    assert [wedge._act(A, E) for A in wedge.sl9_basis()] == [
        oracle.act(A, {t: Fraction(1) for t in S_H})
        for A in oracle.sl9_basis()]
    x3 = [18 * d - 88 for d in (0, 2, 3, 4, 5, 6, 7, 8, 9)]
    X3 = [[x3[i] if i == j else 0 for j in range(9)] for i in range(9)]
    X = [[Fraction(m, 3) for m in row] for row in X3]
    for t in W3 + W6:
        assert wedge._act(X3, {t: 1}) == {
            s: 3 * c for s, c in oracle.act(X, {t: Fraction(1)}).items()}


def test_int_slice_report_is_the_fraction_report():
    assert wedge.kostant_slice_report() == oracle.kostant_slice_report() == {
        "slice_dim": 4, "slice_degrees": [12, 18, 24, 30],
        "ad_e_kernel_dim": 8}
