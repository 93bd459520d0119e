"""The wedge model's volume-sign table against the general sign routine."""

from e8g3 import wedge
from e8g3.wedge import W3, W6, merge_sign, vol_coeff


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
            if vol_coeff(o, t) != merge_sign(o, t)[1]]


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
