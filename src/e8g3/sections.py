"""Polynomial sections (a(x), b(x)) with b^2 = a^3 + f of the elliptic
surface y^2 = z^3 + f(x), their intersection pairing, and the descent to
3-torsion classes of the genus-2 Jacobian.

A section has deg a = 2 and deg b = 3 with lead(b)^2 = lead(a)^3, so
lead(a) ranges over nonzero squares; the twist (a, b) -> (z^-1 a, b) by a
cube root of unity z and the flip (a, b) -> (a, -b) act on the set.  The
240 sections of a split surface biject with the roots, and their twist
orbits with the 80 nonzero 3-torsion classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .finitefield import (
    GF,
    field_order,
    pgcd,
    pmod,
    pmonic,
    psub,
    squarefree_part,
)
from .jacobian import cantor_mul, IDENTITY


@dataclass(frozen=True)
class Section:
    a: tuple  # low-to-high, degree 2
    b: tuple  # low-to-high, degree 3

    def key(self):
        return (self.a, self.b)


def find_sections(F: GF, f):
    """All sections over F: scan z = a(x) with square leading coefficient
    and extract b as a formal square root of a^3 + f.

    The cube (a2 x^2 + a1 x + a0)^3 is expanded by hand; the scan makes
    O(q^2 (q-1)/2) table lookups, with the rows that depend only on a2 or
    a1 looked up once outside the loops they do not vary in.
    """
    out = []
    add, sub, mul, neg = F.add_table, F.sub_table, F.mul_table, F.neg_table
    two = F.from_int(2)
    three = F.from_int(3)
    six = F.from_int(6)
    half = F.inv(two)
    f0, f1c, f2c, f3c, f4c, _ = (list(f) + [0] * 6)[:6]
    squares = [t for t in range(1, F.q) if F.is_square(t)]
    elements = F.elements()
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


def twist_section(F: GF, s: Section) -> Section:
    z = F.zeta3()
    if z is None:
        raise ValueError("field has no cube root of unity")
    zi = F.inv(z)
    return Section(tuple(F.mul(zi, c) for c in s.a), s.b)


def neg_section(F: GF, s: Section) -> Section:
    return Section(s.a, tuple(F.neg(c) for c in s.b))


def distinct_common_roots(F: GF, s: Section, t: Section) -> int:
    """Number of distinct common zeros of (b - d, a - c): the transverse-
    intersection count (agrees with the full pairing when all meetings are
    simple and away from the fibre at infinity)."""
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
    if not g or len(g) == 1:
        return 0
    return len(squarefree_part(F, g)) - 1


def intersection_number(F: GF, s: Section, t: Section) -> int:
    """Total intersection number of two distinct section curves.

    Affine meetings contribute the full degree of gcd(b - d, a - c) (the
    local contact order at a smooth fibre point is the minimum of the two
    vanishing orders); meetings on the fibre over infinity contribute
    through the reversed coefficient sequences, whose common vanishing
    order at u = 0 plays the same role.
    """
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
    inf = min(_ord(rev_a), _ord(rev_b))
    return affine + inf


def _ord(seq) -> int:
    for i, c in enumerate(seq):
        if c:
            return i
    return 10**9


def section_pairing(F: GF, s: Section, t: Section) -> int:
    """Height pairing read off intersection numbers; 2 on the diagonal."""
    if s == t:
        return 2
    return 1 - intersection_number(F, s, t)


def twist_exponent_pairing(F: GF, s: Section, t: Section) -> int:
    """Exponent of the central pairing via intersection counts with and
    without one twist, reduced mod 3."""
    if s == t or s.key() == t.key():
        base = 2
    else:
        base = section_pairing(F, s, t)
    ts = twist_section(F, s)
    twisted = 2 if ts.key() == t.key() else section_pairing(F, ts, t)
    return (base - twisted) % 3


def section_class(F: GF, f, s: Section):
    """Mumford divisor of the section: u the monic part of a, v = b mod u."""
    u = pmonic(F, list(s.a))
    v = pmod(F, list(s.b), u)
    return (tuple(u), tuple(v))


def section_class_is_3torsion(F: GF, f, s: Section) -> bool:
    u, v = section_class(F, f, s)
    D = (list(u), list(v))
    return cantor_mul(F, f, D, 3) == IDENTITY


def pairing_histogram(F: GF, sections) -> dict:
    n = len(sections)
    rows = [dict() for _ in range(n)]
    for i in range(n):
        rows[i][2] = rows[i].get(2, 0) + 1
        for j in range(i + 1, n):
            p = section_pairing(F, sections[i], sections[j])
            rows[i][p] = rows[i].get(p, 0) + 1
            rows[j][p] = rows[j].get(p, 0) + 1
    hist = {}
    for row in rows:
        key = tuple(sorted(row.items()))
        hist[key] = hist.get(key, 0) + 1
    return hist


E8_ROW = ((-2, 1), (-1, 56), (0, 126), (1, 56), (2, 1))


def verify_section_fixture(F: GF, f, sections, seed: int = 0) -> dict:
    """Count, closure, histogram, torsion, and class-fiber checks."""
    out = {}
    out["count"] = len(sections)
    keyset = {s.key() for s in sections}
    out["closed_under_flip"] = all(neg_section(F, s).key() in keyset
                                   for s in sections)
    if F.zeta3() is not None:
        out["closed_under_twist"] = all(twist_section(F, s).key() in keyset
                                        for s in sections)
        out["twist_free"] = all(twist_section(F, s).key() != s.key()
                                for s in sections)
    hist = pairing_histogram(F, sections)
    out["histogram"] = hist
    out["histogram_ok"] = hist == {E8_ROW: 240}
    out["torsion_ok"] = all(section_class_is_3torsion(F, f, s)
                            for s in sections)
    classes = {}
    for s in sections:
        classes.setdefault(section_class(F, f, s), []).append(s)
    nonzero = {k: v for k, v in classes.items() if k != ((1,), ())}
    out["class_count"] = len(nonzero)
    out["classes_ok"] = (len(nonzero) == 80
                         and all(len(v) == 3 for v in nonzero.values()))
    if F.zeta3() is not None:
        fibers_ok = True
        for s in sections:
            t = twist_section(F, s)
            if section_class(F, f, s) != section_class(F, f, t):
                fibers_ok = False
        out["twist_fibers_match_classes"] = fibers_ok
    # no section may pass through a fibre cusp (needed for the local
    # intersection formula): a and b never vanish together
    out["cusp_avoidance_ok"] = all(
        not pgcd(F, list(s.a), list(s.b)) or
        len(pgcd(F, list(s.a), list(s.b))) == 1 for s in sections)
    import random
    rng = random.Random(f"{seed}:twistpairing")
    alt_ok = True
    inv_ok = True
    idxs = [rng.randrange(len(sections)) for _ in range(30)] if sections else []
    for i in idxs:
        for j in idxs[:8]:
            s, t = sections[i], sections[j]
            e1 = twist_exponent_pairing(F, s, t)
            e2 = twist_exponent_pairing(F, t, s)
            if (e1 + e2) % 3:
                alt_ok = False
            ts, tt = twist_section(F, s), twist_section(F, t)
            if twist_exponent_pairing(F, ts, tt) != e1:
                inv_ok = False
    out["twist_exponent_alternating"] = alt_ok
    out["twist_exponent_invariant"] = inv_ok
    out["ok"] = all(v for k, v in out.items()
                    if k.endswith("_ok") or k.startswith("closed")
                    or k in ("twist_free", "twist_fibers_match_classes"))
    return out


# -- fixture file -------------------------------------------------------------


def fixture_to_json(q: int, quintic_coeffs, sections, histogram_row) -> str:
    payload = {
        "fixture_version": 1,
        "q": q,
        "f_coeffs_low_to_high": list(quintic_coeffs),
        "sections": sorted([list(s.a), list(s.b)] for s in sections),
        "expected_histogram_row": [list(x) for x in histogram_row],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def fixture_from_json(text: str):
    payload = json.loads(text)
    if payload["fixture_version"] != 1:
        raise ValueError("unsupported fixture version")
    field_order(payload["q"])
    sections = [Section(tuple(a), tuple(b)) for a, b in payload["sections"]]
    return (payload["q"], payload["f_coeffs_low_to_high"], sections,
            tuple(tuple(x) for x in payload["expected_histogram_row"]))


def load_default_fixture():
    from importlib import resources

    text = resources.files("e8g3").joinpath(
        "fixtures/sections_q.json").read_text()
    return fixture_from_json(text)
