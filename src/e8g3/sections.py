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
from collections import Counter, namedtuple

from .finitefield import (
    GF,
    field_order,
    pmod,
    pmonic,
    pxgcd,
    quadratic_roots,
)
from .jacobian import IDENTITY, cantor_add, cantor_neg
from .rootsys import E8_ROW


class Section(namedtuple("Section", "a b")):
    """a (degree 2) and b (degree 3) as low-to-high coefficient tuples."""
    __slots__ = ()


def find_sections(F: GF, f):
    """All sections over F of y^2 = z^3 + f(x), f a monic quintic: for each
    a2 (a nonzero square, b3^2 = a2^3) and a1, solve for a0 and extract b
    as a formal square root of a^3 + f.

    The x^5 and x^4 coefficients of b^2 = a^3 + f fix b2 and then b1, and
    the x^3 coefficient fixes b0; b1 and b0 are affine in a0.  So the x^2
    coefficient is an equation in a0 of degree at most 2, whose a0^2
    coefficient is -3 a2 / 4 (in characteristic 3 the equation is a
    constant).  Its roots, or every a0 when it vanishes identically, are
    the only candidates, and each must pass the x^2, x^1 and x^0
    equations.  The cube (a2 x^2 + a1 x + a0)^3 is expanded by hand; each
    (a2, a1) costs a fixed number of table lookups and one root
    extraction, so the search makes O(q^2) lookups where a scan over a0
    makes O(q^3).
    """
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
        # b1 = alpha + beta a0 and b0 = gamma + delta a0
        beta = Minv2b3[M3[square[a2]]]
        c2 = sub[square[beta]][M3[a2]]
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
            alpha = Minv2b3[K4[0]]
            gamma = Minv2b3[sub[K3[0]][M2b2[alpha]]]
            delta = Minv2b3[sub[M6a1a2[1]][M2b2[beta]]]
            # b1^2 + 2 b2 b0 - h2 = c2 a0^2 + c1 a0 + c0
            c1 = sub[add[M2[mul[alpha][beta]]][M2b2[delta]]][M3a1sq[1]]
            c0 = sub[add[square[alpha]][M2b2[gamma]]][f2c]
            for a0 in quadratic_roots(F, c0, c1, c2):
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
    row = F.mul_table[F.inv(z)]
    return Section(tuple(row[c] for c in s.a), s.b)


def neg_section(F: GF, s: Section) -> Section:
    neg = F.neg_table
    return Section(s.a, tuple(neg[c] for c in s.b))


def section_class(F: GF, s: Section):
    """Mumford divisor of the section: u the monic part of a, v = b mod u,
    as a pair of coefficient tuples (`jacobian.IDENTITY`'s shape)."""
    u = pmonic(F, s.a)
    return (tuple(u), tuple(pmod(F, s.b, u)))


def section_class_is_3torsion(F: GF, f, D) -> bool:
    """3 D = 0 for a section's class D = (u, v), tested as 2 D = -D."""
    return cantor_add(F, f, D, D) == cantor_neg(F, D)


def pairing_table(F: GF, sections) -> list:
    """Height pairing of every two sections: 2 on the diagonal, and one
    minus the total intersection number of two distinct section curves.

    With A = a_s - a_t and B = b_s - b_t, affine meetings contribute the
    degree of gcd(A, B) (the local contact order at a smooth fibre point is
    the minimum of the two vanishing orders).  Since deg A <= 2, that degree
    is read off in closed form from the remainder of B modulo the monic A.
    Meetings on the fibre over infinity contribute the common vanishing
    order at u = 1/x of the reversed differences: the first index from the
    top at which A or B is nonzero.  Each unordered pair is computed once,
    its differences read from the sub-table rows of the first section's
    coefficients.
    """
    if not all(len(s.a) == 3 and len(s.b) == 4 for s in sections):
        raise ValueError("a section has three a and four b coefficients")
    add, sub, mul, neg = F.add_table, F.sub_table, F.mul_table, F.neg_table
    inv = [0] + [F.inv(x) for x in range(1, F.q)]
    n = len(sections)
    P = [[2] * n for _ in range(n)]
    for i, ((a0, a1, a2), (b0, b1, b2, b3)) in enumerate(sections):
        S0, S1, S2 = sub[a0], sub[a1], sub[a2]
        T0, T1, T2, T3 = sub[b0], sub[b1], sub[b2], sub[b3]
        row = P[i]
        for j in range(i + 1, n):
            (c0, c1, c2), (d0, d1, d2, d3) = sections[j]
            A0, A1, A2 = S0[c0], S1[c1], S2[c2]
            B0, B1, B2, B3 = T0[d0], T1[d1], T2[d2], T3[d3]
            if A2 or B3:
                inf = 0
            elif A1 or B2:
                inf = 1
            elif A0 or B1:
                inf = 2
            elif B0:
                inf = 3
            else:
                raise ValueError("identical sections")
            if A2:
                # B mod x^2 + p x + r, one leading term at a time, is
                # R1 x + R0
                monic = mul[inv[A2]]
                p, r = monic[A1], monic[A0]
                C2 = sub[B2][mul[B3][p]]
                R1 = sub[sub[B1][mul[B3][r]]][mul[C2][p]]
                R0 = sub[B0][mul[C2][r]]
                if not R1:
                    affine = 0 if R0 else 2
                else:
                    x0 = neg[mul[R0][inv[R1]]]
                    affine = 0 if add[mul[add[x0][p]][x0]][r] else 1
            elif A1:
                x0 = neg[mul[A0][inv[A1]]]
                Bx0 = add[mul[add[mul[add[mul[B3][x0]][B2]][x0]][B1]][x0]][B0]
                affine = 0 if Bx0 else 1
            elif A0:
                affine = 0
            else:
                affine = 3 if B3 else 2 if B2 else 1 if B1 else 0
            row[j] = P[j][i] = 1 - affine - inf
    return P


def twist_exponents(P, tau) -> list:
    """Exponents e(s, t) = (P[s][t] - P[tau s][t]) mod 3 of the central
    pairing for every pair, read off the pairing table, one bytes row per
    section; tau[i] is the index of the twist of section i."""
    return [bytes((a - b) % 3 for a, b in zip(P[i], P[tau[i]]))
            for i in range(len(P))]


# x -> -x mod 3 on exponents, as a `bytes.translate` table
_NEG3 = bytes((0, 2, 1)) + bytes(253)


def verify_section_fixture(F: GF, f, sections) -> dict:
    """Closure, histogram, torsion, and class-fiber checks, and the
    twist exponents on every pair; one pairing table serves the histogram
    and the exponents."""
    out = {}
    index = {s: i for i, s in enumerate(sections)}
    flips = [index.get(neg_section(F, s)) for s in sections]
    out["closed_under_flip"] = None not in flips
    twists = [twist_section(F, s) for s in sections]
    out["closed_under_twist"] = all(t in index for t in twists)
    out["twist_free"] = all(t != s for s, t in zip(sections, twists))
    P = pairing_table(F, sections)
    hist = Counter(tuple(sorted(Counter(row).items())) for row in P)
    out["histogram_ok"] = hist == {E8_ROW: 240}
    cls = [section_class(F, s) for s in sections]
    classes = Counter(cls)
    # whether 3 D = 0 depends on the class D alone
    out["torsion_ok"] = all(section_class_is_3torsion(F, f, D)
                            for D in classes)
    nonzero = {k: v for k, v in classes.items() if k != IDENTITY}
    out["class_count"] = len(nonzero)
    out["classes_ok"] = (len(nonzero) == 80
                         and all(v == 3 for v in nonzero.values()))
    # no section may pass through a fibre cusp (needed for the local
    # intersection formula): a and b never vanish together.  Since
    # gcd(a, -b) = gcd(a, b), a section whose flip sits earlier in the list
    # is covered by it; `index` holds the last position of each section,
    # so that flip is not skipped in turn
    out["cusp_avoidance_ok"] = all(
        len(pxgcd(F, s.a, s.b)[0]) <= 1
        for i, (s, j) in enumerate(zip(sections, flips))
        if j is None or j >= i)
    # each twist keeps the class, and e(s, t) + e(t, s) = 0 and
    # e(tau s, tau t) = e(s, t) on all pairs; both read the twist of every
    # section in the list
    fibers_ok = alt_ok = inv_ok = False
    if out["closed_under_twist"]:
        tau = [index[t] for t in twists]
        fibers_ok = all(cls[t] == D for t, D in zip(tau, cls))
        E = twist_exponents(P, tau)
        alt_ok = all(row.translate(_NEG3) == bytes(col)
                     for row, col in zip(E, zip(*E)))
        inv_ok = all(bytes(map(E[tau[i]].__getitem__, tau)) == row
                     for i, row in enumerate(E))
    out["twist_fibers_match_classes"] = fibers_ok
    out["twist_exponent_alternating"] = alt_ok
    out["twist_exponent_invariant"] = inv_ok
    return out


# -- fixture file -------------------------------------------------------------


def fixture_from_json(text: str):
    payload = json.loads(text)
    if payload["fixture_version"] != 1:
        raise ValueError("unsupported fixture version")
    p, _ = field_order(payload["q"])
    if (payload["q"] - 1) % 3:
        raise ValueError(f"F_{payload['q']} has no cube root of unity")
    fcoeffs = payload["f_coeffs_low_to_high"]
    if not (_int_list(fcoeffs) and len(fcoeffs) == 6):
        raise ValueError("f_coeffs_low_to_high must be a list of six ints")
    if fcoeffs[5] % p != 1:
        raise ValueError("f must be monic: its quintic coefficient is not "
                         f"1 mod {p}")
    pairs = payload["sections"]
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(_int_list, p))
            for p in pairs)):
        raise ValueError("each section must be a pair of int lists")
    if not all(len(a) == 3 and len(b) == 4 for a, b in pairs):
        raise ValueError("each section must have three a and four b "
                         "coefficients")
    q = payload["q"]
    if not all(0 <= c < q for a, b in pairs for c in a + b):
        raise ValueError(f"section coefficients must lie in 0..{q - 1}")
    sections = [Section(tuple(a), tuple(b)) for a, b in pairs]
    return (q, fcoeffs, sections,
            tuple(tuple(x) for x in payload["expected_histogram_row"]))


def _int_list(x) -> bool:
    return isinstance(x, list) and all(type(c) is int for c in x)


def fixture_text(fixture_path: str | None) -> str:
    """The sections fixture at the given path, else the packaged one."""
    if fixture_path:
        with open(fixture_path) as fh:
            return fh.read()
    from importlib import resources

    return resources.files("e8g3").joinpath(
        "fixtures/sections_q.json").read_text()


def load_default_fixture():
    return fixture_from_json(fixture_text(None))
