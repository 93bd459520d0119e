"""Divisor arithmetic on y^2 = f(x) for monic quintics over odd finite
fields: composition and reduction on degree-at-most-2 representatives,
full group enumeration at small q, and the point-count order oracle.

`cantor_add` adds two weight-2 divisors whose composition has d = 1 in
closed form (Cantor, Math. Comp. 48, 1987; Lange, AAECC 15, 2005): a
nonzero resultant Res(u1, u2), or Res(u, 2 v) for a doubling, gives
s by the inverse of a linear polynomial mod a quadratic, and the one
reduction step is read off the top coefficients.  A zero resultant or
a weight-1 input keeps Cantor's composition (`_cantor`), which covers
the common factors, opposite points and weight-3 sums that the closed
forms would each need a branch for.  f - v^2 mod u, for `is_reduced`
and `enumerate_jacobian`, is one closed-form residue (`_fold`).

A divisor (u, v) is a pair of hashable coefficient tuples, low degree
first, as `IDENTITY`, the zero class, and every divisor returned here
are; the polynomial kernels read tuples as they are."""

from __future__ import annotations

from .finitefield import (
    get_field,
    padd,
    pdivmod,
    peval,
    pmod,
    pmonic,
    pmul,
    psub,
    ptrim,
    pxgcd,
    quadratic_roots,
)
from .intlinalg import power


class DegreeShapeError(ValueError):
    pass


class NonzeroQuarticCoefficientError(ValueError):
    pass


class NonReducedInputError(ValueError):
    pass


def mumford_verify(F, u, v, r):
    """Check a decomposition triple and return the quintic u*v + r^2.

    u, v monic of degrees nu and 5 - nu, deg r <= nu - 1; the product
    must be a monic quintic with vanishing quartic coefficient.
    """
    nu = len(u) - 1
    if not u or u[-1] != 1 or nu not in (0, 1, 2):
        raise DegreeShapeError("u must be monic of degree 0, 1 or 2")
    if not v or v[-1] != 1 or len(v) - 1 != 5 - nu:
        raise DegreeShapeError("v must be monic of degree 5 - deg u")
    if len(r) > max(0, nu):
        raise DegreeShapeError("r must have degree below deg u")
    f = padd(F, pmul(F, u, v), pmul(F, r, r))
    if len(f) != 6 or f[5] != 1:
        raise DegreeShapeError("product is not a monic quintic")
    if f[4] != 0:
        raise NonzeroQuarticCoefficientError("quartic coefficient is nonzero")
    return f


def _fold(F, f, u, v):
    """(k, r) with f - v^2 = k u + r, deg r < deg u, as untrimmed lists,
    for u monic of degree at most 2 and deg v < deg u: f is divided by u
    synthetically, and v^2 mod u is written out from
    (v1 x + v0)^2 = v1^2 u + (2 v0 v1 - u1 v1^2) x + v0^2 - u0 v1^2."""
    add, sub, mul = F.add_table, F.sub_table, F.mul_table
    n = len(u) - 1
    a = list(f)
    low = u[:-1]
    for d in range(len(a) - 1, n - 1, -1):
        row = mul[a[d]]
        for i, y in enumerate(low, d - n):
            a[i] = sub[a[i]][row[y]]
    k, r = a[n:], a[:n]
    if v:
        v0 = v[0]
        r[0] = sub[r[0]][mul[v0][v0]]
        if len(v) == 2:
            v1 = v[1]
            sq = mul[v1][v1]
            k[0] = sub[k[0]][sq]
            r[0] = add[r[0]][mul[u[0]][sq]]
            r[1] = sub[r[1]][sub[mul[add[v0][v0]][v1]][mul[u[1]][sq]]]
    return k, r


def _mod2(F, c, e0, e1):
    """(r0, r1): c0 + c1 x + c2 x^2 + c3 x^3 mod x^2 + e1 x + e0."""
    sub, mul = F.sub_table, F.mul_table
    c0, c1, c2, c3 = c
    t2 = sub[c2][mul[c3][e1]]
    return (sub[c0][mul[t2][e0]],
            sub[sub[c1][mul[c3][e0]]][mul[t2][e1]])


def is_reduced(F, f, D) -> bool:
    u, v = D
    if not u or u[-1] != 1 or len(u) > 3 or len(v) >= len(u):
        return False
    return not any(_fold(F, f, u, v)[1])


IDENTITY = ((1,), ())


def cantor_neg(F, D):
    u, v = D
    neg = F.neg_table
    return (u, tuple(neg[c] for c in v))


def cantor_add(F, f, D1, D2):
    """Group law on reduced divisors for y^2 = f(x), deg f = 5, f monic.

    A weight-0 input returns the other.  Two weight-2 inputs whose
    composition has d = 1 take closed forms in Mumford coordinates (Cantor,
    Math. Comp. 48, 1987; Lange, AAECC 15, 2005): for an addition the
    resultant Res(u1, u2) is nonzero and s = (v1 - v2) u2^-1 mod u1, for
    a doubling Res(u, 2 v) is nonzero and s = ((f - v^2)/u) (2 v)^-1 mod u.
    Then v = v2 + s u2 on u1 u2, and its one reduction step is
    u' = monic((s^2 u2 + 2 s v2 - (f - v2^2)/u2)/u1), v' = -v mod u',
    of weight 1 when s1 = 0.  Every other pair, a zero resultant or a
    weight-1 input, takes Cantor's composition (`_cantor`)."""
    for D in (D1, D2):
        if not is_reduced(F, f, D):
            raise NonReducedInputError(repr(D))
    u1, v1 = D1
    u2, v2 = D2
    if len(u1) == 1:
        return tuple(u2), tuple(v2)
    if len(u2) == 1:
        return tuple(u1), tuple(v1)
    if len(u1) == 2 or len(u2) == 2:
        return _cantor(F, f, u1, v1, u2, v2)
    add, sub, mul, neg = F.add_table, F.sub_table, F.mul_table, F.neg_table
    a0, a1 = u1[0], u1[1]
    b0, b1 = u2[0], u2[1]
    x0, x1 = (*v1, 0, 0)[:2]
    c0, c1 = (*v2, 0, 0)[:2]
    # s = d w^-1 mod u1 with, for a doubling, d = (f - v^2)/u mod u and
    # w = 2 v, and for an addition d = v1 - v2 and w = u2 mod u1
    if u1 == u2 and v1 == v2:
        d0, d1 = _mod2(F, _fold(F, f, u1, v1)[0], a0, a1)
        w0, w1 = add[c0][c0], add[c1][c1]
    else:
        d0, d1 = sub[x0][c0], sub[x1][c1]
        w0, w1 = sub[b0][a0], sub[b1][a1]
    # res = Res(u1, w) and w^-1 = (w0 - a1 w1 - w1 x)/res
    res = add[sub[mul[w0][w0]][mul[mul[a1][w0]][w1]]][mul[a0][mul[w1][w1]]]
    if not res:
        return _cantor(F, f, u1, v1, u2, v2)
    r = F.inv(res)
    i0, i1 = mul[sub[w0][mul[a1][w1]]][r], mul[neg[w1]][r]
    e = mul[d1][i1]
    s0 = sub[mul[d0][i0]][mul[a0][e]]
    s1 = sub[add[mul[d1][i0]][mul[d0][i1]]][mul[a1][e]]
    # the top three coefficients of s^2 u2 + 2 s v2 - (f - v2^2)/u2, and
    # its quotient by u1
    ss, st = mul[s1][s1], add[mul[s0][s1]][mul[s0][s1]]
    n3 = sub[add[mul[ss][b1]][st]][1]
    n2 = sub[add[add[mul[ss][b0]][mul[st][b1]]][add[mul[s0][s0]][
        add[mul[s1][c1]][mul[s1][c1]]]]][sub[f[4]][b1]]
    q1 = sub[n3][mul[a1][ss]]
    q0 = sub[sub[n2][mul[a1][q1]]][mul[a0][ss]]
    # v = v2 + s u2 = y3 x^3 + y2 x^2 + y1 x + y0
    y3, y2 = s1, add[s0][mul[s1][b1]]
    y1 = add[add[mul[s0][b1]][mul[s1][b0]]][c1]
    y0 = add[mul[s0][b0]][c0]
    if s1:  # u' is the quotient over its leading coefficient s1^2
        inv = F.inv(ss)
        e0, e1 = mul[q0][inv], mul[q1][inv]
        r0, r1 = _mod2(F, (y0, y1, y2, y3), e0, e1)
        return (e0, e1, 1), ((neg[r0], neg[r1]) if r1 else
                             (neg[r0],) if r0 else ())
    # s1 = 0: the quotient is q0 - x, so u' = x - q0 and v' = -v(q0),
    # with y3 = 0
    val = neg[add[mul[add[mul[y2][q0]][y1]][q0]][y0]]
    return (neg[q0], 1), ((val,) if val else ())


def _cantor(F, f, u1, v1, u2, v2):
    """Cantor's composition and reduction (Math. Comp. 48, 1987), for the
    pairs the closed forms of `cantor_add` leave.  When u1 and u2 are
    coprime, e1 u1 + e2 u2 = 1, the common divisor d is 1: u = u1 u2 and
    v = v2 + e2 u2 (v1 - v2) mod u, the one v with v = v1 mod u1 and
    v = v2 mod u2, so the second Euclid and the divisions by d are
    skipped."""
    # composition
    d1, e1, e2 = pxgcd(F, u1, u2)
    if len(d1) == 1:
        u = pmul(F, u1, u2)
        v = pmod(F, padd(F, v2, pmul(F, pmul(F, e2, u2), psub(F, v1, v2))),
                 u)
    else:
        d, c1, c2 = pxgcd(F, d1, padd(F, v1, v2))
        # d = s1 u1 + s2 u2 + s3 (v1 + v2)
        s1 = pmul(F, c1, e1)
        s2 = pmul(F, c1, e2)
        s3 = c2
        u = pdivmod(F, pmul(F, u1, u2), pmul(F, d, d))[0]
        num = padd(F, padd(F, pmul(F, pmul(F, s1, u1), v2),
                           pmul(F, pmul(F, s2, u2), v1)),
                   pmul(F, s3, padd(F, pmul(F, v1, v2), f)))
        v = pmod(F, pdivmod(F, num, d)[0], u)
    # reduction
    neg = F.neg_table
    while len(u) - 1 > 2:
        u_new = pmonic(F, pdivmod(F, psub(F, f, pmul(F, v, v)), u)[0])
        v = [neg[c] for c in pmod(F, v, u_new)]
        u = u_new
    return (tuple(pmonic(F, u)), tuple(v))


def cantor_mul(F, f, D, n: int):
    """n D by double-and-add (`intlinalg.power` under `cantor_add`)."""
    return power(lambda x, y: cantor_add(F, f, x, y), D, n, IDENTITY)


def enumerate_jacobian(F, f):
    """All reduced divisors (u, v) with u | f - v^2, deg u <= 2: the zero
    class, then u = x - t by ascending t, then u = x^2 + u1 x + u0 by
    ascending (u0, u1), each u with its v by ascending (v1, v0).

    With R0 the constant coefficient of f mod u, the constant coefficient
    of f - v^2 mod u is R0 + u0 v1^2 - v0^2 (v1 = 0 for deg u = 1), so
    each v0 is a root of v0^2 = R0 + u0 v1^2 (`quadratic_roots`), and each
    candidate v passes the division test, both read from `_fold`."""
    add, mul, neg = F.add_table, F.mul_table, F.neg_table
    q = F.q
    out = [IDENTITY]
    us = [(neg[t], 1) for t in range(q)]
    us += [(u0, u1, 1) for u0 in range(q) for u1 in range(q)]
    for u in us:
        R0 = _fold(F, f, u, ())[1][0]
        row = mul[u[0]]
        for v1 in range(q) if len(u) == 3 else (0,):
            c0 = neg[add[R0][row[mul[v1][v1]]]]
            for v0 in quadratic_roots(F, c0, 0, 1):
                v = ptrim([v0, v1])
                if not any(_fold(F, f, u, v)[1]):
                    out.append((u, tuple(v)))
    return out


def curve_count(F, f) -> int:
    """|C(F_q)| for the smooth projective model (one point at infinity)."""
    n = 1
    for x in range(F.q):
        val = peval(F, f, x)
        if val == 0:
            n += 1
        elif F.is_square(val):
            n += 2
    return n


def jacobian_order_zeta(p: int, coeffs) -> int:
    """|J(F_p)| from the curve counts over F_p and F_{p^2}."""
    Fp = get_field(p)
    f1 = [c % p for c in coeffs]
    n1 = curve_count(Fp, f1)
    Fq = get_field(p * p)
    f2 = [Fq.from_int(c) for c in coeffs]
    n2 = curve_count(Fq, f2)
    a1 = n1 - p - 1
    a2, odd = divmod(n2 - p * p - 1 + a1 * a1, 2)
    if odd:
        raise AssertionError("N2 - p^2 - 1 + a1^2 is odd")
    return 1 + a1 + a2 + p * a1 + p * p
