"""Divisor arithmetic on y^2 = f(x) for monic quintics over odd finite
fields: composition and reduction on degree-at-most-2 representatives,
full group enumeration at small q, and the point-count order oracle.

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


def is_reduced(F, f, D) -> bool:
    u, v = D
    if not u or u[-1] != 1 or len(u) - 1 > 2:
        return False
    if len(v) >= len(u) and not (len(u) == 1 and not v):
        return False
    return not pmod(F, psub(F, pmul(F, v, v), f), u)


IDENTITY = ((1,), ())


def cantor_neg(F, D):
    u, v = D
    neg = F.neg_table
    return (u, tuple(neg[c] for c in v))


def cantor_add(F, f, D1, D2):
    """Group law on reduced divisors for y^2 = f(x), deg f = 5.

    Composition is Cantor's (Math. Comp. 48, 1987).  When u1 and u2 are
    coprime, e1 u1 + e2 u2 = 1, the common divisor d is 1: u = u1 u2 and
    v = v2 + e2 u2 (v1 - v2) mod u, the one v with v = v1 mod u1 and
    v = v2 mod u2, so the second Euclid and the divisions by d are
    skipped."""
    for D in (D1, D2):
        if not is_reduced(F, f, D):
            raise NonReducedInputError(repr(D))
    u1, v1 = D1
    u2, v2 = D2
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
    candidate v passes the division test."""
    add, mul, neg = F.add_table, F.mul_table, F.neg_table
    q = F.q
    out = [IDENTITY]
    us = [(neg[t], 1) for t in range(q)]
    us += [(u0, u1, 1) for u0 in range(q) for u1 in range(q)]
    for u in us:
        R0 = (pmod(F, f, u) or [0])[0]
        row = mul[u[0]]
        for v1 in range(q) if len(u) == 3 else (0,):
            c0 = neg[add[R0][row[mul[v1][v1]]]]
            for v0 in quadratic_roots(F, c0, 0, 1):
                v = ptrim([v0, v1])
                if not pmod(F, psub(F, pmul(F, v, v), f), u):
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
