"""Cantor's group law with the general composition step, for the tests.

`jacobian.cantor_add` adds weight-2 divisors with a nonzero resultant in
closed form, and composes other coprime u1, u2 by the Chinese remainder
shortcut.  This is the step of Cantor (Math. Comp. 48, 1987) for every
pair, with both Euclids and the divisions by d, so a test that compares
the two checks the closed forms and the shortcut against the general
formula.
"""

from __future__ import annotations

from e8g3.finitefield import padd, pdivmod, pmod, pmonic, pmul, psub, pxgcd


def cantor_add_general(F, f, D1, D2):
    """D1 + D2 on reduced divisors of y^2 = f(x), deg f = 5."""
    u1, v1 = D1
    u2, v2 = D2
    d1, e1, e2 = pxgcd(F, u1, u2)
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
    neg = F.neg_table
    while len(u) - 1 > 2:
        u_new = pmonic(F, pdivmod(F, psub(F, f, pmul(F, v, v)), u)[0])
        v = [neg[c] for c in pmod(F, v, u_new)]
        u = u_new
    return (tuple(pmonic(F, u)), tuple(v))
