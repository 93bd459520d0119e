"""Integral quintics y^2 = x^5 + c12 x^3 + c18 x^2 + c24 x + c30:
discriminant, height, minimality, and bounded enumeration."""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .intlinalg import det_bareiss

# the weights of c12, c18, c24, c30: with x, y of weights 6 and 15 every
# term of the equation has weight 30; they are the degrees of the Kostant
# slice of the graded E8 (`kostant.slice_report`)
WEIGHTS = (12, 18, 24, 30)


class Quintic(namedtuple("Quintic", "c12 c18 c24 c30")):
    __slots__ = ()

    def coeffs(self):
        """Low-to-high coefficient list of x^5 + c12 x^3 + ... + c30."""
        return [self.c30, self.c24, self.c18, self.c12, 0, 1]


def sylvester_matrix(f, g):
    """Sylvester matrix of two polynomials given low-to-high: deg g shifted
    rows of f, then deg f shifted rows of g, leading coefficients first."""
    m, n = len(f) - 1, len(g) - 1
    return ([[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)])


def resultant(f, g):
    """Res(f, g) as the determinant of the Sylvester matrix, by Bareiss."""
    return det_bareiss(sylvester_matrix(f, g))


def remainder_resultant(f, g):
    """Res(f, g) of f, g given low-to-high with nonzero leading coefficients,
    by the subresultant remainder sequence in integers, which takes no
    determinant (Collins, J. ACM 14, 1967; Cohen, GTM 138, Alg. 3.3.7).

    Each step pseudo-divides a by b, lc(b)^(d+1) a = q b + r with
    d = deg a - deg b, and goes on with (b, r / (lc h^d)) and the next
    h = h^(1-d) lc^d, lc being the leading coefficient of a (lc = h = 1
    at first); both divisions are exact.  Res(a, b) = (-1)^(deg a deg b)
    Res(b, a) gives the signs, and a zero remainder is a common factor.
    """
    if len(f) < len(g):
        return ((-1) ** ((len(f) - 1) * (len(g) - 1))
                * remainder_resultant(g, f))
    a, b = f[::-1], g[::-1]  # high to low
    sign = lc = h = 1
    while len(b) > 1:
        d = len(a) - len(b)
        sign *= (-1) ** ((len(a) - 1) * (len(b) - 1))
        r, lb = a, b[0]
        for _ in range(d + 1):
            c = r[0]
            r = [lb * x - c * y for x, y in zip(r[1:], b[1:])] + [
                lb * x for x in r[len(b):]]
        while r and r[0] == 0:
            del r[0]
        if not r:
            return 0
        a, b = b, [x // (lc * h ** d) for x in r]
        lc = a[0]
        h = h * lc ** d // h ** d
    return sign * h * b[0] ** (len(a) - 1) // h ** (len(a) - 1)


@cache
def discriminant(q: Quintic) -> int:
    """disc(f) = Res(f, f') for monic quintics (the sign (-1)^(5*4/2) is +1),
    by the Sylvester determinant; computed once per quintic per process."""
    f = q.coeffs()
    return resultant(f, [i * f[i] for i in range(1, 6)])


@cache
def remainder_discriminant(q: Quintic) -> int:
    """`discriminant` by `remainder_resultant`, which takes no determinant;
    computed once per quintic per process."""
    f = q.coeffs()
    return remainder_resultant(f, [i * f[i] for i in range(1, 6)])


def height_lt(q: Quintic, a: int) -> bool:
    """Ht(f) < a, via the exact comparisons |c_i|^120 < a^i."""
    if a < 1:
        raise ValueError("bound must be a positive integer")
    for c, i in zip(q, WEIGHTS):
        if abs(c) ** 120 >= a ** i:
            return False
    return True


# x -> n^2 x, y -> n^5 y divides the coefficient of weight w by n^(w/3)
_MIN_EXPONENTS = tuple(w // 3 for w in WEIGHTS)


def is_minimal(q: Quintic) -> bool:
    """No substitution x -> n^2 x, y -> n^5 y (n >= 2) keeps integrality.

    Equivalently no n >= 2 with n^4 | c12, n^6 | c18, n^8 | c24, n^10 | c30;
    the least such n is a prime, so trying every n in order finds a witness
    as soon as trying the primes alone would.
    """
    cs = (q.c12, q.c18, q.c24, q.c30)
    if all(c == 0 for c in cs):
        return False
    # any witness n satisfies n^e <= |c| for every nonzero c
    bound = min(_iroot(abs(c), e) for c, e in zip(cs, _MIN_EXPONENTS) if c)
    return not any(all(x % n**k == 0 for x, k in zip(cs, _MIN_EXPONENTS))
                   for n in range(2, bound + 1))


def _iroot(n: int, e: int) -> int:
    """Exact floor of the e-th root of a nonnegative integer, by Newton's
    method in integers from a start above the root."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def coeff_bound(a: int, i: int) -> int:
    """Largest |c| with |c|^120 < a^i, for a >= 1."""
    return _iroot(a ** i - 1, 120)


def height_box(a: int):
    """Every quintic whose coefficients meet the bounds of Ht < a, in
    lexicographic order of (c12, c18, c24, c30)."""
    if a < 1:
        raise ValueError("bound must be a positive integer")
    b12, b18, b24, b30 = (coeff_bound(a, i) for i in WEIGHTS)
    for c12 in range(-b12, b12 + 1):
        for c18 in range(-b18, b18 + 1):
            for c24 in range(-b24, b24 + 1):
                for c30 in range(-b30, b30 + 1):
                    yield Quintic(c12, c18, c24, c30)


def enumerate_min(a: int):
    """All minimal quintics of nonzero discriminant with Ht < a."""
    for q in height_box(a):
        if discriminant(q) != 0 and is_minimal(q):
            yield q


def enumerate_min_bruteforce(a: int):
    """Definitional nested-loop oracle: overshoot the box, filter by the
    height predicate itself."""
    box = max(coeff_bound(a, i) for i in WEIGHTS) + 2
    out = []
    for c12 in range(-box, box + 1):
        for c18 in range(-box, box + 1):
            for c24 in range(-box, box + 1):
                for c30 in range(-box, box + 1):
                    q = Quintic(c12, c18, c24, c30)
                    if (height_lt(q, a) and remainder_discriminant(q) != 0
                            and is_minimal(q)):
                        out.append(q)
    return out
