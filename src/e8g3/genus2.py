"""Integral quintics y^2 = x^5 + c12 x^3 + c18 x^2 + c24 x + c30:
discriminant, height, minimality, and bounded enumeration."""

from __future__ import annotations

from collections import namedtuple

from .intlinalg import det_bareiss, det_laplace


class Quintic(namedtuple("Quintic", "c12 c18 c24 c30")):
    __slots__ = ()

    def coeffs(self):
        """Low-to-high coefficient list of x^5 + c12 x^3 + ... + c30."""
        return [self.c30, self.c24, self.c18, self.c12, 0, 1]

    def label(self):
        return (self.c12, self.c18, self.c24, self.c30)


def sylvester_matrix(f, g):
    """Sylvester matrix of two polynomials given low-to-high."""
    m = len(f) - 1
    n = len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return rows


def resultant(f, g, oracle=False):
    M = sylvester_matrix(f, g)
    return det_laplace(M) if oracle else det_bareiss(M)


def discriminant(q: Quintic, oracle=False) -> int:
    """disc(f) = Res(f, f') for monic quintics (the sign (-1)^(5*4/2) is +1)."""
    f = q.coeffs()
    fp = [i * f[i] for i in range(1, 6)]
    return resultant(f, fp, oracle=oracle)


def height_lt(q: Quintic, a: int) -> bool:
    """Ht(f) < a, via the exact comparisons |c_i|^120 < a^i."""
    if a < 1:
        raise ValueError("bound must be a positive integer")
    for c, i in ((q.c12, 12), (q.c18, 18), (q.c24, 24), (q.c30, 30)):
        if abs(c) ** 120 >= a ** i:
            return False
    return True


_MIN_EXPONENTS = (4, 6, 8, 10)


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
    b12, b18, b24, b30 = (coeff_bound(a, i) for i in (12, 18, 24, 30))
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
    box = max(coeff_bound(a, i) for i in (12, 18, 24, 30)) + 2
    out = []
    for c12 in range(-box, box + 1):
        for c18 in range(-box, box + 1):
            for c24 in range(-box, box + 1):
                for c30 in range(-box, box + 1):
                    q = Quintic(c12, c18, c24, c30)
                    if (height_lt(q, a) and discriminant(q, oracle=True) != 0
                            and is_minimal(q)):
                        out.append(q)
    return out
