"""Exact arithmetic in Q(w), w a primitive cube root of unity, on w-pairs:
(x, y) stands for x + y*w, components exact rationals."""

from __future__ import annotations

from fractions import Fraction


def rational(x):
    """x as an int when it is integral, else as a Fraction.

    Anything but an int or a Fraction (a float above all) is refused, so no
    inexact value enters Q(w).
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"{type(x).__name__} is not an exact rational")


def zeta_mul(x, y, k):
    """(x + y w) * w^k as a pair, for any integer k."""
    k %= 3
    if k == 0:
        return x, y
    if k == 1:
        return -y, x - y
    return y - x, -x


def qw_inverse(p):
    """1 / (a + b w) as a w-pair, components int where integral: the
    conjugate a + b w^2 = (a - b) - b w over the norm a^2 - ab + b^2."""
    a, b = p
    n = a * a - a * b + b * b
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(w)")
    return rational(Fraction(a - b, n)), rational(Fraction(-b, n))
