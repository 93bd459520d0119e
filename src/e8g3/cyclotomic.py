"""Exact arithmetic in Q(w), w a primitive cube root of unity."""

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


class Cyc:
    """Element a + b*w with w^2 + w + 1 = 0, components exact rationals.

    A component is stored as an int when it is integral and as a Fraction
    otherwise, so integral arithmetic runs on plain ints.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = rational(a)
        self.b = rational(b)

    @staticmethod
    def zeta(k: int) -> "Cyc":
        """w**k for any integer k."""
        return Cyc(*zeta_mul(1, 0, k))

    def __add__(self, other):
        other = _coerce(other)
        return Cyc(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Cyc(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Cyc(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        # (a + bw)(c + dw) = ac + (ad + bc)w + bd w^2, w^2 = -1 - w
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return Cyc(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def conj(self) -> "Cyc":
        """Complex conjugation, w -> w^2."""
        return Cyc(self.a - self.b, -self.b)

    def norm(self) -> int | Fraction:
        """a^2 - ab + b^2, the norm down to Q: an int when both components
        are ints, else a Fraction."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "Cyc":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(w)")
        c = self.conj()
        return Cyc(Fraction(c.a, n), Fraction(c.b, n))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, Cyc):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"Cyc({self.a!r}, {self.b!r})"


def zeta_mul(x, y, k):
    """(x + y w) * w^k as a pair, for any integer k."""
    k %= 3
    if k == 0:
        return x, y
    if k == 1:
        return -y, x - y
    return y - x, -x


def _coerce(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(w)")
