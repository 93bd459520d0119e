"""Exact arithmetic in Q(w), w a primitive cube root of unity."""

from __future__ import annotations

from fractions import Fraction


class Cyc:
    """Element a + b*w with w^2 + w + 1 = 0, components exact rationals."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @staticmethod
    def zeta(k: int) -> "Cyc":
        """w**k for any integer k."""
        k %= 3
        if k == 0:
            return Cyc(1, 0)
        if k == 1:
            return Cyc(0, 1)
        return Cyc(-1, -1)

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

    def norm(self) -> Fraction:
        """a^2 - ab + b^2, the norm down to Q."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "Cyc":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(w)")
        c = self.conj()
        return Cyc(c.a / n, c.b / n)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyc(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*w"
        return f"{self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*w"


def _coerce(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(w)")
