"""An independent model of Q(w) for the tests: elements as `Cyc` objects
with operators, and Gauss-Jordan elimination written once for any field
whose elements support + - * and an inverse.

The library holds Q(w) only as w-pairs (x, y), meaning x + y*w, and
eliminates on them with the products written out.  These oracles share
none of that pair code (not even `zeta_mul`), so a test that compares the
two checks one against the other.
"""

from __future__ import annotations

from fractions import Fraction

from e8g3.cyclotomic import rational


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
        """w**k for any integer k, as k % 3 products with w."""
        z = Cyc(1)
        for _ in range(k % 3):
            z = z * Cyc(0, 1)
        return z

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

    def pair(self):
        """The w-pair (a, b) of the library."""
        return self.a, self.b

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


def _coerce(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(w)")


def cyc(x) -> Cyc:
    """A library entry (a w-pair, an int or a Fraction) as a Cyc."""
    return Cyc(*x) if type(x) is tuple else Cyc(x)


def rref(rows, width):
    """Reduced row echelon form over Q(w), every entry read as a Cyc;
    returns (reduced_rows, pivot_columns)."""
    rows = [[cyc(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = prow[c].inverse()
        prow[:] = [x * inv for x in prow]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[:] = [x - f * p for x, p in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(rows, width):
    """Basis of the right kernel, one vector per free column of rref."""
    red, pivots = rref(rows, width)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        vec = [Cyc(0)] * width
        vec[fc] = Cyc(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve(rows, rhs, width):
    """The solution of rows @ x = rhs that is zero at every free column,
    or None if there is none."""
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)], width + 1)
    if width in pivots:
        return None
    x = [Cyc(0)] * width
    for r, pc in enumerate(pivots):
        x[pc] = red[r][width]
    return x
