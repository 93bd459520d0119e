"""E8 root lattice in the SL9-torus model.

Lattice elements are classes of integer 9-vectors with coordinate sum
divisible by 3, taken modulo the all-ones vector.  The canonical
representative is the unique lift with coordinate sum in {0, 3, 6}.  The
pairing (u, v) = sum(u_i v_i) - sum(u) sum(v) / 9 is even, unimodular,
and makes the norm-2 classes an E8 root system: 72 classes of shape
e_i - e_j, 84 of shape e_i + e_j + e_k, and their 84 negatives.
"""

from __future__ import annotations

import json
from functools import cache, cached_property
from itertools import combinations
from operator import mul

from .intlinalg import (
    det_bareiss,
    identity,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    smith_normal_form,
    unimodular_inverse,
)
from .report import sha256

FORMAT_VERSION = 1

# root basis used throughout, in this fixed order
S0_TRIPLES = ((2, 6, 7), (2, 5, 8), (3, 4, 8), (1, 6, 9),
              (3, 5, 7), (2, 4, 9), (1, 7, 8), (4, 5, 6))
# the same triples as 0-based coordinate slots
_BASIS_SLOTS = tuple((i - 1, j - 1, k - 1) for i, j, k in S0_TRIPLES)
# the pairings of one root with all 240, as sorted (value, count) pairs
E8_ROW = ((-2, 1), (-1, 56), (0, 126), (1, 56), (2, 1))


def canonical(v):
    """Canonical representative of the class of v (sum moved into {0,3,6})."""
    s = sum(v)
    if s % 3:
        raise ValueError(f"coordinate sum {s} not divisible by 3")
    shift = (s % 9 - s) // 9
    if shift:
        return tuple(x + shift for x in v)
    return tuple(v)


def sub(u, v):
    return canonical(tuple(a - b for a, b in zip(u, v)))


def neg(v):
    return canonical(tuple(-a for a in v))


def pairing(u, v) -> int:
    """Symmetric bilinear form; independent of the choice of lifts."""
    return sum(map(mul, u, v)) - sum(u) * sum(v) // 9


def lanes(values, bits: int) -> int:
    """sum(values[j] * 2**(bits * j)) over the sequence values, one
    `bits`-wide lane per value, by Horner's rule.

    The packing is linear in the values, and one-to-one on vectors whose
    entries lie below 2**(bits - 1) in absolute value (balanced digits).  A
    sum of packs whose lanes all end in [0, 2**bits) reads back lane by
    lane, as the bytes of the int at 8 bits."""
    code = 0
    for v in reversed(values):
        code = (code << bits) + v
    return code


def unlanes(code: int, bits: int, n: int) -> tuple:
    """The n lanes of code, at `bits` bits, each less 2**(bits - 1): the
    values v back from lanes(v, bits) + lanes([2**(bits - 1)] * n, bits)
    when every entry of v lies in [-2**(bits - 1), 2**(bits - 1))."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    return tuple((code >> bits * s & mask) - half for s in range(n))


# the 3-bit pack of the all-ones vector; the canonical sum of two roots has
# coordinates in [-3, 2], where 3-bit lanes are one-to-one
_PACKED_ONES = lanes((1,) * 9, 3)


# a root pairing p is kept in its 8-bit lane as the byte p + 2, in [0, 4];
# translated through this table the byte b becomes b - 2 as a two's
# complement byte, so the lanes 0..4 read back as -2..2 and every other
# lane as a value outside [-2, 2], which no pairing of roots takes
_LANE_PAIRING = bytes((b - 2) % 256 for b in range(256))


def weight_vector(triple):
    """Lattice vector e_i + e_j + e_k for a weight (i j k), 1-based."""
    v = [0] * 9
    for i in triple:
        v[i - 1] = 1
    return tuple(v)


def eij(i, j):
    """Lattice vector e_i - e_j (1-based)."""
    v = [0] * 9
    v[i - 1] = 1
    v[j - 1] -= 1
    return canonical(tuple(v))


class RootSystem:
    """The 240 roots with the elliptic order-3 symmetry and its coinvariants."""

    def __init__(self):
        roots = []
        for i in range(1, 10):
            for j in range(1, 10):
                if i != j:
                    roots.append(eij(i, j))
        triples = list(combinations(range(1, 10), 3))
        for t in triples:
            roots.append(weight_vector(t))
        for t in triples:
            roots.append(neg(weight_vector(t)))
        self.roots = tuple(roots)
        self.index = {r: i for i, r in enumerate(roots)}
        if len(self.index) != 240:
            raise AssertionError("root list has repeated entries")
        # sum_row's tables: the roots packed into 3-bit lanes, their
        # indices, and for a first summand of coordinate sum s (entry
        # s // 3) the packed roots less the packed all-ones vector where the
        # two sums reach 9
        self._packed = tuple(lanes(r, 3) for r in roots)
        self._packed_index = {c: i for i, c in enumerate(self._packed)}
        self._packed_shifted = tuple(
            tuple(c - _PACKED_ONES if s + sum(r) >= 9 else c
                  for c, r in zip(self._packed, roots))
            for s in (0, 3, 6))

        self.basis = tuple(weight_vector(t) for t in S0_TRIPLES)
        self.gram = [[pairing(a, b) for b in self.basis] for a in self.basis]
        if det_bareiss(self.gram) != 1:
            raise AssertionError("root basis Gram matrix is not unimodular")
        self.gram_inv = unimodular_inverse(self.gram)

        # elliptic element: tenth power of the Coxeter element for S0
        c = identity(8)
        for k in range(8):
            c = mat_mul(self._reflection_matrix(k), c)
        self.w = mat_pow(c, 10)
        # the basis coordinates of every root, and w on the roots read off
        # them: w maps coordinates to coordinates
        self.coords = self._root_coords()
        self.w_on_roots = self._w_on_roots()
        self._validate_w()

        snf_d, self.snf_u, _ = smith_normal_form(mat_sub(self.w, identity(8)))
        self.divisors = tuple(snf_d[i][i] for i in range(8))
        self._snf_u_inv = unimodular_inverse(self.snf_u)
        self._build_orbits()

    # -- basic coordinates -------------------------------------------------

    def to_basis(self, v):
        """Coordinates of the class of v in the S0 root basis."""
        pairs = [pairing(v, b) for b in self.basis]
        return tuple(mat_vec(self.gram_inv, pairs))

    def _root_coords(self):
        """`to_basis` of every root, in the order of `roots`.  The pairing
        of a root r with a basis root e_i + e_j + e_k is
        r_i + r_j + r_k - sum(r) / 3."""
        return tuple(
            tuple(mat_vec(self.gram_inv,
                          [r[i] + r[j] + r[k] - sum(r) // 3
                           for i, j, k in _BASIS_SLOTS]))
            for r in self.roots)

    def _w_on_roots(self):
        """The index of w r for every root r, None where w r is no root:
        w maps basis coordinates to basis coordinates."""
        position = {c: i for i, c in enumerate(self.coords)}
        return tuple(position.get(tuple(mat_vec(self.w, c)))
                     for c in self.coords)

    def from_basis(self, coords):
        acc = [0] * 9
        for c, b in zip(coords, self.basis):
            for i in range(9):
                acc[i] += c * b[i]
        return canonical(tuple(acc))

    @cached_property
    def pairs(self):
        """240 x 240 table of root pairings, rows as tuples, indexed like
        `roots`.

        Built on the first read from the nine columns of the 240 x 9 matrix
        of roots, each packed into 8-bit lanes (`lanes`), and the column
        of every root's sum / 3: row i, for root r, is the sum of r_k times
        column k less sum(r) / 3 times that column, which is `pairing` of
        r with every root, plus 2 in every lane, so each lane is one byte.
        The row is those bytes translated to two's complement bytes
        (`_LANE_PAIRING`) and read as signed bytes.  The rows are immutable
        because every reader of the root system shares them.
        """
        roots = self.roots
        n = len(roots)
        cols = [lanes(col, 8) for col in zip(*roots)]
        thirds = [sum(r) // 3 for r in roots]
        sums, twos = lanes(thirds, 8), lanes([2] * n, 8)
        rows = []
        for r, t in zip(roots, thirds):
            acc = twos - t * sums
            for x, col in zip(r, cols):
                if x:
                    acc += x * col
            rows.append(tuple(memoryview(
                acc.to_bytes(n, "little").translate(_LANE_PAIRING)).cast("b")))
        return tuple(rows)

    def sum_row(self, i, cols):
        """Index of root i + root j, or None where the sum is no root, for
        each index j of cols, in their order.

        The canonical sum is the packed sum, less the packed all-ones vector
        when the coordinate sums reach 9 (`lanes` is linear).  The row is
        computed on each call and not kept.
        """
        get, packed = self._packed_index.get, self._packed[i]
        shifted = self._packed_shifted[sum(self.roots[i]) // 3]
        return [get(packed + shifted[j]) for j in cols]

    def _reflection_matrix(self, k):
        """The reflection in basis root k on basis coordinates: x goes to
        x - (x, b_k) e_k, and (x, b_k) is gram[k] x, so only row k differs
        from the identity."""
        m = identity(8)
        m[k] = [int(j == k) - g for j, g in enumerate(self.gram[k])]
        return m

    def apply_w(self, v):
        """The symmetry w applied once to a vector of the root lattice."""
        return self.from_basis(mat_vec(self.w, self.to_basis(v)))

    def _validate_w(self):
        if None in self.w_on_roots:
            raise AssertionError("symmetry element does not permute the roots")
        if len(set(self.w_on_roots)) != 240:
            raise AssertionError("symmetry element is not injective on roots")

    def _build_orbits(self):
        seen = set()
        orbits = []
        for i in range(240):
            if i in seen:
                continue
            j = self.w_on_roots[i]
            k = self.w_on_roots[j]
            orbits.append((i, j, k))
            seen.update((i, j, k))
        self.orbits = tuple(orbits)
        self.orbit_of = [0] * 240
        for oi, orb in enumerate(self.orbits):
            for r in orb:
                self.orbit_of[r] = oi

    # -- coinvariants -------------------------------------------------------

    def project(self, v):
        """Class of v in the F_3^4 coinvariant space (SNF coordinates)."""
        return self.coords_class(self.to_basis(v))

    def coords_class(self, x):
        """`project` of the vector with basis coordinates x."""
        return tuple(sum(map(mul, row, x)) % 3 for row in self.snf_u[4:])

    def lift(self, cls):
        """A lattice vector projecting to the given coinvariant class."""
        x = [0, 0, 0, 0] + [c % 3 for c in cls]
        return self.from_basis(mat_vec(self._snf_u_inv, x))

    def symplectic_exponent(self, u, v) -> int:
        """Exponent k in <cls(u), cls(v)> = zeta^k, computed on lattice lifts."""
        return (pairing(u, v) - pairing(self.apply_w(u), v)) % 3

    def class_gram(self):
        """The pairing exponents of the lifts of the unit classes at the
        positions whose Smith divisor is 3, the Z/3 summands of the
        coinvariants: 4 x 4 for an elliptic w of order 3, and smaller,
        down to 0 x 0, where w - 1 has fewer divisors 3."""
        lifts = [self.from_basis([row[i] for row in self._snf_u_inv])
                 for i, d in enumerate(self.divisors) if d == 3]
        return [[self.symplectic_exponent(a, b) for b in lifts] for a in lifts]

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {
            "format_version": FORMAT_VERSION,
            "roots": [list(r) for r in self.roots],
            "w": [list(row) for row in self.w],
            "snf_divisors": list(self.divisors),
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":")).encode()
        return sha256(blob).hexdigest()


@cache
def build_root_system() -> RootSystem:
    """Construct (once per process) the full root-system data."""
    return RootSystem()
