"""E8 root lattice in the SL9-torus model.

Lattice elements are classes of integer 9-vectors with coordinate sum
divisible by 3, taken modulo the all-ones vector.  The canonical
representative is the unique lift with coordinate sum in {0, 3, 6}.  The
pairing (u, v) = sum(u_i v_i) - sum(u) sum(v) / 9 is even, unimodular,
and makes the norm-2 classes an E8 root system: 72 classes of shape
e_i - e_j, 84 of shape e_i + e_j + e_k, and their 84 negatives.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

from .intlinalg import (
    det_bareiss,
    identity,
    mat_eq,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    smith_normal_form,
    unimodular_inverse,
)

FORMAT_VERSION = 1

# root basis used throughout, in this fixed order
S0_TRIPLES = ((2, 6, 7), (2, 5, 8), (3, 4, 8), (1, 6, 9),
              (3, 5, 7), (2, 4, 9), (1, 7, 8), (4, 5, 6))


def canonical(v):
    """Canonical representative of the class of v (sum moved into {0,3,6})."""
    s = sum(v)
    if s % 3:
        raise ValueError(f"coordinate sum {s} not divisible by 3")
    shift = (s % 9 - s) // 9
    if shift:
        return tuple(x + shift for x in v)
    return tuple(v)


def add(u, v):
    return canonical(tuple(a + b for a, b in zip(u, v)))


def sub(u, v):
    return canonical(tuple(a - b for a, b in zip(u, v)))


def neg(v):
    return canonical(tuple(-a for a in v))


def smul(k, v):
    return canonical(tuple(k * a for a in v))


def pairing(u, v) -> int:
    """Symmetric bilinear form; independent of the choice of lifts."""
    su, sv = sum(u), sum(v)
    return sum(a * b for a, b in zip(u, v)) - (su * sv) // 9


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

        self.basis = tuple(weight_vector(t) for t in S0_TRIPLES)
        self.gram = [[pairing(a, b) for b in self.basis] for a in self.basis]
        if det_bareiss(self.gram) != 1:
            raise AssertionError("root basis Gram matrix is not unimodular")
        self._gram_inv = unimodular_inverse(self.gram)

        # elliptic element: tenth power of the Coxeter element for S0
        c = identity(8)
        for k in range(8):
            c = mat_mul(self._reflection_matrix(k), c)
        self.coxeter = c
        self.w = mat_pow(c, 10)
        self._validate_w()

        wm1 = mat_sub(self.w, identity(8))
        self.snf_d, self.snf_u, self.snf_v = smith_normal_form(wm1)
        self.divisors = tuple(self.snf_d[i][i] for i in range(8))
        if self.divisors != (1, 1, 1, 1, 3, 3, 3, 3):
            raise AssertionError(f"unexpected SNF divisors {self.divisors}")
        self._snf_u_inv = unimodular_inverse(self.snf_u)

        self.w_on_roots = tuple(self.index[self.apply_w(r)] for r in self.roots)
        self._build_orbits()

    # -- basic coordinates -------------------------------------------------

    def to_basis(self, v):
        """Coordinates of the class of v in the S0 root basis."""
        pairs = [pairing(v, b) for b in self.basis]
        return tuple(mat_vec(self._gram_inv, pairs))

    def from_basis(self, coords):
        acc = [0] * 9
        for c, b in zip(coords, self.basis):
            for i in range(9):
                acc[i] += c * b[i]
        return canonical(tuple(acc))

    def _reflection_matrix(self, k):
        cols = []
        beta = self.basis[k]
        for b in self.basis:
            img = sub(b, smul(pairing(b, beta), beta))
            cols.append(self.to_basis(img))
        return [[cols[j][i] for j in range(8)] for i in range(8)]

    def apply_w(self, v, power=1):
        m = self.w if power == 1 else mat_pow(self.w, power % 3)
        return self.from_basis(mat_vec(m, self.to_basis(v)))

    def _validate_w(self):
        if not mat_eq(mat_pow(self.w, 3), identity(8)):
            raise AssertionError("order-3 check failed for the symmetry element")
        if det_bareiss(mat_sub(self.w, identity(8))) == 0:
            raise AssertionError("symmetry element has a nonzero fixed vector")
        img = set()
        for r in self.roots:
            rr = self.apply_w(r)
            if rr not in self.index:
                raise AssertionError("symmetry element does not permute the roots")
            img.add(rr)
        if len(img) != 240:
            raise AssertionError("symmetry element is not injective on roots")

    def _build_orbits(self):
        seen = set()
        orbits = []
        for i in range(240):
            if i in seen:
                continue
            j = self.w_on_roots[i]
            k = self.w_on_roots[j]
            if len({i, j, k}) != 3:
                raise AssertionError("symmetry element fixes a root")
            orbits.append((i, j, k))
            seen.update((i, j, k))
        self.orbits = tuple(orbits)
        self.orbit_of = [0] * 240
        for oi, orb in enumerate(self.orbits):
            for r in orb:
                self.orbit_of[r] = oi
        if len(self.orbits) != 80:
            raise AssertionError(f"{len(self.orbits)} root orbits, expected 80")

    # -- coinvariants -------------------------------------------------------

    def project(self, v):
        """Class of v in the F_3^4 coinvariant space (SNF coordinates)."""
        x = mat_vec(self.snf_u, self.to_basis(v))
        return tuple(c % 3 for c in x[4:])

    def lift(self, cls):
        """A lattice vector projecting to the given coinvariant class."""
        x = [0, 0, 0, 0] + [c % 3 for c in cls]
        return self.from_basis(mat_vec(self._snf_u_inv, x))

    def symplectic_exponent(self, u, v) -> int:
        """Exponent k in <cls(u), cls(v)> = zeta^k, computed on lattice lifts."""
        return (pairing(u, v) - pairing(self.apply_w(u), v)) % 3

    def class_gram(self):
        lifts = [self.lift(tuple(int(i == j) for j in range(4))) for i in range(4)]
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
        return hashlib.sha256(blob).hexdigest()


_CACHED = None


def build_root_system() -> RootSystem:
    """Construct (once per process) the full root-system data."""
    global _CACHED
    if _CACHED is None:
        _CACHED = RootSystem()
    return _CACHED
