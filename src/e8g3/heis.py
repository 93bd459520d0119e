"""Heisenberg extension of the F_3^4 coinvariant space and its
9-dimensional representation over Q(w).

The group has 243 elements (k, v) with k in Z/3 central and v in F_3^4
written in symplectic coordinates (e1, e2, f1, f2), each held as the int
code 81 k + class_code(v); multiplication (`code_product`) twists by the
bilinear cocycle c(v, u) = v_e1 u_f1 + v_e2 u_f2, whose commutator is
the symplectic pairing inherited from the lattice.  The representation
acts on functions on F_3^2 by translations (e-part) and characters
(f-part); every group element maps to a monomial matrix, which keeps all
sweeps exact and fast.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .intlinalg import rref_mod
from .rootsys import RootSystem, build_root_system


def symplectic_basis(rs: RootSystem):
    """Classes (e1, e2, f1, f2) with <e_i, f_j> = delta_ij and zero elsewhere.

    Returns the change-of-basis matrix M (columns = the new basis in SNF
    coordinates), verified to be symplectic for the standard form.
    """
    gram = rs.class_gram()
    if len(rref_mod(gram, 4, 3)[1]) != 4:
        raise ValueError("pairing Gram has rank < 4; upstream construction bug")

    vecs = [tuple(int(i == j) for j in range(4)) for i in range(4)]

    def pair(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(4) for j in range(4)) % 3

    pool = list(vecs)
    es, fs = [], []
    for _ in range(2):
        e = pool[0]
        f = next(v for v in pool[1:] if pair(e, v) % 3)
        scale = pow(pair(e, f), -1, 3)
        f = tuple(scale * x % 3 for x in f)
        es.append(e)
        fs.append(f)
        rest = []
        for v in pool:
            if v in (e,):
                continue
            v2 = tuple((v[i] - pair(v, f) * e[i] + pair(v, e) * f[i]) % 3
                       for i in range(4))
            if v2 != (0, 0, 0, 0) and v2 not in rest:
                rest.append(v2)
        pool = [v for v in rest if pair(v, e) == 0 and pair(v, f) == 0]
    basis = es + fs  # order (e1, e2, f1, f2)
    M = [[basis[j][i] for j in range(4)] for i in range(4)]
    J = standard_form()
    got = [[pair(basis[i], basis[j]) for j in range(4)] for i in range(4)]
    if got != J:
        raise AssertionError("symplectic reduction failed")
    return M


def standard_form():
    """Matrix of the standard symplectic form in (e1, e2, f1, f2) order, mod 3."""
    return [[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 2, 0, 0]]


def cocycle(v, u) -> int:
    """c(v, u) = v_e1 u_f1 + v_e2 u_f2 in symplectic coordinates."""
    return (v[0] * u[2] + v[1] * u[3]) % 3


# An element zeta^k times the class v is coded 81 * k + c, with c in
# range(81) the base-3 code of v, first coordinate most significant:
# CLASSES[c] is v and class_code(v) is c
CLASSES = tuple(product(range(3), repeat=4))


def class_code(v) -> int:
    a, b, c, d = v
    return 27 * a + 9 * b + 3 * c + d


# _LAW[81 * v + u] = 81 * cocycle(v, u) + code of v + u, for class codes
# v and u; built on the first product
_LAW = None


def _build_law():
    global _LAW
    _LAW = bytes(81 * cocycle(v, u)
                 + class_code([(x + y) % 3 for x, y in zip(v, u)])
                 for v in CLASSES for u in CLASSES)
    return _LAW


def code_product(g: int, h: int) -> int:
    """Code of the product of the elements coded g and h: the centres add
    with the cocycle of the classes, and the classes add."""
    v, u = g % 81, h % 81
    return (g - v + h - u + (_LAW or _build_law())[81 * v + u]) % 243


def code_inverse(g: int) -> int:
    """Code of the inverse of the element coded g: the class negated, and
    the centre negated and moved by cocycle(v, v), since
    cocycle(v, -v) = -cocycle(v, v)."""
    k, c = divmod(g, 81)
    v = CLASSES[c]
    return 81 * ((cocycle(v, v) - k) % 3) + class_code([-x % 3 for x in v])


def commutator_exponent(v, u) -> int:
    return (cocycle(v, u) - cocycle(u, v)) % 3


# a monomial column is coded 3 * row + exponent, in range(27): CODE_ROW and
# CODE_EXPO split a code, and CODE_SHIFT[c][e] is code c with its exponent
# moved by e
CODE_SHIFT = tuple(tuple(c - c % 3 + (c + e) % 3 for e in range(3))
                   for c in range(27))
CODE_ROW = tuple(c // 3 for c in range(27))
CODE_EXPO = tuple(c % 3 for c in range(27))


class Mono:
    """9x9 monomial matrix with entries in the cube roots of unity.

    The matrix is the tuple of its column codes: column y has its unique
    nonzero entry zeta^e in row r, coded 3 r + e.
    """

    __slots__ = ("codes",)

    def __init__(self, codes):
        self.codes = codes

    def __mul__(self, other):
        # column y of the product: with column y of other coded 3 r + e,
        # column r of self, its exponent moved by e
        c1 = self.codes
        return Mono(tuple([CODE_SHIFT[c1[CODE_ROW[c]]][CODE_EXPO[c]]
                           for c in other.codes]))

    def inverse(self):
        codes = [0] * 9
        for y, c in enumerate(self.codes):
            codes[CODE_ROW[c]] = 3 * y + -CODE_EXPO[c] % 3
        return Mono(tuple(codes))

    def __eq__(self, other):
        return self.codes == other.codes

    def __hash__(self):
        return hash(self.codes)

    def trace(self):
        """The trace as the pair (x, y) of x + y w."""
        # n[e]: diagonal entries zeta^e; 1 + w + w^2 = 0
        n = [0, 0, 0]
        for y, c in enumerate(self.codes):
            if CODE_ROW[c] == y:
                n[CODE_EXPO[c]] += 1
        return n[0] - n[2], n[1] - n[2]

    def scalar_ratio(self, other):
        """If self = zeta^t * other, return t; else None."""
        t = (self.codes[0] - other.codes[0]) % 3
        if self.codes != tuple([CODE_SHIFT[c][t] for c in other.codes]):
            return None
        return t


def svn_rep(g: int) -> Mono:
    """Stone-von-Neumann action of the element coded g on functions on
    F_3^2.

    With g = 81 k + class_code((a1, a2, b1, b2)): translate by (a1, a2),
    multiply by the character (s, t) -> zeta^(b1 s + b2 t), and scale by
    zeta^k.
    """
    k, c = divmod(g, 81)
    a1, a2, b1, b2 = CLASSES[c]
    codes = []
    for y in range(9):
        s, t = divmod(y, 3)
        s2, t2 = (s - a1) % 3, (t - a2) % 3
        codes.append(3 * (3 * s2 + t2) + (k + b1 * s2 + b2 * t2) % 3)
    return Mono(tuple(codes))


class HeisenbergModel:
    """Symplectic coordinates and class conversions of the cached roots."""

    def __init__(self):
        self.rs: RootSystem = build_root_system()
        self.M = symplectic_basis(self.rs)
        # columns of M are the symplectic basis in SNF coordinates;
        # [M | I] reduces to [I | M^-1] over F_3
        red, pivots = rref_mod([row + [int(i == j) for j in range(4)]
                                for i, row in enumerate(self.M)], 8, 3)
        if pivots != [0, 1, 2, 3]:
            raise ValueError("symplectic change of basis is singular")
        self.Minv = [row[4:] for row in red]

    def to_symplectic(self, snf_cls):
        return tuple(sum(self.Minv[i][j] * snf_cls[j] for j in range(4)) % 3
                     for i in range(4))

    def from_symplectic(self, v):
        return tuple(sum(self.M[i][j] * v[j] for j in range(4)) % 3
                     for i in range(4))

    def root_class(self, root9):
        return self.to_symplectic(self.rs.project(root9))


@cache
def build_model() -> HeisenbergModel:
    """The Heisenberg model, built once per process."""
    return HeisenbergModel()
