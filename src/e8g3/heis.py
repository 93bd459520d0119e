"""Heisenberg extension of the F_3^4 coinvariant space and its
9-dimensional representation over Q(w).

The group has 243 elements (k, v) with k in Z/3 central and v in F_3^4
written in symplectic coordinates (e1, e2, f1, f2); multiplication twists
by the bilinear cocycle c(v, u) = v_e1 u_f1 + v_e2 u_f2, whose commutator
is the symplectic pairing inherited from the lattice.  The representation
acts on functions on F_3^2 by translations (e-part) and characters
(f-part); every group element maps to a monomial matrix, which keeps all
sweeps exact and fast.
"""

from __future__ import annotations

from itertools import product

from .cyclotomic import Cyc
from .intlinalg import rref_mod
from .rootsys import RootSystem, build_root_system


def _sp_pair_exponents(rs: RootSystem):
    lifts = [rs.lift(tuple(int(i == j) for j in range(4))) for i in range(4)]
    return lifts, rs.class_gram()


def symplectic_basis(rs: RootSystem):
    """Classes (e1, e2, f1, f2) with <e_i, f_j> = delta_ij and zero elsewhere.

    Returns (basis_classes, M) where basis_classes are SNF-coordinate
    4-tuples and M is the change-of-basis matrix (columns = new basis in
    SNF coordinates), verified to be symplectic for the standard form.
    """
    lifts, gram = _sp_pair_exponents(rs)
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
    return basis, M


def standard_form():
    """Matrix of the standard symplectic form in (e1, e2, f1, f2) order, mod 3."""
    return [[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 2, 0, 0]]


def cocycle(v, u) -> int:
    """c(v, u) = v_e1 u_f1 + v_e2 u_f2 in symplectic coordinates."""
    return (v[0] * u[2] + v[1] * u[3]) % 3


class HeisElement(tuple):
    """Pair (k, v): central part zeta^k and class v in symplectic coordinates."""

    __slots__ = ()

    def __new__(cls, k, v):
        return tuple.__new__(cls, (k % 3, tuple(x % 3 for x in v)))

    @property
    def k(self):
        return self[0]

    @property
    def cls(self):
        return self[1]

    def __mul__(self, other):
        k1, v1 = self
        k2, v2 = other
        return HeisElement(k1 + k2 + cocycle(v1, v2),
                           tuple(a + b for a, b in zip(v1, v2)))

    def inverse(self):
        k, v = self
        vi = tuple(-x % 3 for x in v)
        return HeisElement(-k - cocycle(v, vi), vi)


IDENTITY = HeisElement(0, (0, 0, 0, 0))


def all_elements():
    return [HeisElement(k, v)
            for k in range(3) for v in product(range(3), repeat=4)]


def commutator_exponent(v, u) -> int:
    return (cocycle(v, u) - cocycle(u, v)) % 3


class Mono:
    """9x9 monomial matrix with entries in the cube roots of unity.

    Column y has its unique nonzero entry zeta^expo[y] in row perm[y].
    """

    __slots__ = ("perm", "expo")

    def __init__(self, perm, expo):
        self.perm = tuple(perm)
        self.expo = tuple(e % 3 for e in expo)

    def __mul__(self, other):
        p1, e1 = self.perm, self.expo
        p2, e2 = other.perm, other.expo
        return Mono(tuple(p1[p2[y]] for y in range(9)),
                    tuple(e2[y] + e1[p2[y]] for y in range(9)))

    def inverse(self):
        perm = [0] * 9
        expo = [0] * 9
        for y in range(9):
            perm[self.perm[y]] = y
            expo[self.perm[y]] = -self.expo[y]
        return Mono(perm, expo)

    def __eq__(self, other):
        return self.perm == other.perm and self.expo == other.expo

    def __hash__(self):
        return hash((self.perm, self.expo))

    def trace(self) -> Cyc:
        t = Cyc(0, 0)
        for y in range(9):
            if self.perm[y] == y:
                t = t + Cyc.zeta(self.expo[y])
        return t

    def scalar_ratio(self, other):
        """If self = zeta^t * other, return t; else None."""
        if self.perm != other.perm:
            return None
        t = (self.expo[0] - other.expo[0]) % 3
        for a, b in zip(self.expo, other.expo):
            if (a - b) % 3 != t:
                return None
        return t


def svn_rep(h: HeisElement) -> Mono:
    """Stone-von-Neumann action on functions on F_3^2.

    With v = (a1, a2, b1, b2): translate by (a1, a2), multiply by the
    character (s, t) -> zeta^(b1 s + b2 t), and scale by the centre.
    """
    k, (a1, a2, b1, b2) = h
    perm = []
    expo = []
    for y in range(9):
        s, t = divmod(y, 3)
        s2, t2 = (s - a1) % 3, (t - a2) % 3
        perm.append(3 * s2 + t2)
        expo.append(k + b1 * s2 + b2 * t2)
    return Mono(perm, expo)


def commutant_dimension(gens) -> int:
    """Dimension of {M : M rho(g) = rho(g) M for all generators g}.

    The relation for a monomial matrix rho(g) identifies entries in orbits
    up to phases; inconsistent orbits are forced to zero, so the dimension
    is the number of phase-consistent orbits.
    """
    # union-find over the 81 matrix positions with zeta^k phases
    parent = {(r, c): (r, c) for r in range(9) for c in range(9)}
    phase = {pos: 0 for pos in parent}
    dead = set()

    def root_and_phase(pos):
        ph = 0
        while parent[pos] != pos:
            ph = (ph + phase[pos]) % 3
            pos = parent[pos]
        return pos, ph

    for g in gens:
        m = svn_rep(g)
        p, e = m.perm, m.expo
        pinv = [0] * 9
        for y in range(9):
            pinv[p[y]] = y
        for r in range(9):
            for c in range(9):
                # M[p[r], p[c]] = zeta^(e[r] - e[c]) M[r, c]
                a, pa = root_and_phase((r, c))
                b, pb = root_and_phase((p[r], p[c]))
                delta = (e[r] - e[c]) % 3
                if a == b:
                    if (pa + delta - pb) % 3:
                        dead.add(a)
                else:
                    parent[b] = a
                    phase[b] = (pa + delta - pb) % 3
    roots = set()
    dead_roots = set()
    for pos in parent:
        a, _ = root_and_phase(pos)
        roots.add(a)
    for d in dead:
        a, _ = root_and_phase(d)
        dead_roots.add(a)
    return len(roots - dead_roots)


class HeisenbergModel:
    """Bundles the symplectic coordinates and class conversions."""

    def __init__(self, rs: RootSystem | None = None):
        self.rs = rs or build_root_system()
        self.basis_classes, self.M = symplectic_basis(self.rs)
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

    def section(self, root9) -> HeisElement:
        """Canonical zero-centre lift of the class of a root."""
        return HeisElement(0, self.root_class(root9))


_MODEL = None


def build_model() -> HeisenbergModel:
    global _MODEL
    if _MODEL is None:
        _MODEL = HeisenbergModel()
    return _MODEL
