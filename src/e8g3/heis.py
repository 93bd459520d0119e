"""The F_3^4 coinvariant space, its Heisenberg extension and the
9-dimensional representation over Q(w).

A vector of F_3^4 is its class code in range(81), and the module holds
the tables of its arithmetic, built once at import: vector sums and
negatives (Z_3^4 by `finitefield.digit_tables`, on the same base-3
codes as GF(81)), the bilinear cocycle c(v, u) = v_e1 u_f1 + v_e2 u_f2 in
symplectic coordinates (e1, e2, f1, f2), and its commutator FORM, the
symplectic pairing inherited from the lattice.  A linear map is the tuple
of its column codes, acted on through the 81-entry table `action` builds.
The group has 243 elements (k, v) with k in Z/3 central, each held as the
int code 81 k + class_code(v); multiplication (`code_product`) twists by
the cocycle.  The representation acts on functions on F_3^2 by
translations (e-part) and characters (f-part); every group element maps
to a monomial matrix (`Mono`), the bytes of its column codes, and a
product is one `bytes.translate` of the right factor's codes through the
left factor's 256-byte table, which keeps all sweeps exact and fast.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .finitefield import digit_tables
from .report import CheckFailed
from .rootsys import RootSystem, build_root_system


def symplectic_basis(rs: RootSystem):
    """The SNF class codes of a basis (e1, e2, f1, f2) with
    <e_i, f_j> = delta_ij and zero elsewhere, by symplectic reduction of
    the class Gram matrix.  The report lines rootsys/pairing_nondegenerate
    and heis/symplectic_basis own the rank of that matrix and the
    relations of the basis returned; the reduction only stops, with
    `CheckFailed` naming the class, where a class pairs to zero with every
    candidate left.  A Gram matrix of fewer than four classes (fewer
    Smith divisors 3) pairs the coordinates past it to zero."""
    gram = rs.class_gram()

    def pair(x, y):
        return sum(a * g * b for a, row in zip(x, gram)
                   for g, b in zip(row, y)) % 3

    pool = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    es, fs = [], []
    for _ in range(2):
        e = pool[0]
        f = next((v for v in pool[1:] if pair(e, v)), None)
        if f is None:
            raise CheckFailed(f"class {class_code(e)} {e} pairs to zero "
                              "with every candidate")
        scale = pow(pair(e, f), -1, 3)
        f = tuple(scale * x % 3 for x in f)
        es.append(e)
        fs.append(f)
        # project onto the complement of <e, f>: the Gram matrix is
        # alternating, so every image pairs to 0 with e and f, and e and
        # f themselves project to 0
        rest = []
        for v in pool:
            v2 = tuple((v[i] - pair(v, f) * e[i] + pair(v, e) * f[i]) % 3
                       for i in range(4))
            if v2 != (0, 0, 0, 0) and v2 not in rest:
                rest.append(v2)
        pool = rest
    return [class_code(b) for b in es + fs]  # order (e1, e2, f1, f2)


# A vector v of F_3^4 is its class code in range(81), the base-3 code of
# its coordinates, first most significant: CLASSES[c] is v and
# class_code(v) is c.  An element zeta^k times the class v is coded
# 81 * k + class_code(v)
CLASSES = tuple(product(range(3), repeat=4))
# the codes of the unit vectors e1, e2, f1, f2
UNIT_CODES = (27, 9, 3, 1)


def class_code(v) -> int:
    a, b, c, d = v
    return 27 * a + 9 * b + 3 * c + d


# F_3^4 on class codes, one bytes row per first operand: VEC_ADD[v][u] is
# the code of v + u and VEC_NEG[v] that of -v; COCYCLE[v][u] is
# c(v, u) = v_e1 u_f1 + v_e2 u_f2 in symplectic coordinates (e1, e2, f1,
# f2), and FORM[v][u] = c(v, u) - c(u, v), the symplectic pairing
_ADD, _NEG = digit_tables(3, 4)
VEC_ADD = tuple(map(bytes, _ADD))
VEC_NEG = bytes(_NEG)
COCYCLE = tuple(bytes((a * u[2] + b * u[3]) % 3 for u in CLASSES)
                for a, b, _, _ in CLASSES)
FORM = tuple(bytes((a * u[2] + b * u[3] - c * u[0] - d * u[1]) % 3
                   for u in CLASSES) for a, b, c, d in CLASSES)
# _LAW[81 * v + u] = 81 * c(v, u) + code of v + u, for class codes v, u
_LAW = bytes(81 * c + s for cs, ss in zip(COCYCLE, VEC_ADD)
             for c, s in zip(cs, ss))


def action(cols):
    """The 81 images M v of the linear map M with the given column codes,
    indexed by the code of v."""
    act = [0]
    for col in cols:
        act = [VEC_ADD[x][s] for x in act for s in (0, col, VEC_NEG[col])]
    return act


def code_product(g: int, h: int) -> int:
    """Code of the product of the elements coded g and h: the centres add
    with the cocycle of the classes, and the classes add."""
    v, u = g % 81, h % 81
    return (g - v + h - u + _LAW[81 * v + u]) % 243


def code_inverse(g: int) -> int:
    """Code of the inverse of the element coded g: the class negated, and
    the centre negated and moved by c(v, v), since c(v, -v) = -c(v, v)."""
    k, c = divmod(g, 81)
    return 81 * ((COCYCLE[c][c] - k) % 3) + VEC_NEG[c]


# a monomial column is coded 3 * row + exponent, in range(27): CODE_ROW and
# CODE_EXPO split a code, and CODE_SHIFT[c][e] is code c with its exponent
# moved by e
CODE_SHIFT = tuple(tuple(c - c % 3 + (c + e) % 3 for e in range(3))
                   for c in range(27))
CODE_ROW = tuple(c // 3 for c in range(27))
CODE_EXPO = tuple(c % 3 for c in range(27))


class Mono:
    """9x9 monomial matrix with entries in the cube roots of unity.

    The matrix is the bytes of its column codes: column y has its unique
    nonzero entry zeta^e in row r, coded 3 r + e.
    """

    __slots__ = ("codes",)

    def __init__(self, codes: bytes):
        self.codes = codes

    def table(self) -> bytes:
        """Left multiplication by the matrix as a `bytes.translate` table
        on column codes: code 3 r + e goes to column r of the matrix, its
        exponent moved by e, so the product self * other has the column
        codes other.codes.translate(self.table()).  Read from CODE_SHIFT
        on each call; the 229 entries past code 26 are never read."""
        return bytes([CODE_SHIFT[c][e] for c in self.codes
                      for e in range(3)]).ljust(256, b"\0")

    def __mul__(self, other):
        return Mono(other.codes.translate(self.table()))

    def trace(self):
        """The trace as the pair (x, y) of x + y w."""
        # n[e]: diagonal entries zeta^e; 1 + w + w^2 = 0
        n = [0, 0, 0]
        for y, c in enumerate(self.codes):
            if CODE_ROW[c] == y:
                n[CODE_EXPO[c]] += 1
        return n[0] - n[2], n[1] - n[2]


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
    return Mono(bytes(codes))


@cache
def build_model() -> list[int]:
    """The symplectic class code of each SNF class code, built once per
    process: the inverse permutation of the map from symplectic codes to
    SNF ones, `action(symplectic_basis(build_root_system()))`."""
    from_symplectic = action(symplectic_basis(build_root_system()))
    return sorted(range(81), key=from_symplectic.__getitem__)
