"""The symplectic group on four F_3 coordinates and the exact density of
elements with a fixed vector, counted two independent ways: a cofactor
determinant of M - I on every element, and F_3 elimination on one
representative per conjugacy class.

A vector (v0, v1, v2, v3) of F_3^4 is encoded as the int
27 v0 + 9 v1 + 3 v2 + v3 in 0..80, so code order is the lexicographic
order of the tuples, and a matrix as the 4-tuple of its column codes.
Vector sums, scalar multiples and the symplectic form are 81 x 81 (or
3 x 81) tables built once at import; a matrix acts on vectors through
the 81-entry table of its images.
"""

from __future__ import annotations

from itertools import product

from .heis import commutator_exponent
from .intlinalg import rref_mod

_DIGITS = list(product(range(3), repeat=4))  # code -> coordinate tuple
_CODE = {v: i for i, v in enumerate(_DIGITS)}
_ADD = [[_CODE[tuple((x + y) % 3 for x, y in zip(u, v))] for v in _DIGITS]
        for u in _DIGITS]
_SCALE = [[_CODE[tuple(c * x % 3 for x in u)] for u in _DIGITS]
          for c in range(3)]
_FORM = [[commutator_exponent(u, v) for v in _DIGITS] for u in _DIGITS]
_VECS = range(1, 81)  # the nonzero vectors
# positions in enumerate_sp4() of the two generators the class sweep uses
_GENERATOR_POSITIONS = (1, 1000)


def enumerate_sp4():
    """All matrices by completing symplectic bases (columns e1, e2, f1, f2)."""
    out = []
    for e1 in _VECS:
        form_e1 = _FORM[e1]
        for f1 in _VECS:
            if form_e1[f1] != 1:
                continue
            form_f1 = _FORM[f1]
            perp = [v for v in _VECS if form_e1[v] == 0 and form_f1[v] == 0]
            for e2 in perp:
                form_e2 = _FORM[e2]
                for f2 in perp:
                    if form_e2[f2] == 1:
                        out.append((e1, e2, f1, f2))
    return out


def _has_eigenvalue_one(cols) -> bool:
    # M - I is singular over F_3; its transpose has the columns as rows
    rows = [[x - (r == c) for r, x in enumerate(_DIGITS[col])]
            for c, col in enumerate(cols)]
    return len(rref_mod(rows, 4, 3)[1]) < 4


def _action(cols):
    """The 81 images M v, indexed by the code of v."""
    act = [0]
    for col in cols:
        act = [_ADD[x][s] for x in act for s in (0, col, _SCALE[2][col])]
    return act


def _inverse(cols):
    # the rows of [M^T | I] reduce to [I | (M^-1)^T], whose rows are the
    # columns of M^-1
    rows = [list(_DIGITS[col]) + [int(c == j) for j in range(4)]
            for c, col in enumerate(cols)]
    red, pivots = rref_mod(rows, 8, 3)
    if pivots != [0, 1, 2, 3]:
        raise ValueError("matrix is singular over F_3")
    return tuple(_CODE[tuple(row[4:])] for row in red)


def _conjugation(g):
    """The map x -> g x g^-1 on encoded matrices.

    Column j of x g^-1 is the combination of x's columns given by the
    nonzero entries of column j of g^-1; g then acts through its table.
    """
    act = _action(g)
    terms = [[(k, _SCALE[c]) for k, c in enumerate(_DIGITS[col]) if c]
             for col in _inverse(g)]

    def conj(x):
        out = []
        for col in terms:
            v = 0
            for k, scale in col:
                v = _ADD[v][scale[x[k]]]
            out.append(act[v])
        return tuple(out)

    return conj


def _det_minus_identity(cols) -> int:
    """det(M - I) mod 3 by Laplace expansion along columns 0 and 1: the
    six 2 x 2 minors of those columns times their complementary minors."""
    a0, a1, a2, a3 = _DIGITS[cols[0]]
    b0, b1, b2, b3 = _DIGITS[cols[1]]
    c0, c1, c2, c3 = _DIGITS[cols[2]]
    d0, d1, d2, d3 = _DIGITS[cols[3]]
    a0 -= 1
    b1 -= 1
    c2 -= 1
    d3 -= 1
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)) % 3


def density_direct(group):
    """(order, |C|) by testing det(M - I) on every element of the
    enumerated group."""
    hits = sum(1 for m in group if not _det_minus_identity(m))
    return len(group), hits


def conjugacy_classes(group):
    """(representative, size) for each conjugacy class of the group, in
    order of first appearance: orbit-close each unprocessed element under
    conjugation by a fixed generating set."""
    index = {m: i for i, m in enumerate(group)}
    conjs = [_conjugation(g) for g in _generators(group, index)]
    seen = [False] * len(group)
    out = []
    for i, m in enumerate(group):
        if seen[i]:
            continue
        seen[i] = True
        size = 1
        frontier = [m]
        while frontier:
            nxt = []
            for x in frontier:
                for conj in conjs:
                    y = conj(x)
                    j = index[y]
                    if not seen[j]:
                        seen[j] = True
                        size += 1
                        nxt.append(y)
            frontier = nxt
        out.append((m, size))
    return out


def density_by_classes(group):
    """(order, |C|) via conjugacy classes of the enumerated group: test one
    representative per class."""
    hits = sum(size for m, size in conjugacy_classes(group)
               if _has_eigenvalue_one(m))
    return len(group), hits


def _generators(group, index):
    """Two elements of the group, verified to generate it by orbit closure
    of the identity; `index` maps each element to its position."""
    cand = [group[i] for i in _GENERATOR_POSITIONS]
    acts = [_action(g) for g in cand]
    reached = [False] * len(group)
    reached[index[_identity()]] = True
    count = 1
    frontier = [_identity()]
    while frontier:
        nxt = []
        for x0, x1, x2, x3 in frontier:
            for act in acts:
                y = (act[x0], act[x1], act[x2], act[x3])
                j = index[y]
                if not reached[j]:
                    reached[j] = True
                    count += 1
                    nxt.append(y)
        frontier = nxt
    if count != len(group):
        raise ValueError("candidate set does not generate")
    return cand


def _identity():
    return (27, 9, 3, 1)  # the codes of the unit vectors
