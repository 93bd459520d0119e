"""The symplectic group on four F_3 coordinates and the exact density of
elements with a fixed vector, counted two independent ways: a cofactor
determinant of M - I on every enumerated element, and Moebius inversion
on the lattice of subspaces of F_3^4, where the classes swept are the
orbits of subspaces under two symplectic generators, without the
enumeration.

A vector of F_3^4 is its heis class code (`heis.class_code`,
27 v0 + 9 v1 + 3 v2 + v3 in 0..80, so code order is the lexicographic
order of the tuples `heis.CLASSES`), and a matrix is the 4-tuple of its
column codes. Vector sums (the class part of the heis group law), scalar
multiples and the symplectic form are 81 x 81 (or 3 x 81) tables built
once at import; a matrix acts on vectors through the 81-entry table of
its images. A subspace is the 81-bit mask with bit c set for each code c
in it.
"""

from __future__ import annotations

from itertools import combinations, product

from .heis import CLASSES, class_code, code_product, commutator_exponent

_ADD = [[code_product(u, v) % 81 for v in range(81)] for u in range(81)]
_SCALE = [[class_code([c * x % 3 for x in u]) for u in CLASSES]
          for c in range(3)]
_FORM = [[commutator_exponent(u, v) for v in CLASSES] for u in CLASSES]
_VECS = range(1, 81)  # the nonzero vectors
# two symplectic bases (columns e1, e2, f1, f2) generating the group
_GENERATORS = ((1, 3, 18, 57), (2, 56, 41, 35))
# columns of the identity spanning one subspace per G-orbit: the zero
# space, a line, the isotropic plane <e1, e2>, the hyperbolic plane
# <e1, f1>, a hyperplane and the whole space
_ORBIT_REPRESENTATIVES = ((), (0,), (0, 1), (0, 2), (0, 1, 2), (0, 1, 2, 3))


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


def _action(cols):
    """The 81 images M v, indexed by the code of v."""
    act = [0]
    for col in cols:
        act = [_ADD[x][s] for x in act for s in (0, col, _SCALE[2][col])]
    return act


def _det_minus_identity(cols) -> int:
    """det(M - I) mod 3 by Laplace expansion along columns 0 and 1: the
    six 2 x 2 minors of those columns times their complementary minors."""
    a0, a1, a2, a3 = CLASSES[cols[0]]
    b0, b1, b2, b3 = CLASSES[cols[1]]
    c0, c1, c2, c3 = CLASSES[cols[2]]
    d0, d1, d2, d3 = CLASSES[cols[3]]
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


def density_direct():
    """(order, |C|) by testing det(M - I) on every element of the
    enumerated group."""
    group = enumerate_sp4()
    hits = sum(1 for m in group if not _det_minus_identity(m))
    return len(group), hits


def _span(basis):
    """The mask of the subspace the codes span: the image of the matrix
    with those columns."""
    mask = 0
    for c in _action(basis):
        mask |= 1 << c
    return mask


def _subspaces():
    """The masks of the subspaces of F_3^4 by dimension, one per reduced
    echelon basis: a unit vector at each pivot, plus any digits right of
    it outside the other pivots."""
    levels = []
    for k in range(5):
        level = []
        for pivots in combinations(range(4), k):
            free = [(i, c) for i, p in enumerate(pivots)
                    for c in range(p + 1, 4) if c not in pivots]
            for digits in product(range(3), repeat=len(free)):
                basis = [3 ** (3 - p) for p in pivots]
                for (i, c), x in zip(free, digits):
                    basis[i] += x * 3 ** (3 - c)
                level.append(_span(basis))
        levels.append(level)
    return levels


def _mobius(levels):
    """mu(0, W) for each subspace mask W of the levels: mu(0, 0) = 1, and
    for W > 0 the sum of mu(0, U) over the U <= W is 0."""
    mu = {levels[0][0]: 1}
    below = list(mu.items())
    for level in levels[1:]:
        for m in level:
            mu[m] = -sum(x for u, x in below if not u & ~m)
        below.extend((m, mu[m]) for m in level)
    return mu


def _orbit(basis, acts, key):
    """The keys of the images of an ordered basis under the group the
    action tables generate, found breadth first; an image whose key was
    seen already is not expanded."""
    seen = {key(basis)}
    frontier = [basis]
    while frontier:
        nxt = []
        for b in frontier:
            for act in acts:
                image = tuple([act[x] for x in b])
                k = key(image)
                if k not in seen:
                    seen.add(k)
                    nxt.append(image)
        frontier = nxt
    return seen


def density_by_classes():
    """(order, |C|) by Moebius inversion on the lattice of subspaces W,
    one W per G-orbit of subspaces, G generated by `_GENERATORS`.

    The elements whose fixed space contains W form the pointwise
    stabilizer G_W, so N0, the count of elements that fix no nonzero
    vector, is the sum of mu(0, W) |G_W| over all W (Rota 1964), and
    |G_W| is |G| over the orbit of an ordered basis of W. The orbits of
    the representatives must partition each level of the lattice.
    """
    if not all(map(_symplectic, _GENERATORS)):
        raise ValueError("generator is not a symplectic basis")
    acts = [_action(g) for g in _GENERATORS]
    n = len(_orbit(_identity(), acts, tuple))
    levels = _subspaces()
    mu = _mobius(levels)
    reached = [[] for _ in levels]
    fixing_none = 0
    for columns in _ORBIT_REPRESENTATIVES:
        basis = tuple(_identity()[i] for i in columns)
        orbit = _orbit(basis, acts, _span)
        reached[len(basis)].extend(orbit)
        # the identity's orbit is the group, counted above
        bases = n if len(basis) == 4 else len(_orbit(basis, acts, tuple))
        stabilizer, rest = divmod(n, bases)
        if rest:
            raise ValueError("basis orbit size does not divide the order")
        fixing_none += mu[_span(basis)] * len(orbit) * stabilizer
    if any(sorted(r) != sorted(level) for r, level in zip(reached, levels)):
        raise ValueError("subspace orbits do not partition the lattice")
    return n, n - fixing_none


def _symplectic(cols) -> bool:
    """Whether the columns pair under the form as the unit vectors do,
    i.e. form a symplectic basis e1, e2, f1, f2."""
    unit = _identity()
    return all(_FORM[a][b] == _FORM[x][y]
               for a, x in zip(cols, unit) for b, y in zip(cols, unit))


def _identity():
    return (27, 9, 3, 1)  # the codes of the unit vectors
