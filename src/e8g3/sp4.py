"""The symplectic group on four F_3 coordinates and the exact density of
elements with a fixed vector, counted two independent ways: det(M - I)
on every enumerated element, expanded along the f2 column with six
minors per pair (e1, f1) and one cofactor row per head (e1, f1, e2),
and Moebius inversion on the lattice of subspaces of F_3^4, where the
classes swept are the orbits of subspaces under two symplectic
generators, without the enumeration.

A vector of F_3^4 is its heis class code (27 v0 + 9 v1 + 3 v2 + v3 in
0..80, so code order is the lexicographic order of the tuples
`heis.CLASSES`), and a matrix is the 4-tuple of its column codes
(e1, e2, f1, f2), a symplectic basis.  The enumerated group packs each
element into one int, ((e1 * 81 + f1) * 81 + e2) * 81 + f2, so the
elements of one head are consecutive.  The Moebius side walks ordered
bases of at most three vectors as codes in the radix 81 of the vector
codes, over a bytearray of reached codes, and takes |G| from the walk of
(e1, e2, f1), which carries f2 along, by orbit-stabiliser.  The form is
`heis.FORM`, and a matrix acts on vectors through the 81-entry table
`heis.action` builds; this module keeps no F_3 table of its own, and
the masks and residue rows the direct count reads are built inside the
functions that read them.  A subspace is the 81-bit mask with bit c set
for each code c in it.
"""

from __future__ import annotations

from array import array
from itertools import combinations, product

from .heis import CLASSES, FORM, UNIT_CODES, action
from .report import CheckFailed

_VECS = range(1, 81)  # the nonzero vectors
# two symplectic bases (columns e1, e2, f1, f2) generating the group
_GENERATORS = ((1, 3, 18, 57), (2, 56, 41, 35))
# columns of the identity spanning one subspace per G-orbit: the zero
# space, a line, the isotropic plane <e1, e2>, the hyperbolic plane
# <e1, f1>, a hyperplane and the whole space
_ORBIT_REPRESENTATIVES = ((), (0,), (0, 1), (0, 2), (0, 1, 2), (0, 1, 2, 3))


def enumerate_sp4():
    """All matrices by completing symplectic bases (columns e1, e2, f1, f2),
    packed as ((e1 * 81 + f1) * 81 + e2) * 81 + f2, in increasing order.

    The pairs (e2, f2) completing (e1, f1) depend only on the plane
    perpendicular to e1 and f1, whose mask is the meet of their masks of
    vectors with form 0; each of the 90 planes is swept once."""
    zero = [sum(1 << v for v in _VECS if not form[v]) for form in FORM]
    tails = {}
    out = array("I")
    for e1 in _VECS:
        form_e1, zero_e1 = FORM[e1], zero[e1]
        for f1 in _VECS:
            if form_e1[f1] != 1:
                continue
            perp = zero_e1 & zero[f1]
            tail = tails.get(perp)
            if tail is None:
                vecs = [v for v in _VECS if perp >> v & 1]
                tail = tails[perp] = [e2 * 81 + f2 for e2 in vecs
                                      for f2 in vecs if FORM[e2][f2] == 1]
            head = (e1 * 81 + f1) * 6561
            out.extend([head + t for t in tail])
    return out


def _minors(a, c):
    """The six 2 x 2 minors of the columns a and c, on the rows (0, 1),
    (0, 2), (0, 3), (1, 2), (1, 3) and (2, 3)."""
    a0, a1, a2, a3 = a
    c0, c1, c2, c3 = c
    return (a0 * c1 - a1 * c0, a0 * c2 - a2 * c0, a0 * c3 - a3 * c0,
            a1 * c2 - a2 * c1, a1 * c3 - a3 * c1, a2 * c3 - a3 * c2)


def _cofactor_row(minors, b):
    """The cofactors (K0, K1, K2, K3) of the fourth column of a matrix with
    columns (a, b, c, d), from the six minors of a and c: the determinant
    is K . d for every d.  The minors expand, along b, into the four
    3 x 3 minors left when one row is struck out."""
    m01, m02, m03, m12, m13, m23 = minors
    b0, b1, b2, b3 = b
    return (b1 * m23 - b2 * m13 + b3 * m12,
            b2 * m03 - b0 * m23 - b3 * m02,
            b0 * m13 - b1 * m03 + b3 * m01,
            b1 * m02 - b0 * m12 - b2 * m01)


def density_direct():
    """(order, |C|) by testing det(M - I) on every element of the
    enumerated group.  The sorted codes come in runs of one pair (e1, f1),
    whose six minors of the shifted columns are computed once, and within
    it runs of one head (e1, f1, e2), whose cofactor row K is computed
    once; K picks a row of the 81 x 81 residue table, indexed by K mod 3
    and f2, that says whether K . (f2 - u4) = 0 mod 3, so each element
    costs one lookup."""
    group = enumerate_sp4()
    # the columns of M - I by position: each class minus the unit vector
    # of its column
    shifted = []
    for i in range(4):
        column = []
        for d in CLASSES:
            d = list(d)
            d[i] -= 1
            column.append(d)
        shifted.append(column)
    e1s, e2s, f1s, f2s = shifted
    fixes = [bytes(not (k0 * d0 + k1 * d1 + k2 * d2 + k3 * d3) % 3
                   for d0, d1, d2, d3 in f2s)
             for k0, k1, k2, k3 in CLASSES]
    hits = 0
    last = last_pair = -1
    for code in group:
        head, f2 = divmod(code, 81)
        if head != last:
            last = head
            pair, e2 = divmod(head, 81)
            if pair != last_pair:
                last_pair = pair
                e1, f1 = divmod(pair, 81)
                minors = _minors(e1s[e1], f1s[f1])
            k0, k1, k2, k3 = _cofactor_row(minors, e2s[e2])
            row = fixes[k0 % 3 * 27 + k1 % 3 * 9 + k2 % 3 * 3 + k3 % 3]
        hits += row[f2]
    return len(group), hits


def _span(basis):
    """The mask of the subspace the codes span: the image of the matrix
    with those columns."""
    mask = 0
    for c in action(basis):
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


def _walk(digits, tables, radix, tail):
    """(count, moved): the number of ordered bases reached from the one
    with the given digits, each digit sent through one table per
    generator, and whether some path reaches a basis already reached
    carrying the vector `tail` to another image than the first path did.

    A basis is the code of its digits in the radix, first digit most
    significant, and a code splits as head * radix + last digit.  Each
    table is extended once to the heads, the codes of the first k - 1
    digits, as radix times the head's image, so an image costs two
    lookups.  The byte of a reached code is 1 + the image of `tail` on the
    path that reached it first, and 0 while it is not reached; the zero
    vector, which every table fixes, is never moved.
    """
    maps = []
    for table in tables:
        heads = [0]
        for _ in digits[1:]:
            heads = [(h + x) * radix for h in heads for x in table]
        maps.append((heads, table))
    start = 0
    for d in digits:
        start = start * radix + d
    reached = bytearray(radix ** len(digits))
    reached[start] = 1 + tail
    n = 1
    moved = False
    frontier = [start]
    while frontier:
        nxt = []
        for heads, table in maps:
            for c in frontier:
                image = heads[c // radix] + table[c % radix]
                carried = table[reached[c] - 1] + 1
                if not reached[image]:
                    reached[image] = carried
                    nxt.append(image)
                elif reached[image] != carried:
                    moved = True
        n += len(nxt)
        frontier = nxt
    return n, moved


def _hyperplane_order(acts):
    """(|G|, n3): n3 is the number of ordered bases (e1, e2, f1) the
    identity's reaches under the action tables, and |G| is n3 times the
    order of its stabiliser (orbit-stabiliser).

    A symplectic map fixing e1, e2 and f1 sends f2 to one of the s vectors
    with the same form against those three, f2 + c e2 for c in F_3, and
    these maps form a group of prime order s; so the stabiliser is
    trivial or all of them.  By Schreier's lemma it is generated by the
    loops the walk closes, one per edge to a basis reached before, and a
    loop is not the identity exactly when it carries f2 to a second image,
    which the walk of (e1, e2, f1) carrying f2 reports.
    """
    e1, e2, f1, f2 = UNIT_CODES
    n3, moved = _walk((e1, e2, f1), acts, 81, f2)
    if not moved:
        return n3, n3
    s = sum(all(FORM[x][v] == FORM[x][f2] for x in (e1, e2, f1))
            for v in range(81))
    return n3 * s, n3


def density_by_classes():
    """(order, |C|) by Moebius inversion on the lattice of subspaces W,
    one W per G-orbit of subspaces, G generated by `_GENERATORS`.

    The elements whose fixed space contains W form the pointwise
    stabilizer G_W, so N0, the count of elements that fix no nonzero
    vector, is the sum of mu(0, W) |G_W| over all W (Rota 1964), and
    |G_W| is |G| over the orbit of an ordered basis of W. |G| itself is
    the hyperplane's orbit times its stabiliser (`_hyperplane_order`).
    The orbits of the representatives partition each level of the
    lattice, or it fails.
    """
    if not all(map(_symplectic, _GENERATORS)):
        raise CheckFailed("generator is not a symplectic basis")
    acts = [action(g) for g in _GENERATORS]
    n, n3 = _hyperplane_order(acts)
    levels = _subspaces()
    mu = _mobius(levels)
    reached = [[] for _ in levels]
    fixing_none = 0
    for columns in _ORBIT_REPRESENTATIVES:
        basis = tuple(UNIT_CODES[i] for i in columns)
        orbit = _orbit(basis, acts, _span)
        reached[len(basis)].extend(orbit)
        # the identity's orbit is the group and the hyperplane's bases
        # were walked for its order; a smaller basis is walked carrying
        # the zero vector
        if len(basis) == 4:
            bases = n
        elif len(basis) == 3:
            bases = n3
        else:
            bases, _ = _walk(basis, acts, 81, 0)
        stabilizer, rest = divmod(n, bases)
        if rest:
            raise CheckFailed("basis orbit size does not divide the order")
        fixing_none += mu[_span(basis)] * len(orbit) * stabilizer
    if any(sorted(r) != sorted(level) for r, level in zip(reached, levels)):
        raise CheckFailed("subspace orbits do not partition the lattice")
    return n, n - fixing_none


def _symplectic(cols) -> bool:
    """Whether the columns pair under the form as the unit vectors do,
    i.e. form a symplectic basis e1, e2, f1, f2."""
    return all(FORM[a][b] == FORM[x][y] for a, x in zip(cols, UNIT_CODES)
               for b, y in zip(cols, UNIT_CODES))
