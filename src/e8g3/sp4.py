"""The symplectic group on four F_3 coordinates, enumerated two ways, and
the exact density of elements with a fixed vector."""

from __future__ import annotations

from itertools import product

from .heis import commutator_exponent
from .intlinalg import rref_mod

_VECS = [v for v in product(range(3), repeat=4) if v != (0, 0, 0, 0)]


def enumerate_sp4():
    """All matrices by completing symplectic bases (columns e1, e2, f1, f2)."""
    out = []
    for e1 in _VECS:
        for f1 in _VECS:
            if commutator_exponent(e1, f1) != 1:
                continue
            perp = [v for v in _VECS if commutator_exponent(e1, v) == 0
                    and commutator_exponent(f1, v) == 0]
            for e2 in perp:
                for f2 in perp:
                    if commutator_exponent(e2, f2) == 1:
                        out.append((e1, e2, f1, f2))
    return out


def _has_eigenvalue_one(cols) -> bool:
    # M - I is singular over F_3; its transpose has the columns as rows
    rows = [[x - (r == c) for r, x in enumerate(col)]
            for c, col in enumerate(cols)]
    return len(rref_mod(rows, 4, 3)[1]) < 4


def _mat_mul(a, b):
    # both as column tuples
    rows_a = [[a[c][r] for c in range(4)] for r in range(4)]
    cols = []
    for c in range(4):
        col = tuple(sum(rows_a[r][k] * b[c][k] for k in range(4)) % 3
                    for r in range(4))
        cols.append(col)
    return tuple(cols)


def _inverse(cols):
    # the rows of [M^T | I] reduce to [I | (M^-1)^T], whose rows are the
    # columns of M^-1
    red, pivots = rref_mod([list(col) + [int(c == j) for j in range(4)]
                            for c, col in enumerate(cols)], 8, 3)
    if pivots != [0, 1, 2, 3]:
        raise ValueError("matrix is singular over F_3")
    return tuple(tuple(row[4:]) for row in red)


def density_direct():
    """(order, |C|) by filtering every element."""
    group = enumerate_sp4()
    hits = sum(1 for m in group if _has_eigenvalue_one(m))
    return len(group), hits


def density_by_classes():
    """(order, |C|) via conjugacy classes: orbit-close each unprocessed
    element under a fixed generating set, test one representative."""
    group = enumerate_sp4()
    index = {m: i for i, m in enumerate(group)}
    gens = _generators(group)
    gen_invs = [_inverse(g) for g in gens]
    seen = [False] * len(group)
    order = len(group)
    hits = 0
    for i, m in enumerate(group):
        if seen[i]:
            continue
        # BFS over the conjugacy class
        cls = [m]
        seen[i] = True
        frontier = [m]
        while frontier:
            nxt = []
            for x in frontier:
                for g, gi in zip(gens, gen_invs):
                    y = _mat_mul(_mat_mul(g, x), gi)
                    j = index[y]
                    if not seen[j]:
                        seen[j] = True
                        cls.append(y)
                        nxt.append(y)
            frontier = nxt
        if _has_eigenvalue_one(m):
            hits += len(cls)
    return order, hits


def _generators(group):
    """A small generating set: verified by orbit closure on the group."""
    cand = group[1:6] + group[1000:1002]
    # closure check
    idx = {m: i for i, m in enumerate(group)}
    reached = {idx[_identity()]}
    frontier = [_identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in cand:
                y = _mat_mul(g, x)
                j = idx[y]
                if j not in reached:
                    reached.add(j)
                    nxt.append(y)
        frontier = nxt
    if len(reached) != len(group):
        raise ValueError("candidate set does not generate")
    return cand


def _identity():
    return tuple(tuple(int(r == c) for r in range(4)) for c in range(4))
