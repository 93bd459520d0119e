"""Principal sl2 triple through the sum of basis root vectors, computed in
the structure-constant realization and cross-checked against the wedge
model.

The degree grading used here is by coordinate-sum type (0 for the torus
part and the 72 difference roots, 1 for the 84 triple weights, 2 for
their negatives); the basis sum E is homogeneous of degree 1 and the
whole triple is graded (E, X, F) = (1, 0, 2).

Regularity is tested at integral points: each witness point of the slice
is scaled by the lcm of its denominators (`witness_points`), which leaves
its centralizer as it is, so its brackets and ranks run on ints.
"""

from __future__ import annotations

from math import lcm

from .cyclotomic import zeta_mul
from .gradedlie import GradedAlgebra, LieElement
from .heis import COCYCLE
from .intlinalg import mat_vec, nullspace, rank, solve
from .report import CheckFailed
from .rootsys import S0_TRIPLES, weight_vector


def build_triple(alg: GradedAlgebra):
    """Return (E, X, F) as LieElements with exact sl2 relations."""
    s0 = [alg.rs.index[weight_vector(t)] for t in S0_TRIPLES]
    E = LieElement(roots={i: (1, 0) for i in s0})

    # X: torus element pairing to 2 against every basis root, its coroot
    # coordinates c solving gram c = 2 through the integral inverse Gram
    c = mat_vec(alg.rs.gram_inv, [2] * 8)
    X = LieElement(cartan={a: (v, 0) for a, v in enumerate(c)})

    # F: supported on the negatives of the basis roots; the diagonal
    # system [E, F] = X fixes each coefficient through the central twist
    F_roots = {}
    for a, i in enumerate(s0):
        tw = COCYCLE[alg.cls[i]][alg.cls[i]]
        F_roots[alg.negidx[i]] = zeta_mul(-c[a], 0, tw)
    F = LieElement(roots=F_roots)
    return E, X, F


def verify_triple(alg: GradedAlgebra, triple) -> dict:
    """Relations, grading and uniqueness of the triple (E, X, F)."""
    E, X, F = triple
    out = {}
    out["xe"] = alg.bracket(X, E) == E * 2
    out["xf"] = alg.bracket(X, F) == F * -2
    out["ef"] = alg.bracket(E, F) == X
    out["graded"] = (all(alg.degree[i] == 1 for i in E.roots)
                     and all(alg.degree[i] == 2 for i in F.roots)
                     and not X.roots)
    out["unique"] = _uniqueness_check(alg, E, X)
    out["ok"] = all(out.values())
    return out


def _uniqueness_check(alg, E, X) -> bool:
    """Whether [E, F'] = X has exactly one solution F' over the degree-2,
    weight(-2) slice, re-solved generically."""
    cand = [i for i in range(alg.n)
            if alg.degree[i] == 2 and alg.height[i] == -1]
    images = [alg.bracket(E, alg.x(i)) for i in cand]
    # every slot an image or X touches, so no component of X is dropped
    keys = sorted({slot for v in [*images, X] for slot, _ in _slots(v)},
                  key=repr)
    mat = [list(row) for row in zip(*_dense_rows(images, keys))]
    vec = _dense_rows([X], keys)[0]
    return solve(mat, vec, len(cand)) is not None


def _height_slots(alg: GradedAlgebra):
    slots = {}
    for i in range(alg.n):
        slots.setdefault(alg.height[i], []).append(("r", i))
    slots.setdefault(0, [])
    slots[0] = [("c", a) for a in range(8)] + slots[0]
    return slots


def _slot_vector(alg: GradedAlgebra, slot) -> LieElement:
    kind, i = slot
    return alg.cartan_basis(i) if kind == "c" else alg.x(i)


def _slots(v: LieElement):
    """(slot, coefficient) for each nonzero coordinate of v; a slot is
    ("c", a) for a cartan coordinate and ("r", i) for a root vector."""
    yield from ((("c", a), c) for a, c in v.cartan.items())
    yield from ((("r", i), c) for i, c in v.roots.items())


def _dense_rows(images, columns):
    """Coefficient rows of LieElements over the slots ``columns``, as
    w-pairs; an image with a nonzero coefficient outside ``columns`` fails
    the running check."""
    index = {slot: col for col, slot in enumerate(columns)}
    rows = []
    for img in images:
        row = [(0, 0)] * len(columns)
        for slot, c in _slots(img):
            col = index.get(slot)
            if col is None:
                raise CheckFailed(f"image leaves its block at {slot}")
            row[col] = c
        rows.append(row)
    return rows


def ad_e_kernel_dim(alg: GradedAlgebra, E: LieElement) -> int:
    """dim ker ad(E) over the whole 248-dim algebra, block by height."""
    slots = _height_slots(alg)
    total = 0
    for h, src in sorted(slots.items()):
        dst = slots.get(h + 1, [])
        if not dst:
            total += len(src)
            continue
        rows = _dense_rows([alg.bracket(E, _slot_vector(alg, s)) for s in src],
                           dst)
        total += len(src) - rank(rows, len(dst))
    return total


def slice_report(alg: GradedAlgebra, F: LieElement) -> dict:
    """Kernel of ad(F) in degree 1, its grading weights, and the induced
    degree list."""
    deg1 = [i for i in range(alg.n) if alg.degree[i] == 1]
    by_height = {}
    for i in deg1:
        by_height.setdefault(alg.height[i], []).append(i)
    degrees = []
    basis_vectors = []
    slots = _height_slots(alg)
    for h, idxs in sorted(by_height.items()):
        # [X_i, F] lies in degree 0 at height h - 1
        target = [s for s in slots.get(h - 1, [])
                  if s[0] == "c" or alg.degree[s[1]] == 0]
        width = len(target)
        dense = _dense_rows([alg.bracket(alg.x(i), F) for i in idxs], target)
        cols = [list(col) for col in zip(*dense)] if width else []
        kern = (nullspace(cols, len(idxs))
                if width else [[(1, 0) if a == b else (0, 0)
                                for b in range(len(idxs))]
                               for a in range(len(idxs))])
        for vec in kern:
            degrees.append(1 - h)
            basis_vectors.append(LieElement(
                roots={idxs[p]: v for p, v in enumerate(vec)}))
    return {
        "slice_dim": len(basis_vectors),
        "slice_degrees": sorted(degrees),
        "slice_basis": basis_vectors,
    }


# coefficients of the four slice basis vectors at three witness points
REGULARITY_WITNESSES = ((6, 1, 5, 6), (2, 5, 2, 1), (3, 1, 4, 6))


def witness_points(E: LieElement, basis):
    """E + sum c_i basis_i for each witness c, times the lcm D of the
    denominators of its coefficients: D v has integral w-pairs, and
    z(D v) = z(v) for D != 0, so ranks at D v are those at v."""
    out = []
    for coeffs in REGULARITY_WITNESSES:
        v = E
        for b, c in zip(basis, coeffs):
            v = v + b * c
        out.append(v * lcm(*(q.denominator for part in (v.cartan, v.roots)
                               for pair in part.values() for q in pair)))
    return out


def sampled_regularity(alg: GradedAlgebra, E: LieElement, basis) -> dict:
    """Degree-0 centralizer dimension at the witness points of the affine
    slice E + span(basis), ``basis`` the slice basis of ``slice_report``,
    taken at their integral multiples (`witness_points`).  Generic slice
    points are regular, so one point of dimension 0 proves the claim."""
    deg0 = [("c", a) for a in range(8)] + \
           [("r", i) for i in range(alg.n) if alg.degree[i] == 0]
    deg1 = [("r", i) for i in range(alg.n) if alg.degree[i] == 1]
    results = []
    for v in witness_points(E, basis):
        images = [alg.bracket(_slot_vector(alg, s), v) for s in deg0]
        dense = _dense_rows(images, deg1)
        results.append(len(deg0) - rank(dense, len(deg1)))
    return {"centralizer_dims": results, "ok": all(d == 0 for d in results)}


def cross_check_with_wedge_model(srep: dict, kernel_dim: int) -> bool:
    """Whether the wedge realization reports the same slice data as the
    table one, given by its ``slice_report`` and ``ad_e_kernel_dim``; the
    values themselves are the claims of the lines that read the table's."""
    from .wedge import kostant_slice_report

    b = kostant_slice_report()
    return (srep["slice_dim"] == b["slice_dim"]
            and srep["slice_degrees"] == b["slice_degrees"]
            and kernel_dim == b["ad_e_kernel_dim"])
