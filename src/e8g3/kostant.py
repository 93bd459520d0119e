"""Principal sl2 triple through the sum of basis root vectors, computed in
the structure-constant realization and cross-checked against the wedge
model.

The degree grading used here is by coordinate-sum type (0 for the torus
part and the 72 difference roots, 1 for the 84 triple weights, 2 for
their negatives); the basis sum E is homogeneous of degree 1 and the
whole triple is graded (E, X, F) = (1, 0, 2).
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyc
from .gradedlie import GradedAlgebra, LieElement, code_cyc, get_algebra
from .heis import cocycle
from .intlinalg import nullspace, rank, solve
from .rootsys import S0_TRIPLES, weight_vector


def _s0_indices(alg: GradedAlgebra):
    return [alg.rs.index[weight_vector(t)] for t in S0_TRIPLES]


def build_triple(alg: GradedAlgebra | None = None):
    """Return (E, X, F) as LieElements with exact sl2 relations."""
    alg = alg or get_algebra()
    s0 = _s0_indices(alg)
    E = LieElement(roots={i: Cyc(1) for i in s0})

    # X: torus element pairing to 2 against every basis root
    gram = alg.rs.gram
    rows = [[Fraction(gram[a][b]) for b in range(8)] for a in range(8)]
    c = solve(rows, [Fraction(2)] * 8, 8)
    if c is None or any(v.denominator != 1 for v in c):
        raise AssertionError("no integral grading element on the basis")
    X = LieElement(cartan={a: Cyc(v) for a, v in enumerate(c) if v})

    # F: supported on the negatives of the basis roots; the diagonal
    # system [E, F] = X fixes each coefficient through the central twist
    F_roots = {}
    for a, i in enumerate(s0):
        tw = cocycle(alg.cls[i], alg.cls[i]) % 3
        F_roots[alg.negidx[i]] = Cyc(-c[a]) * Cyc.zeta(tw)
    F = LieElement(roots=F_roots)
    return E, X, F


def verify_triple(alg: GradedAlgebra | None = None) -> dict:
    alg = alg or get_algebra()
    E, X, F = build_triple(alg)
    out = {}
    out["xe"] = alg.bracket(X, E) == E * Cyc(2)
    out["xf"] = alg.bracket(X, F) == F * Cyc(-2)
    out["ef"] = alg.bracket(E, F) == X
    out["graded"] = (all(alg.degree[i] == 1 for i in E.roots)
                     and all(alg.degree[i] == 2 for i in F.roots)
                     and not X.roots)
    out["unique"] = _uniqueness_check(alg, E, X)
    out["ok"] = all(out.values())
    return out


def _uniqueness_check(alg, E, X) -> bool:
    """Generic re-solve of [E, F'] = X over the degree-2, weight(-2) slice."""
    cand = [i for i in range(alg.n)
            if alg.degree[i] == 2 and alg.height[i] == -1]
    rows = {}
    rhs = {}
    for a in range(8):
        rhs[("c", a)] = X.cartan.get(a, Cyc(0))
    for pos, i in enumerate(cand):
        img = alg.bracket(E, alg.x(i))
        for a, v in img.cartan.items():
            rows.setdefault(("c", a), [Cyc(0)] * len(cand))[pos] = v
        for r, v in img.roots.items():
            rows.setdefault(("r", r), [Cyc(0)] * len(cand))[pos] = v
            rhs.setdefault(("r", r), Cyc(0))
    keys = sorted(rows, key=repr)
    mat = [rows[k] for k in keys]
    vec = [rhs.get(k, Cyc(0)) for k in keys]
    sol = solve(mat, vec, len(cand), field="cyc")
    if sol is None:
        return False
    if nullspace(mat, len(cand), field="cyc"):
        return False
    return True


def _height_slots(alg: GradedAlgebra):
    slots = {}
    for i in range(alg.n):
        slots.setdefault(alg.height[i], []).append(("r", i))
    slots.setdefault(0, [])
    slots[0] = [("c", a) for a in range(8)] + slots[0]
    return slots


def _ad_e_block(alg, E_idx, src_slots, dst_index):
    """Matrix rows (one per source slot) of ad(E) into the next height."""
    rows = []
    for kind, i in src_slots:
        row = [Cyc(0)] * len(dst_index)
        if kind == "c":
            for s in E_idx:
                p = alg.P[i][s]
                if p:
                    col = dst_index.get(("r", s))
                    row[col] = row[col] + Cyc(-p)
        else:
            for s in E_idx:
                k = alg.kind[s][i]
                if k == 1:
                    col = dst_index.get(("r", alg.out[s][i]))
                    row[col] = row[col] + code_cyc(alg.scl[s][i])
                elif k == 2:
                    for a, cval in enumerate(alg.cr[s]):
                        if cval:
                            col = dst_index.get(("c", a))
                            row[col] = row[col] + code_cyc(alg.scl[s][i]) * cval
        rows.append(row)
    return rows


def ad_e_kernel_dim(alg: GradedAlgebra | None = None) -> int:
    """dim ker ad(E) over the whole 248-dim algebra, block by height."""
    alg = alg or get_algebra()
    E_idx = _s0_indices(alg)
    slots = _height_slots(alg)
    total = 0
    for h, src in sorted(slots.items()):
        dst = slots.get(h + 1, [])
        if not dst:
            total += len(src)
            continue
        dst_index = {s: c for c, s in enumerate(dst)}
        rows = _ad_e_block(alg, E_idx, src, dst_index)
        total += len(src) - rank(rows, len(dst), field="cyc")
    return total


def slice_report(alg: GradedAlgebra | None = None) -> dict:
    """Kernel of ad(F) in degree 1, its grading weights, and the induced
    degree list."""
    alg = alg or get_algebra()
    E, X, F = build_triple(alg)
    deg1 = [i for i in range(alg.n) if alg.degree[i] == 1]
    by_height = {}
    for i in deg1:
        by_height.setdefault(alg.height[i], []).append(i)
    ker_dim = 0
    degrees = []
    basis_vectors = []
    for h, idxs in sorted(by_height.items()):
        rows = []
        keyset = {}
        for i in idxs:
            img = alg.bracket(alg.x(i), F)
            row = {}
            for a, v in img.cartan.items():
                row[("c", a)] = v
            for r, v in img.roots.items():
                row[("r", r)] = v
            for k in row:
                keyset.setdefault(k, len(keyset))
            rows.append(row)
        width = len(keyset)
        dense = [[Cyc(0)] * width for _ in rows]
        for rr, row in enumerate(rows):
            for k, v in row.items():
                dense[rr][keyset[k]] = v
        cols = [list(col) for col in zip(*dense)] if width else []
        kern = (nullspace(cols, len(idxs), field="cyc")
                if width else [[Cyc(1) if a == b else Cyc(0)
                                for b in range(len(idxs))]
                               for a in range(len(idxs))])
        for vec in kern:
            ker_dim += 1
            degrees.append(1 - h)
            basis_vectors.append(LieElement(
                roots={idxs[p]: v for p, v in enumerate(vec) if v}))
    return {
        "slice_dim": ker_dim,
        "slice_degrees": sorted(degrees),
        "slice_basis": basis_vectors,
        "E": E, "X": X, "F": F,
    }


def sampled_regularity(alg: GradedAlgebra, srep: dict, seed: int = 0,
                       samples: int = 3) -> dict:
    """Degree-0 centralizer dimension at random points of the affine slice;
    ``srep`` is ``slice_report(alg)``."""
    import random

    E = srep["E"]
    basis = srep["slice_basis"]
    rng = random.Random(f"{seed}:kostant")
    deg0 = [("c", a) for a in range(8)] + \
           [("r", i) for i in range(alg.n) if alg.degree[i] == 0]
    results = []
    for _ in range(samples):
        v = E
        for b in basis:
            v = v + b * Cyc(rng.randrange(1, 7))
        rows = []
        keyset = {}
        for kind, i in deg0:
            gen = alg.cartan_basis(i) if kind == "c" else alg.x(i)
            img = alg.bracket(gen, v)
            row = {}
            for a, val in img.cartan.items():
                row[("c", a)] = val
            for r, val in img.roots.items():
                row[("r", r)] = val
            for k in row:
                keyset.setdefault(k, len(keyset))
            rows.append(row)
        width = len(keyset)
        dense = [[Cyc(0)] * width for _ in rows]
        for rr, row in enumerate(rows):
            for k, val in row.items():
                dense[rr][keyset[k]] = val
        results.append(len(deg0) - rank(dense, width, field="cyc"))
    return {"centralizer_dims": results, "ok": all(d == 0 for d in results)}


def cross_check_with_wedge_model(srep: dict, kernel_dim: int) -> bool:
    """Whether the wedge realization reports the same slice data as the
    table one, given by its ``slice_report`` and ``ad_e_kernel_dim``."""
    from .wedge import kostant_slice_report

    b = kostant_slice_report()
    return (srep["slice_dim"] == b["slice_dim"] == 4
            and srep["slice_degrees"] == b["slice_degrees"] == [12, 18, 24, 30]
            and kernel_dim == b["ad_e_kernel_dim"] == 8)
