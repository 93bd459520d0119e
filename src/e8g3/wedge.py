"""Independent rational model: traceless 9x9 matrices acting on degree-3
and degree-6 exterior powers, with wedge and contraction brackets.

Used as a second route for the regular nilpotent slice computations: it
shares nothing with the structure-constant table (coefficients here are
plain fractions over the monomial wedge basis).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .intlinalg import nullspace, rank, solve

W3 = tuple(combinations(range(1, 10), 3))
W6 = tuple(combinations(range(1, 10), 6))


def merge_sign(*parts):
    """Sorted index tuple and permutation sign, or (None, 0) on repeats."""
    seq = [i for part in parts for i in part]
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(seq)):
        if seq[i - 1] == seq[i]:
            return None, 0
    return tuple(seq), sign


def _act(A, v):
    """Derivation action of a 9x9 matrix on a wedge-basis dict."""
    out = {}
    for t, c in v.items():
        for pos in range(len(t)):
            i = t[pos]
            for p in range(1, 10):
                a = A[p - 1][i - 1]
                if a:
                    seq = list(t)
                    seq[pos] = p
                    key, sgn = merge_sign(tuple(seq))
                    if key is None:
                        continue
                    val = out.get(key, Fraction(0)) + c * a * sgn
                    if val:
                        out[key] = val
                    else:
                        out.pop(key, None)
    return out


act3 = _act
act6 = _act


def wedge33(u, v):
    """Wedge of two degree-3 vectors into the degree-6 basis."""
    out = {}
    for s, cs in u.items():
        for t, ct in v.items():
            key, sgn = merge_sign(s, t)
            if key is None:
                continue
            val = out.get(key, Fraction(0)) + cs * ct * sgn
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def vol_coeff(s3, t6):
    """Coefficient of e_1^...^e_9 in e_s3 ^ e_t6 (0 if indices overlap)."""
    key, sgn = merge_sign(s3, t6)
    if key is None:
        return 0
    return sgn


def bracket36(u, x):
    """Contraction bracket of a degree-3 and a degree-6 vector: a traceless
    9x9 matrix (equivariant pairing; normalization fixed by this formula)."""
    M = [[Fraction(0)] * 9 for _ in range(9)]
    for (a, b, c), cu in u.items():
        for t, cx in x.items():
            coef = cu * cx
            if not coef:
                continue
            for q in range(1, 10):
                v1 = vol_coeff((q, b, c), t)
                if v1:
                    M[a - 1][q - 1] += coef * v1
                v2 = vol_coeff((q, a, c), t)
                if v2:
                    M[b - 1][q - 1] -= coef * v2
                v3 = vol_coeff((q, a, b), t)
                if v3:
                    M[c - 1][q - 1] += coef * v3
    tr = sum(M[i][i] for i in range(9)) / 9
    for i in range(9):
        M[i][i] -= tr
    return M


def sl9_basis():
    """Off-diagonal units then traceless diagonal differences: 80 matrices."""
    out = []
    for i in range(9):
        for j in range(9):
            if i != j:
                M = [[Fraction(0)] * 9 for _ in range(9)]
                M[i][j] = Fraction(1)
                out.append(M)
    for i in range(8):
        M = [[Fraction(0)] * 9 for _ in range(9)]
        M[i][i] = Fraction(1)
        M[i + 1][i + 1] = Fraction(-1)
        out.append(M)
    return out


def kostant_slice_report():
    """Build the principal triple in this model and measure the slice.

    Returns kernel dimensions and the degree list read off the grading
    weights of the slice directions.
    """
    from .cuspdata import S_H

    E = {t: Fraction(1) for t in S_H}
    # grading element: diagonal, value 2 on every basis triple, trace 0
    xdiag = [Fraction(6 * d) - Fraction(88, 3) for d in
             (0, 2, 3, 4, 5, 6, 7, 8, 9)]
    if sum(xdiag) != 0 or any(sum(xdiag[i - 1] for i in t) != 2
                              for t in S_H):
        raise AssertionError("grading element is not traceless with value "
                             "2 on the basis triples")
    X = [[Fraction(0)] * 9 for _ in range(9)]
    for i in range(9):
        X[i][i] = xdiag[i]

    # the lower element lives in the x-weight (-2) slice of degree 6
    weight6 = {t: sum(xdiag[i - 1] for i in t) for t in W6}
    cand = [t for t in W6 if weight6[t] == -2]
    rows = []
    rhs = []
    for p in range(9):
        for q in range(9):
            rows.append([bracket36(E, {t: Fraction(1)})[p][q] for t in cand])
            rhs.append(X[p][q])
    sol = solve(rows, rhs, len(cand))
    if sol is None:
        raise AssertionError("no solution for the lower triple element")
    if nullspace(rows, len(cand)):
        raise AssertionError("lower element not unique")
    F = {t: c for t, c in zip(cand, sol) if c}

    # sl2 relations
    XF = act6(X, F)
    if not _mat_eq(bracket36(E, F), X) or any(
            XF.get(t, Fraction(0)) != -2 * F.get(t, Fraction(0))
            for t in set(XF) | set(F)):
        raise AssertionError("sl2 relations fail in the wedge model")

    # centralizer of F inside degree 3 and its grading weights
    rows3 = []
    for t in W3:
        M = bracket36({t: Fraction(1)}, F)
        rows3.append([M[p][q] for p in range(9) for q in range(9)])
    ker_dim = 84 - rank(rows3, 81)
    cols = [list(col) for col in zip(*rows3)]
    kernel = nullspace(cols, 84)
    weights = []
    for vec in kernel:
        support = [W3[i] for i, c in enumerate(vec) if c]
        vals = {sum(xdiag[i - 1] for i in t) for t in support}
        if len(vals) != 1:
            raise AssertionError("kernel vector mixes grading weights")
        weights.append(vals.pop())
    degrees = sorted(int(1 - w / 2) for w in weights)

    # full kernel of ad(E), block by block around the grading
    rowsA = []
    for A in sl9_basis():
        img = act3(A, E)
        rowsA.append([-img.get(t, Fraction(0)) for t in W3])
    rowsB = [[wedge33(E, {t: Fraction(1)}).get(s, Fraction(0)) for s in W6]
             for t in W3]
    rowsC = []
    for t in W6:
        M = bracket36(E, {t: Fraction(1)})
        rowsC.append([M[p][q] for p in range(9) for q in range(9)])
    ker_total = ((80 - rank(rowsA, 84))
                 + (84 - rank(rowsB, 84))
                 + (84 - rank(rowsC, 81)))

    return {
        "slice_dim": ker_dim,
        "slice_degrees": degrees,
        "ad_e_kernel_dim": ker_total,
    }


def _mat_eq(A, B):
    return all(A[i][j] == B[i][j] for i in range(9) for j in range(9))
