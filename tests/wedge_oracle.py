"""The wedge model on Fractions, for the tests: the contraction bracket
with its trace divided out, the grading element with its thirds, and the
slice report built from them.

The library's model scales both to integers (the bracket by 9, the
grading element by 3).  These are the unscaled forms, so a test that
compares the two checks the scaling.  They share the sign routine
`merge_sign` with the library and read the coefficient of e_1^...^e_9 in
e_s ^ e_t from it, where the library reads its `_VOL` table;
`tests/test_wedge.py` checks the two against each other.  The
eliminations are `qw_oracle`'s, not the library's, so a fault in either
shows as a disagreement.
"""

from __future__ import annotations

from fractions import Fraction

import qw_oracle

from e8g3.cuspdata import S_H
from e8g3.wedge import W3, W6, merge_sign


def _rationals(vec):
    """Entries of a Q(w) elimination read back as Fractions; all lie in Q."""
    assert not any(x.b for x in vec)
    return [Fraction(x.a) for x in vec]


def rank(rows, width):
    return len(qw_oracle.rref(rows, width)[1])


def solve(rows, rhs, width):
    """The solution of rows @ x = rhs when it is unique (the kernel is
    empty), else None."""
    if qw_oracle.nullspace(rows, width):
        return None
    x = qw_oracle.solve(rows, rhs, width)
    return None if x is None else _rationals(x)


def act(A, v):
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
                v1 = merge_sign((q, b, c), t)[1]
                if v1:
                    M[a - 1][q - 1] += coef * v1
                v2 = merge_sign((q, a, c), t)[1]
                if v2:
                    M[b - 1][q - 1] -= coef * v2
                v3 = merge_sign((q, a, b), t)[1]
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
    images = [bracket36(E, {t: Fraction(1)}) for t in cand]
    rows = []
    rhs = []
    for p in range(9):
        for q in range(9):
            rows.append([M[p][q] for M in images])
            rhs.append(X[p][q])
    sol = solve(rows, rhs, len(cand))
    if sol is None:
        raise AssertionError("no unique lower triple element")
    F = {t: c for t, c in zip(cand, sol) if c}

    # sl2 relations
    XF = act(X, F)
    if bracket36(E, F) != X or any(
            XF.get(t, Fraction(0)) != -2 * F.get(t, Fraction(0))
            for t in set(XF) | set(F)):
        raise AssertionError("sl2 relations fail in the wedge model")

    # centralizer of F inside degree 3 and its grading weights
    rows3 = []
    for t in W3:
        M = bracket36({t: Fraction(1)}, F)
        rows3.append([M[p][q] for p in range(9) for q in range(9)])
    cols = [list(col) for col in zip(*rows3)]
    kernel = [_rationals(v) for v in qw_oracle.nullspace(cols, 84)]
    weights = []
    for vec in kernel:
        support = [W3[i] for i, c in enumerate(vec) if c]
        vals = {sum(xdiag[i - 1] for i in t) for t in support}
        if len(vals) != 1:
            raise AssertionError("kernel vector mixes grading weights")
        weights.append(vals.pop())
    degrees = sorted(int(1 - w / 2) for w in weights)

    # full kernel of ad(E), block by block around the grading; entries
    # missing from an image (most of the 13,776) share one zero, which
    # keeps the peak memory of this step down
    zero = Fraction(0)
    rowsA = []
    for A in sl9_basis():
        img = act(A, E)
        rowsA.append([-img[t] if t in img else zero for t in W3])
    rowsB = []
    for t in W3:
        img = wedge33(E, {t: Fraction(1)})
        rowsB.append([img.get(s, zero) for s in W6])
    rowsC = []
    for t in W6:
        M = bracket36(E, {t: Fraction(1)})
        rowsC.append([M[p][q] for p in range(9) for q in range(9)])
    ker_total = ((80 - rank(rowsA, 84))
                 + (84 - rank(rowsB, 84))
                 + (84 - rank(rowsC, 81)))

    return {
        "slice_dim": len(kernel),
        "slice_degrees": degrees,
        "ad_e_kernel_dim": ker_total,
    }
