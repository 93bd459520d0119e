"""Independent rational model: traceless 9x9 matrices acting on degree-3
and degree-6 exterior powers, with wedge and contraction brackets.

Used as a second route for the regular nilpotent slice computations: it
shares nothing with the structure-constant table.  Vectors are dicts of
int coefficients over the monomial wedge basis, and matrices are int
9x9 lists.  The two places where the model has thirds and ninths are
scaled away: the grading element is kept as 3x (value 6 on every basis
triple), and the contraction bracket as 9x (9 M - tr(M) I).  Ranks and
kernels are exact, by elimination over Q on the int rows.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import lcm

from .intlinalg import mat_eq, nullspace, rank, solve
from .report import CheckFailed

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
                    val = out.get(key, 0) + c * a * sgn
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
            val = out.get(key, 0) + cs * ct * sgn
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def _vol_signs():
    """For each t in W6, the sign of e_s ^ e_t against e_1^...^e_9 for
    every ordering s of its complement (i, j, k).

    Sorting (i, j, k) + t with i < j < k moves i past the i - 1 entries
    of t below it, j past j - 2 and k past k - 3, so the sorted complement
    has sign (-1)^(i + j + k); the other orderings follow the parity of
    the permutation (``permutations`` lists them even, odd, odd, even,
    even, odd).
    """
    table = {}
    for t in W6:
        comp = tuple(i for i in range(1, 10) if i not in t)
        sgn = -1 if sum(comp) % 2 else 1
        table[t] = dict(zip(permutations(comp),
                            (sgn, -sgn, -sgn, sgn, sgn, -sgn)))
    return table


_VOL = _vol_signs()


def bracket36(u, x):
    """Contraction bracket of a degree-3 and a degree-6 vector, scaled by 9
    to stay integral: 9 M - tr(M) I, where M is the contraction matrix and
    M - tr(M) / 9 I the traceless bracket (equivariant pairing;
    normalization fixed by this formula).

    Row a of M at the slot (a, b, c) pairs e_(q, b, c) with e_t for the one
    q that completes (b, c) to the complement of t, whose entries sum to
    45 - sum(t); rows b and c likewise."""
    M = [[0] * 9 for _ in range(9)]
    for t, cx in x.items():
        signs = _VOL[t]
        rest = 45 - sum(t)
        for (a, b, c), cu in u.items():
            coef = cu * cx
            for row, pair, sgn in ((a, (b, c), coef), (b, (a, c), -coef),
                                   (c, (a, b), coef)):
                q = rest - pair[0] - pair[1]
                v = signs.get((q, *pair))
                if v:
                    M[row - 1][q - 1] += sgn * v
    tr = sum(M[i][i] for i in range(9))
    out = [[9 * m for m in row] for row in M]
    for i in range(9):
        out[i][i] -= tr
    return out


def sl9_basis():
    """Off-diagonal units then traceless diagonal differences: 80 matrices."""
    out = []
    for i in range(9):
        for j in range(9):
            if i != j:
                M = [[0] * 9 for _ in range(9)]
                M[i][j] = 1
                out.append(M)
    for i in range(8):
        M = [[0] * 9 for _ in range(9)]
        M[i][i] = 1
        M[i + 1][i + 1] = -1
        out.append(M)
    return out


def _flat(M):
    return [m for row in M for m in row]


def kostant_slice_report():
    """Build the principal triple in this model and measure the slice.

    Returns kernel dimensions and the degree list read off the grading
    weights of the slice directions; a step that does not hold fails.
    """
    from .cuspdata import S_H

    E = {t: 1 for t in S_H}
    # grading element x, scaled by 3: diagonal, value 6 on every basis
    # triple, trace 0
    x3 = [18 * d - 88 for d in (0, 2, 3, 4, 5, 6, 7, 8, 9)]
    if sum(x3) != 0 or any(sum(x3[i - 1] for i in t) != 6 for t in S_H):
        raise CheckFailed("grading element is not traceless with value "
                          "2 on the basis triples")
    X3 = [[x3[i] if i == j else 0 for j in range(9)] for i in range(9)]

    # the lower element lives in the x-weight (-2) slice of degree 6; it
    # solves [E, F] = x, that is bracket36(E, F) = 9 x = 3 X3
    weight6 = {t: sum(x3[i - 1] for i in t) for t in W6}
    cand = [t for t in W6 if weight6[t] == -6]
    images = [_flat(bracket36(E, {t: 1})) for t in cand]
    rows = [list(col) for col in zip(*images)]
    rhs = [3 * m for m in _flat(X3)]
    sol = solve(rows, rhs, len(cand))
    if sol is None:
        raise CheckFailed("no unique lower triple element")
    # F scaled by den to integers: den * F
    den = lcm(*(c.denominator for c in sol))
    F = {t: int(c * den) for t, c in zip(cand, sol) if c}

    # sl2 relations, [E, F] = x and [x, F] = -2 F, scaled by den
    XF = _act(X3, F)
    if (not mat_eq(bracket36(E, F), [[3 * den * m for m in row] for row in X3])
            or XF != {t: -6 * c for t, c in F.items()}):
        raise CheckFailed("sl2 relations fail in the wedge model")

    # centralizer of F inside degree 3 and its grading weights
    cols = [list(col) for col in
            zip(*(_flat(bracket36({t: 1}, F)) for t in W3))]
    kernel = nullspace(cols, 84)
    weights = []
    for vec in kernel:
        support = [W3[i] for i, c in enumerate(vec) if c]
        vals = {sum(x3[i - 1] for i in t) for t in support}
        if len(vals) != 1:
            raise CheckFailed("kernel vector mixes grading weights")
        weights.append(vals.pop())
    # the unscaled weight is w = w3 / 3, an even integer, of degree 1 - w / 2
    degrees = sorted(1 - w // 6 for w in weights)

    # full kernel of ad(E), block by block around the grading
    rowsA = []
    for A in sl9_basis():
        img = _act(A, E)
        rowsA.append([-img.get(t, 0) for t in W3])
    rowsB = []
    for t in W3:
        img = wedge33(E, {t: 1})
        rowsB.append([img.get(s, 0) for s in W6])
    rowsC = [_flat(bracket36(E, {t: 1})) for t in W6]
    ker_total = ((80 - rank(rowsA, 84))
                 + (84 - rank(rowsB, 84))
                 + (84 - rank(rowsC, 81)))

    return {
        "slice_dim": len(kernel),
        "slice_degrees": degrees,
        "ad_e_kernel_dim": ker_total,
    }
