"""Small exact linear algebra helpers: integer matrices, Smith normal form,
and Gaussian elimination over Fraction, Q(w) or F_p entries."""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .cyclotomic import qw_inverse


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out

def mat_vec(A, v):
    return [sum(map(mul, row, v)) for row in A]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_eq(A, B):
    return all(ra == rb for ra, rb in zip(A, B))


def power(mul, a, n: int, one):
    """a^n, n >= 0, by square and multiply under the product `mul`.

    The first factor is taken as it is, not multiplied into `one`, and
    nothing is squared after the top bit, so n > 0 takes
    popcount(n) + bit_length(n) - 2 products."""
    out = None
    while n:
        if n & 1:
            out = a if out is None else mul(out, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return one if out is None else out


def mat_pow(A, k):
    return power(mat_mul, A, k, identity(len(A)))


def det_bareiss(M):
    """Exact determinant of an integer matrix (fraction free); that of the
    0 x 0 matrix is 1."""
    A = [row[:] for row in M]
    n = len(A)
    if not n:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[-1][-1]


def smith_normal_form(M):
    """Return (D, U, V) with U @ M @ V = D diagonal, U, V unimodular.

    Pivoting is deterministic: smallest absolute value, ties broken by
    row-then-column position, so repeated runs give identical transforms.
    """
    A = [row[:] for row in M]
    n = len(A)
    m = len(A[0])
    U = identity(n)
    V = identity(m)

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in A:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    for s in range(min(n, m)):
        while True:
            pivot = None
            best = None
            for i in range(s, n):
                for j in range(s, m):
                    a = abs(A[i][j])
                    if a and (best is None or a < best):
                        best = a
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(s, pivot[0])
            swap_cols(s, pivot[1])
            if A[s][s] < 0:
                negate_row(s)
            dirty = False
            for i in range(s + 1, n):
                if A[i][s]:
                    add_row(s, i, -(A[i][s] // A[s][s]))
                    if A[i][s]:
                        dirty = True
            for j in range(s + 1, m):
                if A[s][j]:
                    add_col(s, j, -(A[s][j] // A[s][s]))
                    if A[s][j]:
                        dirty = True
            if dirty:
                continue
            # force divisibility of the remaining block by the pivot
            bad = None
            for i in range(s + 1, n):
                for j in range(s + 1, m):
                    if A[i][j] % A[s][s]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, s, 1)
        if s < min(n, m) and A[s][s] < 0:
            negate_row(s)
    return A, U, V


def unimodular_inverse(M):
    """Exact inverse of a unimodular integer matrix, with int entries: the
    Smith form W M V = I gives M^-1 = V W.  Raises ValueError unless that
    form is the identity."""
    D, W, V = smith_normal_form(M)
    if D != identity(len(M)):
        raise ValueError("matrix is not unimodular")
    return mat_mul(V, W)


def _over_qw(rows) -> bool:
    """Whether the matrix lives over Q(w): some entry is a w-pair."""
    return any(tuple in map(type, row) for row in rows)


def rref(rows, width):
    """Reduced row echelon form of dense rows (lists), over Q(w) when some
    entry is a w-pair (x, y), meaning x + y*w, and over Q otherwise; over
    Q(w) every entry comes back a w-pair.

    Each row step touches only the columns where the pivot row is nonzero.
    Returns (reduced_rows, pivot_columns). Mutates nothing: the rows are
    copied, and entries are replaced, never changed in place.
    """
    return (_eliminate_qw if _over_qw(rows) else _eliminate)(rows, width)


def _eliminate(rows, width):
    """rref over Q.  A pivot of +-1 is preferred and is its own inverse, so
    int rows whose pivots are all units are reduced in ints; the reduced
    form is unique, so the choice changes no value."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        nonzero = [i for i in range(r, len(rows)) if rows[i][c]]
        if not nonzero:
            continue
        piv = next((i for i in nonzero if rows[i][c] in (1, -1)), nonzero[0])
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        inv = p if p in (1, -1) else Fraction(1) / p
        support = [t for t, x in enumerate(prow) if x]
        for t in support:
            prow[t] = prow[t] * inv
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for t in support:
                    row[t] = row[t] - f * prow[t]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _eliminate_qw(rows, width):
    """rref over Q(w) on w-pairs, a rational entry x read as (x, 0); the
    same steps as _eliminate, each product written out with w^2 = -1 - w."""
    rows = [[x if type(x) is tuple else (x, 0) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != (0, 0)),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        e, f = qw_inverse(prow[c])
        support = [t for t, x in enumerate(prow) if x != (0, 0)]
        for t in support:
            a, b = prow[t]
            bf = b * f
            prow[t] = (a * e - bf, a * f + b * e - bf)
        for i, row in enumerate(rows):
            g, h = row[c]
            if (g or h) and i != r:
                for t in support:
                    a, b = prow[t]
                    x, y = row[t]
                    hb = h * b
                    row[t] = (x - g * a + hb, y - g * b - h * a + hb)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reduce_mod_p7(x):
    """Image of an int, a Fraction or a w-pair (a, b) in F_7 = Z[w]/p for
    the prime p = (7, w - 2) of Z[w], i.e. a + b*w -> a + 2b (mod 7); None
    when a denominator of x is divisible by 7, where the map is undefined."""
    if type(x) is int:
        return x % 7
    a, b = x if type(x) is tuple else (x, 0)
    if type(a) is int and type(b) is int:
        return (a + 2 * b) % 7
    total = 0
    for q in (Fraction(a), 2 * Fraction(b)):
        if q.denominator % 7 == 0:
            return None
        total += q.numerator * pow(q.denominator, -1, 7)
    return total % 7


def rank(rows, width):
    """Rank of the matrix given by dense rows, over the field of rref.

    Over Q(w) the rank is first taken modulo p = (7, w - 2): a full rank
    there is the exact rank, since a minor that is nonzero mod p is nonzero.
    Any other outcome, or an entry that is not 7-integral, falls back to
    exact elimination.
    """
    if _over_qw(rows):
        reduced = [[reduce_mod_p7(x) for x in row] for row in rows]
        if all(None not in row for row in reduced):
            r = len(rref_mod(reduced, width, 7)[1])
            if r == min(len(rows), width):
                return r
    return len(rref(rows, width)[1])


def rref_mod(rows, width, p):
    """Reduced row echelon form of dense integer rows over F_p, p prime.

    Each row step touches only the columns where the pivot row is nonzero.
    Entries come back reduced into range(p).  Returns
    (reduced_rows, pivot_columns), as rref does.  Mutates nothing.
    """
    rows = [[x % p for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = pow(prow[c], -1, p)
        support = [t for t, x in enumerate(prow) if x]
        for t in support:
            prow[t] = prow[t] * inv % p
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for t in support:
                    row[t] = (row[t] - f * prow[t]) % p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(rows, width):
    """Basis of the right kernel of the matrix given by dense rows, over
    the field of rref: vectors of w-pairs over Q(w), of rationals (ints
    where the elimination kept them) over Q."""
    qw = _over_qw(rows)
    red, pivots = rref(rows, width)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [(0, 0) if qw else Fraction(0)] * width
        vec[fc] = (1, 0) if qw else Fraction(1)
        for r, pc in enumerate(pivots):
            x = red[r][fc]
            vec[pc] = (-x[0], -x[1]) if qw else -x
        basis.append(vec)
    return basis


def solve(rows, rhs, width):
    """The solution of rows @ x = rhs when it is unique, else None (no
    solution or many); over Q(w) when some entry of rows or rhs is a
    w-pair, else over Q.  One elimination of the augmented rows answers
    both questions: the solution is unique exactly when the pivots are
    the columns range(width)."""
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)], width + 1)
    if pivots != list(range(width)):
        return None
    return [row[width] for row in red[:width]]
