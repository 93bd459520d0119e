"""The gradedlie sweeps as they read the table entry by entry, for the
tests: the Killing diagonal as a trace over all 248 basis vectors, the
additivity of `out` on root tuples, the one-cartan Jacobi terms one
coroot at a time, the theta automorphism on every pair, the rho' sweep
with one bracket of Z vectors per orbit pair, and the structure digest
fed line by line.  Also the helpers that only the tests use: the
LieElement ones, `is_zero` and `coroot`, and `add`, the sum of two
lattice classes.

The library reads only the nonzero table entries, row by row; a test that
compares the two checks that the entries it skips are the ones that
cannot change the result.  The w-pairs of the codes come from the code
arithmetic here, not from the library's packed tables.
"""

from __future__ import annotations

from operator import getitem

from e8g3.gradedlie import (NONE, LieElement, _accumulate, _class_groups,
                            _pack_entry, code_mul, code_pair)
from e8g3.report import sha256
from e8g3.rootsys import canonical

# the w-pair of every code a table entry can hold, and of the product of
# two such codes, from the code arithmetic; NONE comes last, so that
# indexing by NONE (-1) reads its entry
_CODES = (*range(6), NONE)
PAIR = tuple(code_pair(c) for c in _CODES)
MUL_PAIR = tuple(tuple(code_pair(code_mul(a, b)) for b in _CODES)
                 for a in _CODES)


def is_zero(x: LieElement) -> bool:
    """Whether x is 0: a LieElement keeps no zero coordinate."""
    return not x.cartan and not x.roots


def coroot(alg, i) -> LieElement:
    """The coroot of root i, over the 8 basis coroots."""
    return LieElement(cartan={a: (c, 0) for a, c in enumerate(alg.cr[i])})


def add(u, v):
    """The canonical representative of the class of u + v."""
    return canonical(tuple(a + b for a, b in zip(u, v)))


def ad_coeff_at(alg, i, j, k):
    """w-pair coefficient of basis vector k in [b_i, [b_j, b_k]] for root
    indices i, j, k (k may also be ('c', a) for a cartan slot)."""
    if isinstance(k, tuple):
        a = k[1]
        # [x_j, h_a] = -P[a][j] x_j, then [x_i, x_j] must output cartan a
        if alg.kind[i][j] != 2:
            return (0, 0)
        x, y = PAIR[alg.scl[i][j]]
        c = -alg.P[a][j] * alg.cr[i][a]
        return (x * c, y * c)
    kjk = alg.kind[j][k]
    if kjk == 0:
        return (0, 0)
    if kjk == 1:
        m = alg.out[j][k]
        if alg.kind[i][m] == 1 and alg.out[i][m] == k:
            return MUL_PAIR[alg.scl[j][k]][alg.scl[i][m]]
        return (0, 0)
    # [x_j, x_k] cartan-valued (k = -j); then [x_i, coroot(j)] = -(j,i) x_i
    if i != k:
        return (0, 0)
    c = -alg.PR[j][i]
    x, y = PAIR[alg.scl[j][k]]
    return (x * c, y * c)


def killing_entry(alg, r, s):
    """kappa(X_r, X_s) as a w-pair, by honest trace of ad X_r ad X_s over
    all 248 basis vectors."""
    tot = [0, 0]
    for k in [*range(alg.n), *(("c", a) for a in range(8))]:
        x, y = ad_coeff_at(alg, r, s, k)
        tot[0] += x
        tot[1] += y
    return tuple(tot)


def out_additive(alg) -> bool:
    """Whether kind 1 sits exactly on the pairs with pairing -1 of each
    neighbour row, and out[i][j] and out[j][i] are root i + root j there,
    summed as 9-vectors."""
    roots = alg.rs.roots
    kind, out, PR = alg.kind, alg.out, alg.PR
    for i in range(alg.n):
        ones = 0
        for j in alg.nbr[i]:
            if kind[i][j] == 1:
                if PR[i][j] != -1:
                    return False
                ones += 1
                if j > i:
                    s = add(roots[i], roots[j])
                    if roots[out[i][j]] != s or roots[out[j][i]] != s:
                        return False
        if ones != PR[i].count(-1):
            return False
    return True


def jacobi_cartan_parts(alg):
    """gradedlie._jacobi_cartan_parts with each one-cartan triple
    (h_a, X_i, X_j) compared for one basis coroot a at a time."""
    evaluated = 0
    violations = []
    n = alg.n
    P = alg.P
    for a in range(8):
        for b in range(a + 1, 8):
            for i in range(n):
                evaluated += 1
                if P[b][i] * P[a][i] - P[a][i] * P[b][i]:
                    violations.append(("cc", a, b, i))
    for a in range(8):
        Pa = P[a]
        for i in range(n):
            for j in alg.nbr[i]:
                if j <= i:
                    continue
                evaluated += 1
                if alg.kind[i][j] == 1:
                    m = alg.out[i][j]
                    if Pa[m] - Pa[j] - Pa[i]:
                        violations.append(("cr", a, i, j))
                else:
                    if Pa[j] + Pa[i]:
                        violations.append(("cr0", a, i, j))
    return evaluated, violations


def theta_automorphism(alg):
    """check_theta_automorphism on every one of the 240 x 240 pairs."""
    bad = []
    n = alg.n
    w = alg.windex
    for i in range(n):
        wi = w[i]
        for j in range(n):
            wj = w[j]
            if alg.kind[i][j] != alg.kind[wi][wj]:
                bad.append((i, j))
                continue
            k = alg.kind[i][j]
            if k == 1 and (alg.out[wi][wj] != w[alg.out[i][j]]
                           or alg.scl[wi][wj] != alg.scl[i][j]):
                bad.append((i, j))
            elif k == 2 and alg.scl[wi][wj] != alg.scl[i][j]:
                bad.append((i, j))
    W = alg.rs.w
    P = alg.P
    for a in range(8):
        col = [(W[b][a], P[b]) for b in range(8) if W[b][a]]
        for j in range(n):
            wj = w[j]
            if sum(c * Pb[wj] for c, Pb in col) != P[a][j]:
                bad.append(("cartan", a, j))
    return bad


def z_bracket_coefficients(alg, oa, ob):
    """Coefficient of each Z vector in [Z_a, Z_b], as orbit index -> integer
    w-pair, for a in orbit oa and b in orbit ob; None when the bracket has
    a cartan part or root coefficients that are not constant on an orbit.

    Z_a = X_a + X_wa + X_w^2a, so the bracket is the sum of the nine table
    entries between the two orbits.
    """
    orbits = alg.rs.orbits
    roots = {}
    cartan = {}
    for i in orbits[oa]:
        kind_i, out_i, scl_i = alg.kind[i], alg.out[i], alg.scl[i]
        for j in orbits[ob]:
            k = kind_i[j]
            if k == 1:
                _accumulate(roots, out_i[j], *PAIR[scl_i[j]])
            elif k:
                x, y = PAIR[scl_i[j]]
                for a, c in enumerate(alg.cr[i]):
                    _accumulate(cartan, a, c * x, c * y)
    if any(x or y for x, y in cartan.values()):
        return None
    coeffs = {}
    for t, v in roots.items():
        o = alg.rs.orbit_of[t]
        if o in coeffs or not (v[0] or v[1]):
            continue
        if any(roots.get(m) != v for m in orbits[o]):
            return None
        coeffs[o] = v
    return coeffs


def rho_prime_homomorphism(alg):
    """verify_rho_prime_homomorphism with one z_bracket_coefficients call
    per (class pair, orbit pair) and both right-hand side packs summed
    afresh for every class pair."""
    kappa = [[_pack_entry(1, 2, c, col) for c in range(27)]
             for col in range(9)]
    orbit_packs = [[sum(_pack_entry(x, y, c, col)
                        for col, c in enumerate(alg.rho(orb[0]).codes))
                    for x, y in ((1, 0), (0, 1))] for orb in alg.rs.orbits]
    orbit_of = alg.rs.orbit_of
    mismatches = []
    pairs = 0
    groups = [(members, tuple(dict.fromkeys(orbit_of[r] for r in members)),
               m.codes, m.table()) for members, m in _class_groups(alg)]
    for roots_a, orbits_a, codes_a, table_a in groups:
        for roots_b, orbits_b, codes_b, table_b in groups:
            pairs += len(roots_a) * len(roots_b)
            rhs = (sum(map(getitem, kappa, codes_b.translate(table_a)))
                   - sum(map(getitem, kappa, codes_a.translate(table_b))))
            bad = {}
            for key in ((oa, ob) for oa in orbits_a for ob in orbits_b):
                coeffs = z_bracket_coefficients(alg, *key)
                bad[key] = coeffs is None or rhs != sum(
                    3 * (x * orbit_packs[o][0] + y * orbit_packs[o][1])
                    for o, (x, y) in coeffs.items())
            if any(bad.values()):
                mismatches.extend(
                    (a, b) for a in roots_a for b in roots_b
                    if bad[orbit_of[a], orbit_of[b]])
    return {"pairs": pairs, "mismatches": mismatches}


def dump_lines(alg):
    """The table as text lines, one structure constant per line."""
    for i in range(alg.n):
        for j in sorted(alg.nbr[i]):
            k = alg.kind[i][j]
            if k == 1:
                yield f"r {i} {j} -> {alg.out[i][j]} code {alg.scl[i][j]}"
            else:
                yield f"c {i} {j} code {alg.scl[i][j]}"
    for a in range(8):
        for j in range(alg.n):
            if alg.P[a][j]:
                yield f"h {a} {j} {alg.P[a][j]}"


def digest(alg) -> str:
    """SHA-256 of the dump lines joined by newlines, fed line by line."""
    h = sha256()
    sep = b""
    for line in dump_lines(alg):
        h.update(sep + line.encode())
        sep = b"\n"
    return h.hexdigest()
