"""The rank-248 graded Lie algebra built on the root system and the
Heisenberg cover.

Basis: 8 coroots of the fixed root basis, then one vector X_r per root r
(the canonical zero-centre section of the 3-fold cover; central twists
fold into Q(w) scalars).  The bracket of two root vectors is

    [X_a, X_b] = -(s(a)s(b)) * coroot(a)            if a + b = 0
               = (-1)^((a, wb)) <a, b> X_{s(a)s(b)} if a + b is a root
               = 0                                  otherwise

with <.,.> the central symplectic pairing; the section products
contribute cocycle powers of w.  Every structure constant is +-w^k, so
the whole multiplication table is stored as small-integer codes.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import compress
from operator import getitem, itemgetter, mul, or_

from .cyclotomic import rational, zeta_mul
from .heis import (COCYCLE, CODE_EXPO, CODE_ROW, FORM, VEC_ADD, VEC_NEG,
                   Mono, build_model, class_code, svn_rep)
from .intlinalg import nullspace, rank
from .report import sha256
from .rootsys import RootSystem, build_root_system, lanes, neg
from .vinberg import x_value

# scalar codes: value = (-1)^(code // 3) * w^(code % 3); NONE means zero
NONE = -1


def code_mul(c1: int, c2: int) -> int:
    return (c1 + c2) % 3 + 3 * ((c1 // 3) ^ (c2 // 3))


def code_neg(c: int) -> int:
    return c % 3 + 3 * (1 - c // 3)


def code_pair(c: int):
    """Integer pair (x, y) with value x + y*w."""
    return zeta_mul(-1 if c >= 3 else 1, 0, c)


# code_pair(c) and code_pair(code_mul(c1, c2)) for every code a table entry
# can hold, each w-pair (x, y) packed into 32-bit lanes as x + y * 2**32
# (`lanes`); NONE comes last, so that indexing by NONE (-1) reads its entry.
# The packed sums of this module add a few small multiples of units, far
# below 2**31 per component, so such a sum is 0 exactly when its w-pair is
_CODES = (*range(6), NONE)
_PPAIR = tuple(lanes(code_pair(c), 32) for c in _CODES)
_PMUL = tuple(tuple(lanes(code_pair(code_mul(a, b)), 32) for b in _CODES)
              for a in _CODES)


def _unpack(p):
    """The w-pair (x, y) of the packed p = x + y * 2**32, |x| < 2**31."""
    x = (p + 2**31) % 2**32 - 2**31
    return x, (p - x) >> 32


class LieElement:
    """Sparse vector: cartan part over the 8 basis coroots, root part over
    the 240 canonical root vectors, each coefficient x + y w held as the
    w-pair (x, y) of exact rationals, an int where integral."""

    __slots__ = ("cartan", "roots")

    def __init__(self, cartan=None, roots=None):
        self.cartan = _pairs(cartan)
        self.roots = _pairs(roots)

    def __add__(self, other):
        c = dict(self.cartan)
        for k, (x, y) in other.cartan.items():
            u, v = c.get(k, (0, 0))
            c[k] = (u + x, v + y)
        r = dict(self.roots)
        for k, (x, y) in other.roots.items():
            u, v = r.get(k, (0, 0))
            r[k] = (u + x, v + y)
        return LieElement(c, r)

    def __mul__(self, scalar):
        """The element times a rational scalar."""
        return LieElement(
            {k: (x * scalar, y * scalar) for k, (x, y) in self.cartan.items()},
            {k: (x * scalar, y * scalar) for k, (x, y) in self.roots.items()})

    def __eq__(self, other):
        return self.cartan == other.cartan and self.roots == other.roots

    def __repr__(self):
        return f"LieElement(cartan={self.cartan!r}, roots={self.roots!r})"


def _pairs(coords):
    """The nonzero w-pairs of coords, integral components as ints; a pair
    is zero only when both components are."""
    return {k: (rational(x), rational(y))
            for k, (x, y) in (coords or {}).items() if x or y}


def _accumulate(acc, key, x, y):
    """Add the w-pair (x, y) to the w-pair acc[key], started at zero."""
    p = acc.get(key)
    if p is None:
        acc[key] = [x, y]
    else:
        p[0] += x
        p[1] += y


class GradedAlgebra:
    """Multiplication table plus the order-3 symmetry and its grading, on
    the cached root system (rootsys.build_root_system), each root's class
    read in symplectic coordinates through the cached class-code map
    (heis.build_model)."""

    def __init__(self):
        self.rs: RootSystem = build_root_system()
        rs = self.rs
        n = 240
        self.n = n

        # coroot coordinates: the roots' basis coordinates, which also give
        # each root's class
        self.cr = rs.coords
        to_symplectic = build_model()
        self.cls = [to_symplectic[class_code(rs.coords_class(x))]
                    for x in rs.coords]
        self.negidx = [rs.index[neg(r)] for r in rs.roots]
        self.windex = rs.w_on_roots
        # pairing of root with root (the root system's shared table), and
        # its rows at the basis roots: every basis-coroot with every root
        self.PR = rs.pairs
        self.P = [rs.pairs[rs.index[b]] for b in rs.basis]
        # degree grading by coordinate-sum type of the canonical representative
        self.degree = [sum(r) // 3 for r in rs.roots]
        # height: the pairing with the marking element x
        self.height = [x_value(r) for r in rs.roots]
        if any(self.height[i] % 3 != self.degree[i] % 3 for i in range(n)):
            raise AssertionError("height and degree disagree mod 3")

        self._build_table()

    def _build_table(self):
        n = self.n
        kind = [bytearray(n) for _ in range(n)]
        out = [[0] * n for _ in range(n)]
        scl = [[NONE] * n for _ in range(n)]
        nbr = []
        PR, w, cls = self.PR, self.windex, self.cls
        for i in range(n):
            cocycle_i = COCYCLE[cls[i]]
            PR_i, PR_wi = PR[i], PR[w[i]]
            kind_i, out_i, scl_i = kind[i], out[i], scl[i]
            # the only nonzero brackets: the 57 roots pairing negatively, of
            # which the root-valued ones read the root sums
            negative = list(compress(range(n), map((0).__gt__, PR_i)))
            summed = []
            for j in negative:
                p = PR_i[j]
                if p == -2:
                    # opposite roots: central section product times -coroot
                    kind_i[j] = 2
                    out_i[j] = i
                    pw = -cocycle_i[cls[i]] % 3
                    scl_i[j] = pw + 3  # -w^pw
                else:
                    # w-power: the pair exponent (p - PR[wi][j]) and the
                    # section cocycle; sign (-1)^((a, wb))
                    pw = (p - PR_wi[j] + cocycle_i[cls[j]]) % 3
                    kind_i[j] = 1
                    summed.append(j)
                    scl_i[j] = pw + 3 * (PR_i[w[j]] % 2)
            for j, m in zip(summed, self.rs.sum_row(i, summed)):
                out_i[j] = m
            nbr.append(bytes(negative))
        self.kind = kind
        self.out = out
        self.scl = scl
        self.nbr = nbr

    # -- generic bracket ----------------------------------------------------

    def x(self, i) -> LieElement:
        return LieElement(roots={i: (1, 0)})

    def cartan_basis(self, a) -> LieElement:
        return LieElement(cartan={a: (1, 0)})

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        """[x, y], every output coordinate accumulated as a w-pair."""
        acc_c = {}
        acc_r = {}
        P, cr = self.P, self.cr
        y_roots = [(j, c, d) for j, (c, d) in y.roots.items()]

        for t, (a, b) in x.cartan.items():
            Pt = P[t]
            for j, c, d in y_roots:
                p = Pt[j]
                if p:
                    bd = b * d
                    _accumulate(acc_r, j, (a * c - bd) * p,
                                (a * d + b * c - bd) * p)
        for i, (a, b) in x.roots.items():
            for t, (c, d) in y.cartan.items():
                p = P[t][i]
                if p:
                    bd = b * d
                    _accumulate(acc_r, i, (bd - a * c) * p,
                                (bd - a * d - b * c) * p)
            kind_i, out_i, scl_i = self.kind[i], self.out[i], self.scl[i]
            for j, c, d in y_roots:
                k = kind_i[j]
                if not k:
                    continue
                # ci cj times the unit (-1)^(s // 3) w^(s % 3) of code s
                s = scl_i[j]
                bd = b * d
                u, v = zeta_mul(a * c - bd, a * d + b * c - bd, s)
                if s >= 3:
                    u, v = -u, -v
                if k == 1:
                    _accumulate(acc_r, out_i[j], u, v)
                else:
                    for t, h in enumerate(cr[i]):
                        if h:
                            _accumulate(acc_c, t, u * h, v * h)
        return LieElement(acc_c, acc_r)

    # -- symmetry and gradings ----------------------------------------------

    def graded_basis(self):
        """Bases of the three eigenspaces of the symmetry, dims (80, 84, 84)."""
        rs = self.rs
        spaces = {0: [], 1: [], 2: []}
        for orb in rs.orbits:
            r = orb[0]
            w1, w2 = self.windex[r], self.windex[self.windex[r]]
            for i in range(3):
                spaces[i].append(LieElement(roots={
                    r: (1, 0), w1: zeta_mul(1, 0, -i),
                    w2: zeta_mul(1, 0, -2 * i)}))
        W = rs.w
        for i in (1, 2):
            # W - w^i I, as w-pairs
            x, y = zeta_mul(1, 0, i)
            rows = [[(W[r][c] - x, -y) if r == c else (W[r][c], 0)
                     for c in range(8)] for r in range(8)]
            for vec in nullspace(rows, 8):
                spaces[i].append(LieElement(cartan=dict(enumerate(vec))))
        return spaces

    def check_eigenvectors(self, spaces):
        """The (i, a) of every vector x = spaces[i][a] that is no
        theta-eigenvector of eigenvalue w^i.  theta moves X_m to X_wm (wm
        is windex[m], a permutation of the roots) and a cartan part c to
        W c (W is rs.w), so x is one when x_m = w^i x_wm on its support
        and W c = w^i c.

        With `check_theta_automorphism` this proves [h(i), h(j)] in
        h(i + j): theta[x, y] = [theta x, theta y] = w^(i + j) [x, y].  The
        one fact the theta sweep does not read, theta(coroot m) =
        coroot(wm), holds by construction: `RootSystem._w_on_roots` defines
        wm as the root whose coordinates are W cr(m), and cr is rs.coords.
        """
        w, W = self.windex, self.rs.w
        bad = []
        for i in (0, 1, 2):
            for a, x in enumerate(spaces[i]):
                c = x.cartan
                # the root part, then coordinate b of W c against w^i c_b
                if not (all(zeta_mul(*x.roots.get(w[m], (0, 0)), i) == v
                            for m, v in x.roots.items())
                        and all((sum(row[t] * u for t, (u, _) in c.items()),
                                 sum(row[t] * v for t, (_, v) in c.items()))
                                == zeta_mul(*c.get(b, (0, 0)), i)
                                for b, row in enumerate(W) if c)):
                    bad.append((i, a))
        return bad

    # -- representation -----------------------------------------------------

    def rho(self, i) -> Mono:
        """Action of the canonical cover element over root i."""
        return svn_rep(self.cls[i])

    # -- verification sweeps -------------------------------------------------

    def check_antisymmetry(self):
        bad = []
        n = self.n
        for i in range(n):
            if self.kind[i][i]:
                bad.append(("diag", i))
            for j in self.nbr[i]:
                if self.kind[j][i] != self.kind[i][j]:
                    bad.append(("kind", i, j))
                    continue
                if self.kind[i][j] == 1:
                    if (self.out[j][i] != self.out[i][j]
                            or self.scl[j][i] != code_neg(self.scl[i][j])):
                        bad.append(("root", i, j))
                else:
                    # cartan outputs: coroot(j) = -coroot(i), so codes match
                    if self.scl[j][i] != self.scl[i][j]:
                        bad.append(("cartan", i, j))
        return bad

    def check_theta_automorphism(self):
        """The pairs (i, j), row by row, where theta = w does not carry
        [X_i, X_j] to [X_wi, X_wj], then ("cartan", a, j) wherever the
        pairing of coroot a with root j is not w-invariant.

        Row i is compared as bytes with row wi of kind permuted by w, and
        out and scl are read only where a kind entry is nonzero; a kind past
        1 is cartan-valued, as `bracket` reads it."""
        bad = []
        n = self.n
        w = self.windex
        kind, out, scl = self.kind, self.out, self.scl
        # a row's entries at w[0], w[1], ...
        permute = itemgetter(*w)
        for i in range(n):
            kind_i, out_i, scl_i = kind[i], out[i], scl[i]
            wi = w[i]
            kind_w, out_w, scl_w = kind[wi], out[wi], scl[wi]
            moved = bytes(permute(kind_w))
            for j in compress(range(n), kind_i if kind_i == moved
                              else map(or_, kind_i, moved)):
                k = kind_i[j]
                if k != moved[j]:
                    bad.append((i, j))
                elif k == 1 and (out_w[w[j]] != w[out_i[j]]
                                 or scl_w[w[j]] != scl_i[j]):
                    bad.append((i, j))
                elif k > 1 and scl_w[w[j]] != scl_i[j]:
                    bad.append((i, j))
        # cartan side: invariance of the pairing, on every root
        W = self.rs.w
        P = self.P
        for a in range(8):
            col = [(W[b][a], P[b]) for b in range(8) if W[b][a]]
            for j in range(n):
                wj = w[j]
                if sum(c * Pb[wj] for c, Pb in col) != P[a][j]:
                    bad.append(("cartan", a, j))
        return bad

    def twist_classes(self):
        """The class of each orbit's first root: the twists that
        `check_lambda_twists` tries, one per orbit."""
        return [self.cls[orb[0]] for orb in self.rs.orbits]

    def check_lambda_twists(self):
        """The class-twist maps X_r -> w^<lam, cls(r)> X_r preserve the
        table, for each of the 80 nonzero classes lam.  Returns the
        (k, i, j) where the twist by the k-th class (that of orbit k)
        breaks [X_i, X_j].

        The bracket [X_i, X_j] with target t keeps the twist by lam when
        <lam, cls(i)> + <lam, cls(j)> = <lam, cls(t)>, that is, the pairing
        being bilinear, when <lam, d> = 0 for d = cls(i) + cls(j) - cls(t),
        where a cartan-valued bracket reads target -1, of class 0.  Every
        twist keeps it when d = 0.
        """
        lams = self.twist_classes()
        cls = self.cls + [0]
        bad = []
        for i in range(self.n):
            kind_i, out_i, add_i = self.kind[i], self.out[i], VEC_ADD[cls[i]]
            for j in self.nbr[i]:
                t = out_i[j] if kind_i[j] == 1 else -1
                d = VEC_ADD[add_i[cls[j]]][VEC_NEG[cls[t]]]
                if d:
                    bad.extend((k, i, j) for k, lam in enumerate(lams)
                               if FORM[lam][d])
        return sorted(bad)

    # -- structure constants dump --------------------------------------------

    def dump_rows(self):
        """The table as text, one structure constant per line: the lines of
        each table row, then of each row of P, joined by newlines, one
        string per row."""
        for i in range(self.n):
            kind_i, out_i, scl_i = self.kind[i], self.out[i], self.scl[i]
            yield "\n".join(
                f"r {i} {j} -> {out_i[j]} code {scl_i[j]}" if kind_i[j] == 1
                else f"c {i} {j} code {scl_i[j]}" for j in self.nbr[i])
        for a, Pa in enumerate(self.P):
            yield "\n".join(f"h {a} {j} {p}" for j, p in enumerate(Pa) if p)

    def digest(self) -> str:
        """SHA-256 of all dump lines joined by newlines, fed one row at a
        time so that the dump is never held whole."""
        h = sha256()
        sep = b""
        for row in self.dump_rows():
            if row:
                h.update(sep + row.encode())
                sep = b"\n"
        return h.hexdigest()


# ---------------------------------------------------------------------------
# degree-0 part inside the 9x9 traceless matrices
# ---------------------------------------------------------------------------

def _class_groups(alg: GradedAlgebra):
    """Roots grouped by class, as (member root indices, rho of the class).

    rho(i) is the action of the zero-centre element over the class of root
    i, so it is one monomial matrix per group.
    """
    groups = {}
    for i, v in enumerate(alg.cls):
        groups.setdefault(v, []).append(i)
    return [(members, alg.rho(members[0])) for members in groups.values()]


# A 9x9 matrix of w-pairs packs as its 162 components in 8-bit lanes
# (`lanes`), the entry (u, v) at p = 9 * row + col in lanes 2 p and
# 2 p + 1.  The rho' sweep packs 1 + 2w times a difference of two
# monomials (components at most 4) and sums of 3 c rho(o) over orbits o,
# where the coefficients c of one bracket [Z_a, Z_b] are sums of its at
# most nine unit structure constants; their components add up to at most
# 18, so no packed component exceeds 54, and 8-bit lanes are one-to-one.

def _pack_entry(x, y, code, col):
    """Pack of (x + y w) times the monomial column of code `code` placed at
    column col."""
    return (lanes(zeta_mul(x, y, CODE_EXPO[code]), 8)
            << 16 * (9 * CODE_ROW[code] + col))


def _orbit_row(alg: GradedAlgebra, oa: int, orbit_packs):
    """The packs of 3 rho'([Z_a, Z_b]) / kappa, for a in orbit oa and every
    orbit ob, as a list indexed by ob; None where [Z_a, Z_b] leaves the span
    of the Z vectors.

    Z_a = X_a + X_wa + X_w^2a, so [Z_a, Z_b] is the sum of the nine table
    entries between the two orbits, and one pass over the nonzero entries
    of the three rows of orbit oa sorts them by the orbit of the column.
    The bracket lies in the span exactly when it has no cartan part and
    its coefficient at each root t equals the one at wt (a root missing
    from a sum counts 0), so is constant on every orbit.  Each root
    coefficient c adds c times the pack of rho of its orbit, so the sum of
    all of them is 3 times that of the orbit coefficients.
    """
    n, w, cr = alg.n, alg.windex, alg.cr
    orbit_of = alg.rs.orbit_of
    # per column orbit: the summed structure constants at each target root,
    # packed (_PPAIR), and the cartan part
    sums = [{} for _ in range(len(orbit_packs))]
    cartan = [None] * len(orbit_packs)
    for i in alg.rs.orbits[oa]:
        kind_i, out_i, scl_i = alg.kind[i], alg.out[i], alg.scl[i]
        for j in compress(range(n), kind_i):
            ob = orbit_of[j]
            if kind_i[j] == 1:
                d, t = sums[ob], out_i[j]
                d[t] = d.get(t, 0) + _PPAIR[scl_i[j]]
            else:
                cartan[ob] = _addc(cartan[ob], cr[i], _PPAIR[scl_i[j]])
    row = []
    for d, c in zip(sums, cartan):
        if (c is not None and any(c)
                or any(p != d.get(w[t], 0) for t, p in d.items())):
            row.append(None)
            continue
        lhs = 0
        for t, p in d.items():
            if p:
                x, y = _unpack(p)
                pack, pack_w = orbit_packs[orbit_of[t]]
                lhs += x * pack + y * pack_w
        row.append(lhs)
    return row


def verify_rho_prime_homomorphism(alg: GradedAlgebra):
    """Exact check of bracket preservation on all 240 x 240 pairs.

    Both sides are packed integer w-pair matrices.  The right-hand side
    depends only on the classes of the two roots, and the left-hand side
    rho'([Z_a, Z_b]) only on their orbits, read from the table one orbit
    row at a time (_orbit_row).  So each (class pair, orbit pair) gets one
    comparison, which stands for all of its root pairs; a bracket outside
    the span of the Z vectors fails it.  On the algebra the orbits are
    exactly the class groups (rootsys/orbit_class_bijection): 6,400
    comparisons of 9 root pairs each.  Every failing root pair is listed,
    in sweep order.
    """
    # kappa[col][c]: 3 kappa = 1 + 2w times the column of code c at col, so
    # that the pack of 3 kappa m sums kappa over the columns of m; a product
    # of two class images is one of the 243 monomials of the group, so its
    # pack is computed once
    kappa = [[_pack_entry(1, 2, c, col) for c in range(27)]
             for col in range(9)]
    kappa_pack = cache(lambda codes: sum(map(getitem, kappa, codes)))
    # the packs of rho(o) and of w rho(o), per orbit o
    orbit_packs = [[sum(_pack_entry(x, y, c, col)
                        for col, c in enumerate(alg.rho(orb[0]).codes))
                    for x, y in ((1, 0), (0, 1))] for orb in alg.rs.orbits]
    orbit_of = alg.rs.orbit_of
    mismatches = []
    pairs = 0
    groups = [(members, tuple(dict.fromkeys(orbit_of[r] for r in members)),
               m.codes, m.table()) for members, m in _class_groups(alg)]
    for roots_a, orbits_a, codes_a, table_a in groups:
        rows = {oa: _orbit_row(alg, oa, orbit_packs) for oa in orbits_a}
        for roots_b, orbits_b, codes_b, table_b in groups:
            pairs += len(roots_a) * len(roots_b)
            # 3 kappa [rho a, rho b] with 3 kappa = 1 + 2w, against
            # 3 rho'([Z_a, Z_b]) / kappa; rho(a) rho(b) has the codes of
            # rho(b) translated through the table of rho(a)
            rhs = (kappa_pack(codes_b.translate(table_a))
                   - kappa_pack(codes_a.translate(table_b)))
            bad = {(oa, ob): rows[oa][ob] != rhs
                   for oa in orbits_a for ob in orbits_b}
            if any(bad.values()):
                mismatches.extend(
                    (a, b) for a in roots_a for b in roots_b
                    if bad[orbit_of[a], orbit_of[b]])
    return {"pairs": pairs, "mismatches": mismatches}


def verify_heis_action_match(alg: GradedAlgebra):
    """Conjugation eigenvalue vs the lattice pairing, on all root pairs.

    One conjugation per pair of classes gives the Heisenberg side for every
    root pair in them: rho(a) rho(b) rho(a)^-1 = zeta^t rho(b) exactly when
    rho(a) rho(b) = zeta^t rho(b) rho(a), both products being one
    `bytes.translate` each, and t is None when no such t exists.  The
    lattice side is read per root pair from the pairing table: the
    exponent (PR[a][b] - PR[wa][b]) mod 3.
    """
    # zeta^t is the image of the central element coded 81 t
    scalar = [svn_rep(81 * t).table() for t in range(3)]
    PR, w = alg.PR, alg.windex
    mismatches = []
    pairs = 0
    groups = [(roots, m.codes, m.table()) for roots, m in _class_groups(alg)]
    for roots_a, codes_a, table_a in groups:
        rows = [(a, PR[a], PR[w[a]]) for a in roots_a]
        for roots_b, codes_b, table_b in groups:
            ab = codes_b.translate(table_a)
            ba = codes_a.translate(table_b)
            t = (ab[0] - ba[0]) % 3
            if ab != ba.translate(scalar[t]):
                t = None
            pairs += len(rows) * len(roots_b)
            for a, row, row_w in rows:
                for b in roots_b:
                    lattice = (row[b] - row_w[b]) % 3
                    if t != lattice:
                        mismatches.append((a, b, t, lattice))
    return {"pairs": pairs, "mismatches": mismatches}


def rho_prime_image_rank(alg: GradedAlgebra) -> int:
    """Rank over Q(w) of the 80 orbit images inside 9x9 matrices."""
    rows = []
    for orb in alg.rs.orbits:
        mono = alg.rho(orb[0])
        row = [0] * 81
        for col, c in enumerate(mono.codes):
            row[9 * CODE_ROW[c] + col] = zeta_mul(1, 0, CODE_EXPO[c])
        rows.append(row)
    return rank(rows, 81)


def rho_prime_traceless(alg: GradedAlgebra) -> bool:
    return all(alg.rho(orb[0]).trace() == (0, 0) for orb in alg.rs.orbits)


def z_supports_partition(alg: GradedAlgebra) -> bool:
    """The 80 symmetrized vectors Z_r = X_r + X_wr + X_w^2r, one per orbit,
    have pairwise disjoint 3-root supports that cover all 240 roots.

    Disjoint nonempty supports make the vectors linearly independent, and
    disjoint 3-root supports that cover the 240 roots number exactly 80.
    """
    w = alg.windex
    covered = set()
    for orb in alg.rs.orbits:
        r = orb[0]
        support = {r, w[r], w[w[r]]}
        if len(support) != 3 or covered & support:
            return False
        covered |= support
    return len(covered) == alg.n


# ---------------------------------------------------------------------------
# Killing form
# ---------------------------------------------------------------------------

def _killing_entry(alg: GradedAlgebra, r: int, s: int):
    """kappa(X_r, X_s) as a w-pair, by honest trace of ad X_r ad X_s: the
    sum over basis vectors b of the coefficient of b in [X_r, [X_s, b]].

    Only the roots k with [X_s, X_k] != 0 can give a root term, and the
    cartan slots only when [X_r, X_s] is cartan-valued; every other term is
    0 on any table.  A root term of a root-valued [X_s, X_k] = c X_m is
    c times the coefficient of X_k in [X_r, X_m]; a cartan-valued one is
    c coroot(s), whose bracket with X_r is -(s, r) c X_r, a term only for
    k = r.  The cartan slot a takes [X_s, h_a] = -P[a][s] X_s and then
    coordinate a of [X_r, X_s]."""
    kind_r, out_r, scl_r = alg.kind[r], alg.out[r], alg.scl[r]
    kind_s, out_s, scl_s = alg.kind[s], alg.out[s], alg.scl[s]
    acc = 0
    for k in compress(range(alg.n), kind_s):
        if kind_s[k] == 1:
            m = out_s[k]
            if kind_r[m] == 1 and out_r[m] == k:
                acc += _PMUL[scl_s[k]][scl_r[m]]
        elif k == r:
            acc -= alg.PR[s][r] * _PPAIR[scl_s[k]]
    if kind_r[s] == 2:
        acc -= (sum(map(mul, (P_a[s] for P_a in alg.P), alg.cr[r]))
                * _PPAIR[scl_r[s]])
    return _unpack(acc)


def killing_gram(alg: GradedAlgebra):
    """Killing form data: cartan block, root diagonal, zero pattern.

    Returns a dict with the 8x8 cartan block (integers), the 240 values
    kappa(X_r, X_{-r}), and `kind2_opposite`: whether the cartan-valued
    (kind-2) brackets sit exactly on the opposite pairs (r, -r).  Together
    with `out_additive` of `verify_jacobi` (root-valued brackets sit where
    weights add) it proves the zero pattern: a term of tr(ad X_r ad X_s)
    lands back on its own basis vector only when s = -r, so
    kappa(X_r, X_s) = 0 for every other pair.  `mixed_block_zero` says
    that no ad(X_r) has a diagonal entry, so the cartan-root block is 0.
    """
    cart = [[sum(map(mul, Pa, Pb)) for Pb in alg.P] for Pa in alg.P]
    diag = [_killing_entry(alg, r, alg.negidx[r]) for r in range(alg.n)]
    kind2_opposite = all(
        [j for j in alg.nbr[r] if alg.kind[r][j] == 2] == [alg.negidx[r]]
        for r in range(alg.n))
    # mixed cartan/root entries: for every root r, [x_r, b_k] never returns
    # to b_k (it lands on weight r + k != k or in the cartan), so ad(x_r)
    # has no diagonal entry and the honest trace of ad h_a ad x_r
    # accumulates no terms at all
    mixed_block_zero = not any(alg.kind[r][k] == 1 and alg.out[r][k] == k
                               for r in range(alg.n) for k in alg.nbr[r])
    from .intlinalg import det_bareiss
    theta_ok = all(
        diag[alg.windex[r]] == diag[r] for r in range(alg.n))
    # the canonical zero-centre section leaves a harmless diagonal twist
    # zeta^c on dual pairs; scaling X_r by zeta^(2 c(cls, cls)) removes it
    gauged = []
    for r in range(alg.n):
        c = COCYCLE[alg.cls[r]][alg.cls[r]]
        x, y = zeta_mul(*diag[r], c)
        gauged.append((x, y))
    cartan_det = det_bareiss(cart)
    nondegenerate = cartan_det != 0 and all(x or y for x, y in diag)
    return {
        "cartan_block": cart,
        "cartan_det": cartan_det,
        "root_diag": diag,
        "root_diag_gauged": gauged,
        "kind2_opposite": kind2_opposite,
        "mixed_block_zero": mixed_block_zero,
        "theta_orthogonal": theta_ok,
        "nondegenerate": nondegenerate,
        "integer_entries": all(y == 0 for _, y in gauged),
    }


# ---------------------------------------------------------------------------
# Jacobi sweep
# ---------------------------------------------------------------------------

# The Jacobi lanes.  A table entry reads as the exponent e of its unit code
# c in the sixth roots of unity, (-1)^(c // 3) w^(c % 3) = (-w^2)^e; a
# kind-0 entry reads ZERO, and an entry the lanes cannot vouch for POISON.
# A term byte is the sum of two reads: the unit (-w^2)^b below ZERO, zero
# below POISON, poisoned from POISON on.  _TERM_CODE[e][b] is the lane code
# of the term byte b + e: (x + 1) + 8 (y + 1) for its value x + y w, 9 for
# zero and POISON for poisoned.  Reads are at most POISON, so term bytes
# stay below 256 and codes at most POISON: three codes sum to at most
# 3 POISON < 256, and to 27 exactly when none is poisoned and the x and y
# parts each sum to 0 (x + 1 <= 2, so three of them never carry into y).
ZERO = 16
POISON = 64
_EXPONENT = [(2 * (c % 3) + 3 * (c // 3)) % 6 for c in range(6)]


def _term_code(b: int) -> int:
    """The lane code of the term byte b."""
    if b >= POISON:
        return POISON
    if b >= ZERO:
        return 9
    x, y = code_pair(_EXPONENT.index(b % 6))
    return x + 1 + 8 * (y + 1)


_TERM_CODE = [bytes(_term_code(b + e) for b in range(256)) for e in range(6)]
# hop bytes past the root indices: a cartan-valued inner bracket at the
# opposite root, whose outer read is the sign of its cartan coefficient,
# and no hop, whose outer read is 0
SIGN = 254
NO_HOP = 255


def _jacobi_lanes(alg: GradedAlgebra):
    """The 256-byte `bytes.translate` tables of the Jacobi lanes, and
    whether the table's root-valued brackets sit where weights add.

    An entry (r, x) is vouched for when it is kind 1 with a code in 0..5
    and out[r][x] the index of root r + root x, or, as an inner bracket
    only, kind 2 at the opposite root x = negidx[r] with a code in 0..5.
    Every other entry is poisoned.  Roots are compared by their basis
    coordinates (rs.coords) packed into 16-bit lanes by `lanes`, one-to-one
    far above the at most 12 of a sum of two roots, so one int sum is the
    coordinates of root r + root x, read independently of the 9-vector
    packs that `RootSystem.sum_row` gives `out` from.

    Tables: inner[r][x] is the exponent (_EXPONENT) of a vouched entry,
    ZERO at kind 0 and POISON elsewhere; hop[r][x] is out[r][x] at a
    vouched kind 1, SIGN at a vouched kind 2 and NO_HOP elsewhere.
    outer[r][c] reads entry (r, m) as an outer bracket: the exponent of a
    vouched kind 1, ZERO at kind 0 and POISON elsewhere (a cartan-valued
    outer bracket included), with byte SIGN the exponent of the inner
    cartan coefficient c in {-1, 0, 1} (0 for 1, 3 for -1, ZERO for 0; the
    list is indexed by c) and byte NO_HOP 0.  inner_col[x], hop_col[x] and
    outer_col[x] are the columns of inner, hop and the outer reads.

    Returns (tables, additive).  additive holds when kind 1 sits exactly on
    the pairs with pairing -1 and every kind-1 out is the index of the sum
    of its two roots: the out test of the vouching, on every kind-1 entry.
    """
    n = alg.n
    pc = [lanes(c, 16) for c in alg.rs.coords]
    read = bytes([ZERO]) + bytes([POISON]) * 255
    pad = bytes([POISON]) * (256 - n)
    additive = True
    inner, hop, outer = [], [], []
    for r, (kind_r, out_r, scl_r, PR_r) in enumerate(zip(
            alg.kind, alg.out, alg.scl, alg.PR)):
        e_in = bytearray(kind_r.translate(read)) + pad
        e_out = bytearray(e_in)
        h = bytearray([NO_HOP]) * 256
        placed = 0
        for x in compress(range(n), kind_r):
            k, c, m = kind_r[x], scl_r[x], out_r[x]
            if k == 1:
                placed += PR_r[x] == -1
                if not (0 <= m < n and pc[m] == pc[r] + pc[x]):
                    additive = False
                elif 0 <= c < 6:
                    e_in[x] = e_out[x] = _EXPONENT[c]
                    h[x] = m
            elif k == 2 and x == alg.negidx[r] and 0 <= c < 6:
                e_in[x] = _EXPONENT[c]
                h[x] = SIGN
        additive &= placed == kind_r.count(1) == PR_r.count(-1)
        inner.append(e_in)
        hop.append(h)
        outer.append([e_out[:SIGN] + bytes([s, 0]) for s in (ZERO, 0, 3)])
    # column x of a table is every 256th byte of its rows joined
    inner_col, hop_col, outer_col = (
        [flat[x::256] + pad for x in range(n)]
        for flat in map(b"".join, (inner, hop, [o[0] for o in outer])))
    return (inner, hop, outer, inner_col, hop_col, outer_col), additive


def _jacobi_root_range(alg: GradedAlgebra, tables, lo: int, hi: int):
    """Check all unordered root triples i<j<k with lo <= i < hi, on the
    lane tables of `_jacobi_lanes(alg)`.

    Returns (evaluated, violations).  Triples where no pair brackets
    nonzero hold trivially: the weight of any inner bracket can never
    return to the third weight when all three pairings are >= 0.  So the
    candidates for each (i, j) are the k > j in nbr[i] | nbr[j], one byte
    string cut past j by bisection in the sorted neighbour rows: the k in
    nbr[j], then those in nbr[i] with the bytes of the first deleted.  Each
    candidate counts as evaluated.

    Lanes.  Before the Python body runs, `bytes.translate` through the
    tables of `_jacobi_lanes` evaluates each candidate's three terms in its
    own byte lane.  A term [x_p, [x_q, x_r]] adds the inner read of entry
    (q, r) to the outer read of (p, hop[q][r]), as the bytes of two ints,
    and one more translate (_TERM_CODE) turns each byte into the code of
    the term's unit or zero; a candidate whose three codes sum to 27 holds
    without the body.  Every other candidate goes through it.  That is
    sound on any table: a lane that is not poisoned is a sum of terms each
    zero, as the body reads them (kind 0 at the inner or outer entry, or a
    cartan coefficient 0), or a unit at the index of root i + j + k (a
    vouched kind 1 hops to the index of root q + r, and its outer vouched
    kind 1 to that of p + q + r; a vouched kind 2 at q = -r gives target
    p), so the body's terms share one target and sum to 0.  The inner
    cartan coefficient is -PR[j][i] in term 1 and -PR[negidx[i]][j] in
    term 2, read through byte SIGN of the outer table; a pair where either
    lies outside {-1, 0, 1}, or where kind[i][j] is 2 or more, or is 1 on
    an entry not vouched for, sends every candidate to the body.  On the
    table, 7,196 of the 965,906 candidates reach it: the triples with
    i + j + k = 0, whose terms are cartan-valued, and the pairs j = -i.

    Every root-valued term of a triple is a nonzero multiple of a unit and
    belongs on the weight i + j + k, so one target and one packed w-pair
    sum (_PPAIR, _PMUL) are exact: a term on a second target leaves some
    target with a single term and is itself a violation.  Cartan-valued
    terms (i + j + k = 0) go to their own accumulator.

    The three terms [x_i, [x_j, x_k]], [x_j, [x_k, x_i]] and
    [x_k, [x_i, x_j]] are written out in that order, each reading the table
    entries of the generic term [x_p, [x_q, x_r]]: kind, out and scl at
    (q, r), then at (p, out[q][r]) for a root-valued inner bracket, or
    PR[q][p] for a cartan-valued one.  Rows i and j are taken once per i
    and j, row k once per triple, and the (i, j) entries once per pair.
    """
    kind = alg.kind
    out = alg.out
    scl = alg.scl
    PR = alg.PR
    cr = alg.cr
    n = alg.n
    ppair = _PPAIR
    pmul = _PMUL
    # the k > j of each row, the candidates that bracket nonzero with x_j
    tails = [row[bisect_right(row, j):] for j, row in enumerate(alg.nbr)]
    inner, hop, outer, inner_col, hop_col, outer_col = tables
    term = _TERM_CODE[0]
    from_bytes = int.from_bytes
    # per candidate count: the lanes of 27 (a triple that holds) and of 9
    # (the code of a zero term)
    holds = [from_bytes(bytes([27]) * s, "little") for s in range(n + 1)]
    zeros = [from_bytes(bytes([9]) * s, "little") for s in range(n + 1)]
    evaluated = 0
    violations = []

    for i in range(lo, hi):
        kind_i, out_i, scl_i, PR_i, cr_i = kind[i], out[i], scl[i], PR[i], cr[i]
        row_i, inner_i, outer_i = alg.nbr[i], inner[i], outer[i]
        inner_ci, hop_ci = inner_col[i], hop_col[i]
        PR_neg = PR[alg.negidx[i]]
        for j in range(i + 1, n):
            ks = tails[j]
            ks += row_i[bisect_right(row_i, j):].translate(None, ks)
            size = len(ks)
            evaluated += size
            if not size:
                continue
            k_ij, m_ij = kind_i[j], out_i[j]
            # the cartan coefficients of terms 1 and 2, where k = -j and
            # k = -i
            c_ji = -PR[j][i]
            c_kj = -PR_neg[j]
            live = ks
            if (k_ij < 2 and -1 <= c_ji <= 1 and -1 <= c_kj <= 1
                    and (not k_ij or inner_i[j] < 6)):
                t1 = (from_bytes(ks.translate(inner[j]), "little")
                      + from_bytes(ks.translate(hop[j]).translate(
                          outer_i[c_ji]), "little"))
                t2 = (from_bytes(ks.translate(inner_ci), "little")
                      + from_bytes(ks.translate(hop_ci).translate(
                          outer[j][c_kj]), "little"))
                codes = (from_bytes(t1.to_bytes(size, "little")
                                    .translate(term), "little")
                         + from_bytes(t2.to_bytes(size, "little")
                                      .translate(term), "little"))
                if k_ij:
                    codes += from_bytes(ks.translate(outer_col[m_ij])
                                        .translate(_TERM_CODE[inner_i[j]]),
                                        "little")
                else:
                    codes += zeros[size]
                codes ^= holds[size]
                if not codes:
                    continue
                live = compress(ks, codes.to_bytes(size, "little"))
            kind_j, out_j, scl_j, cr_j = kind[j], out[j], scl[j], cr[j]
            s_ij = scl_i[j]
            mul_ij = pmul[s_ij]
            for k in live:
                kind_k, out_k, scl_k = kind[k], out[k], scl[k]
                target = None
                stray = False
                s = 0
                acc_c = None

                # [x_i, [x_j, x_k]]
                kq = kind_j[k]
                if kq == 1:
                    m = out_j[k]
                    kp = kind_i[m]
                    if kp == 1:
                        target = out_i[m]
                        s = pmul[scl_j[k]][scl_i[m]]
                    elif kp:
                        acc_c = _addc(acc_c, cr_i, pmul[scl_j[k]][scl_i[m]])
                elif kq == 2 and c_ji:
                    target = i
                    s = ppair[scl_j[k]] * c_ji

                # [x_j, [x_k, x_i]]
                kq = kind_k[i]
                if kq == 1:
                    m = out_k[i]
                    kp = kind_j[m]
                    if kp == 1:
                        t = out_j[m]
                        if target is None:
                            target = t
                        elif t != target:
                            stray = True
                        s += pmul[scl_k[i]][scl_j[m]]
                    elif kp:
                        acc_c = _addc(acc_c, cr_j, pmul[scl_k[i]][scl_j[m]])
                elif kq == 2:
                    c = -PR[k][j]
                    if c:
                        if target is None:
                            target = j
                        elif j != target:
                            stray = True
                        s += ppair[scl_k[i]] * c

                # [x_k, [x_i, x_j]]
                if k_ij == 1:
                    kp = kind_k[m_ij]
                    if kp == 1:
                        if target is not None and out_k[m_ij] != target:
                            stray = True
                        s += mul_ij[scl_k[m_ij]]
                    elif kp:
                        acc_c = _addc(acc_c, cr[k], mul_ij[scl_k[m_ij]])
                elif k_ij == 2:
                    c = -PR_i[k]
                    if c:
                        if target is not None and k != target:
                            stray = True
                        s += ppair[s_ij] * c

                if stray or s or acc_c is not None and any(acc_c):
                    violations.append(
                        (i, j, k, _jacobi_residual(alg, i, j, k)))
    return evaluated, violations


def _jacobi_residual(alg: GradedAlgebra, i: int, j: int, k: int) -> str:
    """The nonzero cartan and root coordinates of the Jacobi sum of X_i,
    X_j, X_k, by the generic bracket."""
    x, y, z = alg.x(i), alg.x(j), alg.x(k)
    total = (alg.bracket(x, alg.bracket(y, z))
             + alg.bracket(y, alg.bracket(z, x))
             + alg.bracket(z, alg.bracket(x, y)))
    return repr(total)


def _addc(acc, coords, p):
    """Add p times the coroot coordinates coords to the 8 packed w-pairs
    acc, started at zero when acc is None."""
    if acc is None:
        acc = [0] * 8
    for a, c in enumerate(coords):
        acc[a] += p * c
    return acc


def _jacobi_cartan_parts(alg: GradedAlgebra):
    """Triples with at least one cartan generator.

    A triple (h_a, X_i, X_j) holds when the pairings with basis coroot a
    add: P[a][m] = P[a][i] + P[a][j] for a root-valued [X_i, X_j] = c X_m,
    and P[a][i] + P[a][j] = 0 otherwise.  Each pair compares its 8
    pairings at once, packed into 16-bit lanes by `lanes` (three pairings
    sum to at most 6 in absolute value), and is unpacked per a only on a
    mismatch.  The pairs i < j are the tails of the sorted neighbour rows.
    """
    evaluated = 0
    violations = []
    n = alg.n
    P = alg.P
    # two cartan, one root (pure cartan triples bracket to zero termwise)
    for a in range(8):
        for b in range(a + 1, 8):
            for i in range(n):
                evaluated += 1
                if P[b][i] * P[a][i] - P[a][i] * P[b][i]:
                    violations.append(("cc", a, b, i))
    # one cartan, two roots
    pp = [lanes(col, 16) for col in zip(*P)]
    for i, row in enumerate(alg.nbr):
        kind_i, out_i, pp_i = alg.kind[i], alg.out[i], pp[i]
        for j in row[bisect_right(row, i):]:
            evaluated += 8
            if kind_i[j] == 1:
                m = out_i[j]
                if pp[m] - pp[j] - pp_i:
                    violations += [("cr", a, i, j) for a, Pa in enumerate(P)
                                   if Pa[m] - Pa[j] - Pa[i]]
            elif pp[j] + pp_i:
                violations += [("cr0", a, i, j) for a, Pa in enumerate(P)
                               if Pa[j] + Pa[i]]
    return evaluated, violations


def verify_jacobi(alg: GradedAlgebra):
    """Full Jacobi sweep over basis triples.

    Candidate pruning is exact: if none of the three pairwise brackets is
    nonzero, every term vanishes (additivity of weights forbids the inner
    bracket from reaching the remaining weight).  That additivity of the
    table is checked as `out_additive`, from the same pass over the table
    that builds the lane tables (_jacobi_lanes).  Every candidate counts in
    `evaluated_triples`.  The lanes then keep from the Python body each
    candidate whose three terms, read from its own entries, are each zero
    or a unit at the index of root i + j + k and sum to 0.  A lane vouches
    only for kind 0, for kind 1 with a code in 0..5 and out the index of
    the root sum, and for kind 2 at the opposite root with a code in 0..5
    (as an inner bracket); every other entry poisons its lane, and a pair
    with kind[i][j] of 2 or more, or an inner cartan coefficient outside
    {-1, 0, 1}, sends every candidate to the body.  So the violations are
    those of the body run on every candidate, on any table.  The tables
    are dropped when the sweep returns.
    """
    ev_c, vi_c = _jacobi_cartan_parts(alg)
    tables, additive = _jacobi_lanes(alg)
    ev_r, vi_r = _jacobi_root_range(alg, tables, 0, alg.n)
    return {
        "evaluated_triples": ev_c + ev_r,
        "violations": sorted(vi_c + vi_r, key=repr),
        "antisymmetry_violations": alg.check_antisymmetry(),
        "out_additive": additive,
    }


@cache
def get_algebra() -> GradedAlgebra:
    """The graded algebra, built once per process."""
    return GradedAlgebra()
