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

import hashlib
from fractions import Fraction

from .cyclotomic import Cyc
from .heis import (HeisElement, HeisenbergModel, Mono, build_model, cocycle,
                   commutator_exponent, svn_rep)
from .intlinalg import nullspace
from .rootsys import RootSystem, add, neg, pairing

# scalar codes: value = (-1)^(code // 3) * w^(code % 3); NONE means zero
NONE = -1


def code_mul(c1: int, c2: int) -> int:
    return (c1 + c2) % 3 + 3 * ((c1 // 3) ^ (c2 // 3))


def code_neg(c: int) -> int:
    return c % 3 + 3 * (1 - c // 3)


def code_pair(c: int):
    """Integer pair (x, y) with value x + y*w."""
    s = -1 if c >= 3 else 1
    p = c % 3
    if p == 0:
        return (s, 0)
    if p == 1:
        return (0, s)
    return (-s, -s)


def code_cyc(c: int) -> Cyc:
    x, y = code_pair(c)
    return Cyc(x, y)


KAPPA = Cyc(Fraction(1, 3), Fraction(2, 3))  # w * (1 - w^-1)^-1


class LieElement:
    """Sparse vector: cartan part over the 8 basis coroots, root part over
    the 240 canonical root vectors, coefficients in Q(w)."""

    __slots__ = ("cartan", "roots")

    def __init__(self, cartan=None, roots=None):
        self.cartan = {k: v for k, v in (cartan or {}).items() if v}
        self.roots = {k: v for k, v in (roots or {}).items() if v}

    def __add__(self, other):
        c = dict(self.cartan)
        for k, v in other.cartan.items():
            c[k] = c.get(k, Cyc(0)) + v
        r = dict(self.roots)
        for k, v in other.roots.items():
            r[k] = r.get(k, Cyc(0)) + v
        return LieElement(c, r)

    def __sub__(self, other):
        return self + (other * Cyc(-1))

    def __mul__(self, scalar):
        scalar = scalar if isinstance(scalar, Cyc) else Cyc(scalar)
        return LieElement({k: v * scalar for k, v in self.cartan.items()},
                          {k: v * scalar for k, v in self.roots.items()})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.cartan and not self.roots

    def __eq__(self, other):
        return self.cartan == other.cartan and self.roots == other.roots

    def __repr__(self):
        return f"LieElement(cartan={self.cartan!r}, roots={self.roots!r})"


class GradedAlgebra:
    """Multiplication table plus the order-3 symmetry and its grading."""

    def __init__(self, model: HeisenbergModel | None = None):
        self.model = model or build_model()
        self.rs: RootSystem = self.model.rs
        rs = self.rs
        n = 240
        self.n = n

        self.cls = [self.model.root_class(r) for r in rs.roots]
        self.cr = [rs.to_basis(r) for r in rs.roots]
        self.negidx = [rs.index[neg(r)] for r in rs.roots]
        self.windex = list(rs.w_on_roots)
        # pairing of every basis-coroot with every root, and root with root
        self.P = [[pairing(b, r) for r in rs.roots] for b in rs.basis]
        self.PR = [[pairing(a, b) for b in rs.roots] for a in rs.roots]
        # degree grading by coordinate-sum type of the canonical representative
        self.degree = [sum(r) // 3 for r in rs.roots]
        xvec = [Fraction(3 * d) - Fraction(44, 3) for d in
                (0, 2, 3, 4, 5, 6, 7, 8, 9)]
        hts = [sum(x * c for x, c in zip(xvec, r)) for r in rs.roots]
        if any(h.denominator != 1 for h in hts):
            raise AssertionError("grading element is not integral on a root")
        self.height = [int(h) for h in hts]
        if any(self.height[i] % 3 != self.degree[i] % 3 for i in range(n)):
            raise AssertionError("height and degree disagree mod 3")

        self._build_table()
        self._reps = {}

    def _pair_exponent(self, i, j) -> int:
        return (self.PR[i][j] - self.PR[self.windex[i]][j]) % 3

    def _build_table(self):
        n = self.n
        kind = [bytearray(n) for _ in range(n)]
        out = [[0] * n for _ in range(n)]
        scl = [[NONE] * n for _ in range(n)]
        rs = self.rs
        index = rs.index
        for i in range(n):
            a = rs.roots[i]
            ci = self.cls[i]
            wi = self.windex[i]
            for j in range(n):
                p = self.PR[i][j]
                if p == -2:
                    # opposite roots: central section product times -coroot
                    kind[i][j] = 2
                    out[i][j] = i
                    pw = (-cocycle(ci, ci)) % 3
                    scl[i][j] = pw + 3  # -w^pw
                elif p == -1:
                    b = rs.roots[j]
                    cj = self.cls[j]
                    sign = pairing(a, rs.roots[self.windex[j]]) % 2
                    pw = (self._pair_exponent(i, j) + cocycle(ci, cj)) % 3
                    kind[i][j] = 1
                    out[i][j] = index[add(a, b)]
                    scl[i][j] = pw + 3 * sign
        self.kind = kind
        self.out = out
        self.scl = scl
        self.nbr = [tuple(j for j in range(n) if kind[i][j]) for i in range(n)]
        self.nbrset = [frozenset(t) for t in self.nbr]

    # -- generic bracket ----------------------------------------------------

    def x(self, i) -> LieElement:
        return LieElement(roots={i: Cyc(1)})

    def coroot(self, i) -> LieElement:
        return LieElement(cartan={a: Cyc(c) for a, c in enumerate(self.cr[i]) if c})

    def cartan_basis(self, a) -> LieElement:
        return LieElement(cartan={a: Cyc(1)})

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        acc_c = {}
        acc_r = {}

        def addc(a, v):
            acc_c[a] = acc_c.get(a, Cyc(0)) + v

        def addr(m, v):
            acc_r[m] = acc_r.get(m, Cyc(0)) + v

        for a, ca in x.cartan.items():
            for j, cj in y.roots.items():
                p = self.P[a][j]
                if p:
                    addr(j, ca * cj * p)
        for i, ci in x.roots.items():
            for a, ca in y.cartan.items():
                p = self.P[a][i]
                if p:
                    addr(i, ci * ca * (-p))
            for j, cj in y.roots.items():
                k = self.kind[i][j]
                if not k:
                    continue
                v = ci * cj * code_cyc(self.scl[i][j])
                if k == 1:
                    addr(self.out[i][j], v)
                else:
                    for a, c in enumerate(self.cr[i]):
                        if c:
                            addc(a, v * c)
        return LieElement(acc_c, acc_r)

    # -- symmetry and gradings ----------------------------------------------

    def theta(self, x: LieElement, power: int = 1) -> LieElement:
        power %= 3
        out = x
        for _ in range(power):
            cart = {}
            if out.cartan:
                w = self.rs.w
                for a, v in out.cartan.items():
                    for b in range(8):
                        if w[b][a]:
                            cart[b] = cart.get(b, Cyc(0)) + v * w[b][a]
            roots = {self.windex[i]: v for i, v in out.roots.items()}
            out = LieElement(cart, roots)
        return out

    def z_element(self, i, twist: int = 0) -> LieElement:
        """Z for the cover element zeta^twist * s(root i); lies in degree 0."""
        w = self.windex
        scal = Cyc.zeta(twist)
        return LieElement(roots={i: scal, w[i]: scal, w[w[i]]: scal})

    def graded_basis(self):
        """Bases of the three eigenspaces of the symmetry, dims (80, 84, 84)."""
        rs = self.rs
        omega = Cyc.zeta(1)
        spaces = {0: [], 1: [], 2: []}
        for orb in rs.orbits:
            r = orb[0]
            w1, w2 = self.windex[r], self.windex[self.windex[r]]
            for i in range(3):
                spaces[i].append(LieElement(roots={
                    r: Cyc(1), w1: Cyc.zeta(-i), w2: Cyc.zeta(-2 * i)}))
        for i in (1, 2):
            rows = [[Cyc(self.rs.w[r][c]) - (Cyc.zeta(i) if r == c else Cyc(0))
                     for c in range(8)] for r in range(8)]
            for vec in nullspace(rows, 8, field="cyc"):
                spaces[i].append(LieElement(
                    cartan={a: v for a, v in enumerate(vec) if v}))
        dims = [len(spaces[i]) for i in (0, 1, 2)]
        if dims != [80, 84, 84]:
            raise AssertionError(f"graded dimensions {dims}")
        return spaces

    def grading_check(self, x: LieElement, i: int) -> bool:
        return self.theta(x) == x * Cyc.zeta(i)

    # -- representation -----------------------------------------------------

    def rho(self, i) -> Mono:
        """Action of the canonical cover element over root i."""
        return svn_rep(HeisElement(0, self.cls[i]))

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
        bad = []
        n = self.n
        w = self.windex
        for i in range(n):
            wi = w[i]
            for j in range(n):
                wj = w[j]
                if self.kind[i][j] != self.kind[wi][wj]:
                    bad.append((i, j))
                    continue
                k = self.kind[i][j]
                if k == 1 and (self.out[wi][wj] != w[self.out[i][j]]
                               or self.scl[wi][wj] != self.scl[i][j]):
                    bad.append((i, j))
                elif k == 2 and self.scl[wi][wj] != self.scl[i][j]:
                    bad.append((i, j))
        # cartan side: invariance of the pairing
        W = self.rs.w
        for a in range(8):
            for j in range(0, n, 7):
                lhs = sum(W[b][a] * self.P[b][w[j]] for b in range(8))
                if lhs != self.P[a][j]:
                    bad.append(("cartan", a, j))
        return bad

    def check_lambda_twists(self):
        """The class-twist maps X_r -> <lam, cls(r)> X_r preserve the table."""
        bad = []
        for k in range(80):
            lam_cls = self._nonzero_class(k)
            sp_i = [commutator_exponent(lam_cls, c) for c in self.cls]
            for i in range(self.n):
                ei = sp_i[i]
                for j in self.nbr[i]:
                    e = (ei + sp_i[j]) % 3
                    if self.kind[i][j] == 1:
                        if e != sp_i[self.out[i][j]]:
                            bad.append((k, i, j))
                    elif e != 0:
                        bad.append((k, i, j))
        return bad

    def _nonzero_class(self, k):
        orb = self.rs.orbits[k]
        return self.cls[orb[0]]

    # -- structure constants dump --------------------------------------------

    def dump_lines(self):
        lines = []
        for i in range(self.n):
            for j in self.nbr[i]:
                k = self.kind[i][j]
                if k == 1:
                    lines.append(f"r {i} {j} -> {self.out[i][j]} code {self.scl[i][j]}")
                else:
                    lines.append(f"c {i} {j} code {self.scl[i][j]}")
        for a in range(8):
            for j in range(self.n):
                if self.P[a][j]:
                    lines.append(f"h {a} {j} {self.P[a][j]}")
        return lines

    def digest(self) -> str:
        blob = "\n".join(self.dump_lines()).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# degree-0 part inside the 9x9 traceless matrices
# ---------------------------------------------------------------------------

# integer pairs (x, y) = (1 + 2w) * w^k, used to compare 3 * kappa * zeta^k
_THREE_KAPPA = {0: (1, 2), 1: (-2, -1), 2: (1, -1)}


def rho_prime(alg: GradedAlgebra, z: LieElement):
    """Image of a degree-0 element as a dense 9x9 Q(w) matrix.

    The element must lie in the span of the symmetrized orbit vectors:
    no cartan part and orbit-constant root coefficients.
    """
    if z.cartan:
        raise ValueError("element has a cartan part; not in the degree-0 span")
    rows = [[Cyc(0)] * 9 for _ in range(9)]
    seen = set()
    for i, c in z.roots.items():
        o = alg.rs.orbit_of[i]
        if o in seen:
            continue
        seen.add(o)
        for m in alg.rs.orbits[o]:
            if z.roots.get(m, Cyc(0)) != c:
                raise ValueError("coefficients not constant on an orbit")
        mono = alg.rho(alg.rs.orbits[o][0])
        scal = c * KAPPA
        for y in range(9):
            rows[mono.perm[y]][y] = rows[mono.perm[y]][y] + scal * Cyc.zeta(mono.expo[y])
    return rows


def _collapse_z_bracket(alg: GradedAlgebra, a: int, b: int):
    """Orbit coefficients of [Z_a, Z_b] as integer w-pairs.

    Returns dict orbit_index -> (x, y); raises if the result fails to lie
    in the degree-0 span (which would signal a table bug).
    """
    w = alg.windex
    us = (a, w[a], w[w[a]])
    vs = (b, w[b], w[w[b]])
    acc_r = {}
    cart = [[0, 0] for _ in range(8)]
    for i in us:
        ki = alg.kind[i]
        oi = alg.out[i]
        si = alg.scl[i]
        for j in vs:
            k = ki[j]
            if not k:
                continue
            x, y = code_pair(si[j])
            if k == 1:
                t = oi[j]
                p = acc_r.get(t)
                if p is None:
                    acc_r[t] = [x, y]
                else:
                    p[0] += x
                    p[1] += y
            else:
                for c_idx, c in enumerate(alg.cr[i]):
                    if c:
                        cart[c_idx][0] += x * c
                        cart[c_idx][1] += y * c
    if any(v[0] or v[1] for v in cart):
        raise AssertionError("cartan residue in a bracket of symmetrized vectors")
    out = {}
    for t, p in acc_r.items():
        o = alg.rs.orbit_of[t]
        prev = out.get(o)
        if prev is None:
            out[o] = (p[0], p[1], t)
        else:
            if (prev[0], prev[1]) != (p[0], p[1]):
                raise AssertionError("coefficients not orbit-constant")
    # confirm every member of each orbit was hit consistently
    for o, (x, y, _) in list(out.items()):
        for m in alg.rs.orbits[o]:
            p = acc_r.get(m)
            if p is None or (p[0], p[1]) != (x, y):
                raise AssertionError("orbit member missing in bracket collapse")
        if x == 0 and y == 0:
            del out[o]
    return {o: (x, y) for o, (x, y, _) in out.items()}


def _pair_mul_zeta(x, y, k):
    """(x + y w) * w^k as an integer pair."""
    k %= 3
    if k == 0:
        return x, y
    if k == 1:
        return -y, x - y
    return y - x, -x


def verify_rho_prime_homomorphism(alg: GradedAlgebra | None = None):
    """Exact check of bracket preservation on all 240 x 240 pairs."""
    alg = alg or get_algebra()
    # rho factors through the coinvariant class, so any orbit member gives
    # the same monomial matrix
    monos = [alg.rho(i) for i in range(alg.n)]
    mismatches = []
    pairs = 0
    for a in range(alg.n):
        ma = monos[a]
        for b in range(alg.n):
            pairs += 1
            mb = monos[b]
            lhs = {}
            for o, (x, y) in _collapse_z_bracket(alg, a, b).items():
                mono = monos[alg.rs.orbits[o][0]]
                for col in range(9):
                    xx, yy = _pair_mul_zeta(3 * x, 3 * y, mono.expo[col])
                    key = (mono.perm[col], col)
                    p = lhs.get(key)
                    if p is None:
                        lhs[key] = [xx, yy]
                    else:
                        p[0] += xx
                        p[1] += yy
            rhs = {}
            for mono, sgn in ((ma * mb, 1), (mb * ma, -1)):
                for col in range(9):
                    xx, yy = _THREE_KAPPA[mono.expo[col]]
                    key = (mono.perm[col], col)
                    p = rhs.get(key)
                    if p is None:
                        rhs[key] = [sgn * xx, sgn * yy]
                    else:
                        p[0] += sgn * xx
                        p[1] += sgn * yy
            lhs = {k: tuple(v) for k, v in lhs.items() if v[0] or v[1]}
            rhs = {k: tuple(v) for k, v in rhs.items() if v[0] or v[1]}
            if lhs != rhs:
                mismatches.append((a, b))
    return {"pairs": pairs, "mismatches": mismatches}


def verify_heis_action_match(alg: GradedAlgebra | None = None):
    """Conjugation eigenvalue vs the lattice pairing, on all root pairs."""
    alg = alg or get_algebra()
    monos = [alg.rho(i) for i in range(alg.n)]
    invs = [m.inverse() for m in monos]
    mismatches = []
    pairs = 0
    for a in range(alg.n):
        ma, mai = monos[a], invs[a]
        for b in range(alg.n):
            pairs += 1
            conj = ma * monos[b] * mai
            t = conj.scalar_ratio(monos[b])
            lattice = alg.rs.symplectic_exponent(alg.rs.roots[a], alg.rs.roots[b])
            if t is None or t != lattice:
                mismatches.append((a, b, t, lattice))
    return {"pairs": pairs, "mismatches": mismatches}


def rho_prime_image_rank(alg: GradedAlgebra | None = None) -> int:
    """Rank over Q(w) of the 80 orbit images inside 9x9 matrices."""
    alg = alg or get_algebra()
    rows = []
    for orb in alg.rs.orbits:
        mono = alg.rho(orb[0])
        row = {}
        for col in range(9):
            row[9 * mono.perm[col] + col] = Cyc.zeta(mono.expo[col])
        rows.append(row)
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c in pivots:
                f = row[c]
                prow = pivots[c]
                for cc, v in prow.items():
                    nv = row.get(cc, Cyc(0)) - f * v
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
            else:
                inv = row[c].inverse()
                pivots[c] = {cc: v * inv for cc, v in row.items()}
                rank += 1
                break
    return rank


def rho_prime_traceless(alg: GradedAlgebra | None = None) -> bool:
    alg = alg or get_algebra()
    return all(alg.rho(orb[0]).trace() == Cyc(0) for orb in alg.rs.orbits)


# ---------------------------------------------------------------------------
# Killing form
# ---------------------------------------------------------------------------

def _ad_coeff_at(alg, i, j, k):
    """w-pair coefficient of basis vector k in [b_i, [b_j, b_k]] for root
    indices i, j, k (k may also be ('c', a) for a cartan slot)."""
    if isinstance(k, tuple):
        a = k[1]
        # [x_j, h_a] = -P[a][j] x_j, then [x_i, x_j] must output cartan a
        if alg.kind[i][j] != 2:
            return (0, 0)
        x, y = code_pair(alg.scl[i][j])
        c = -alg.P[a][j] * alg.cr[i][a]
        return (x * c, y * c)
    kjk = alg.kind[j][k]
    if kjk == 0:
        return (0, 0)
    if kjk == 1:
        m = alg.out[j][k]
        if alg.kind[i][m] == 1 and alg.out[i][m] == k:
            x, y = code_pair(code_mul(alg.scl[j][k], alg.scl[i][m]))
            return (x, y)
        if alg.kind[i][m] == 2:
            # lands in the cartan; contribution to root k needs [x_i, h] ~ x_i
            return (0, 0)
        return (0, 0)
    # [x_j, x_k] cartan-valued (k = -j); then [x_i, coroot(j)] = -(j,i) x_i
    if i != k:
        return (0, 0)
    c = -alg.PR[j][i]
    x, y = code_pair(alg.scl[j][k])
    return (x * c, y * c)


def killing_diag_root(alg: GradedAlgebra, r: int):
    """kappa(X_r, X_{-r}) as a w-pair, by honest trace of ad X_r ad X_{-r}."""
    s = alg.negidx[r]
    tot = [0, 0]
    for k in range(alg.n):
        x, y = _ad_coeff_at(alg, r, s, k)
        tot[0] += x
        tot[1] += y
    for a in range(8):
        x, y = _ad_coeff_at(alg, r, s, ("c", a))
        tot[0] += x
        tot[1] += y
    return tuple(tot)


def killing_gram(alg: GradedAlgebra | None = None, sample_seed: int = 0):
    """Killing form data: cartan block, root diagonal, zero-pattern samples.

    Returns a dict with the 8x8 cartan block (integers), the 240 values
    kappa(X_r, X_{-r}), and counters confirming sampled off-pattern pairs
    trace to zero.
    """
    import random

    alg = alg or get_algebra()
    cart = [[sum(alg.P[a][m] * alg.P[b][m] for m in range(alg.n))
             for b in range(8)] for a in range(8)]
    diag = [killing_diag_root(alg, r) for r in range(alg.n)]
    rng = random.Random(sample_seed)
    zero_samples = 0
    for _ in range(200):
        r = rng.randrange(alg.n)
        s = rng.randrange(alg.n)
        if s == alg.negidx[r]:
            continue
        tot = [0, 0]
        for k in range(alg.n):
            x, y = _ad_coeff_at(alg, r, s, k)
            tot[0] += x
            tot[1] += y
        for a in range(8):
            x, y = _ad_coeff_at(alg, r, s, ("c", a))
            tot[0] += x
            tot[1] += y
        if tot != [0, 0]:
            raise AssertionError(f"kappa(X_{r}, X_{s}) = {tot}, expected 0")
        zero_samples += 1
    # mixed cartan/root entries: [h_a, [x_r, b_k]] never returns to b_k
    # (the inner bracket lands on weight r + k != k or in the cartan) so
    # the honest trace accumulates no terms at all
    for _ in range(100):
        a = rng.randrange(8)
        r = rng.randrange(alg.n)
        acc = 0
        for k in range(alg.n):
            if alg.kind[r][k] == 1 and alg.out[r][k] == k:
                acc += 1
        if acc:
            raise AssertionError(f"[h_{a}, [x_{r}, .]] has a diagonal term")
    from .intlinalg import det_bareiss
    theta_ok = all(
        diag[alg.windex[r]] == diag[r] for r in range(alg.n))
    # the canonical zero-centre section leaves a harmless diagonal twist
    # zeta^c on dual pairs; scaling X_r by zeta^(2 c(cls, cls)) removes it
    gauged = []
    for r in range(alg.n):
        c = cocycle(alg.cls[r], alg.cls[r]) % 3
        x, y = _pair_mul_zeta(*diag[r], c)
        gauged.append((x, y))
    nondegenerate = (det_bareiss([row[:] for row in cart]) != 0
                     and all(x or y for x, y in diag))
    return {
        "cartan_block": cart,
        "cartan_det": det_bareiss([row[:] for row in cart]),
        "root_diag": diag,
        "root_diag_gauged": gauged,
        "zero_samples": zero_samples,
        "theta_orthogonal": theta_ok,
        "nondegenerate": nondegenerate,
        "integer_entries": all(y == 0 for _, y in gauged),
    }


# ---------------------------------------------------------------------------
# Jacobi sweep
# ---------------------------------------------------------------------------

def _jacobi_root_range(alg: GradedAlgebra, lo: int, hi: int):
    """Check all unordered root triples i<j<k with lo <= i < hi.

    Returns (evaluated, violations).  Triples where no pair brackets
    nonzero hold trivially: the weight of any inner bracket can never
    return to the third weight when all three pairings are >= 0.
    """
    kind = alg.kind
    out = alg.out
    scl = alg.scl
    PR = alg.PR
    cr = alg.cr
    nbrset = alg.nbrset
    n = alg.n
    evaluated = 0
    violations = []

    for i in range(lo, hi):
        kind_i = kind[i]
        out_i = out[i]
        scl_i = scl[i]
        PRi = PR[i]
        cand_i = nbrset[i]
        for j in range(i + 1, n):
            kind_j = kind[j]
            out_j = out[j]
            scl_j = scl[j]
            ks = cand_i | nbrset[j]
            kij = kind_i[j]
            for k in ks:
                if k <= j:
                    continue
                evaluated += 1
                acc_r = {}
                acc_c = None
                # term [x_i, [x_j, x_k]]
                kjk = kind_j[k]
                if kjk == 1:
                    m = out_j[k]
                    s = scl_j[k]
                    km = kind_i[m]
                    if km == 1:
                        c2 = code_mul(s, scl_i[m])
                        t = out_i[m]
                        x, y = code_pair(c2)
                        p = acc_r.get(t)
                        if p is None:
                            acc_r[t] = [x, y]
                        else:
                            p[0] += x
                            p[1] += y
                    elif km == 2:
                        x, y = code_pair(code_mul(s, scl_i[m]))
                        acc_c = _addc(acc_c, cr[i], x, y)
                elif kjk == 2:
                    c = -PR[j][i]
                    if c:
                        x, y = code_pair(scl_j[k])
                        p = acc_r.get(i)
                        if p is None:
                            acc_r[i] = [x * c, y * c]
                        else:
                            p[0] += x * c
                            p[1] += y * c
                # term [x_j, [x_k, x_i]]
                kki = kind[k][i]
                if kki == 1:
                    m = out[k][i]
                    s = scl[k][i]
                    km = kind_j[m]
                    if km == 1:
                        c2 = code_mul(s, scl_j[m])
                        t = out_j[m]
                        x, y = code_pair(c2)
                        p = acc_r.get(t)
                        if p is None:
                            acc_r[t] = [x, y]
                        else:
                            p[0] += x
                            p[1] += y
                    elif km == 2:
                        x, y = code_pair(code_mul(s, scl_j[m]))
                        acc_c = _addc(acc_c, cr[j], x, y)
                elif kki == 2:
                    c = -PR[k][j]
                    if c:
                        x, y = code_pair(scl[k][i])
                        p = acc_r.get(j)
                        if p is None:
                            acc_r[j] = [x * c, y * c]
                        else:
                            p[0] += x * c
                            p[1] += y * c
                # term [x_k, [x_i, x_j]]
                if kij == 1:
                    m = out_i[j]
                    s = scl_i[j]
                    km = kind[k][m]
                    if km == 1:
                        c2 = code_mul(s, scl[k][m])
                        t = out[k][m]
                        x, y = code_pair(c2)
                        p = acc_r.get(t)
                        if p is None:
                            acc_r[t] = [x, y]
                        else:
                            p[0] += x
                            p[1] += y
                    elif km == 2:
                        x, y = code_pair(code_mul(s, scl[k][m]))
                        acc_c = _addc(acc_c, cr[k], x, y)
                elif kij == 2:
                    c = -PRi[k]
                    if c:
                        x, y = code_pair(scl_i[j])
                        p = acc_r.get(k)
                        if p is None:
                            acc_r[k] = [x * c, y * c]
                        else:
                            p[0] += x * c
                            p[1] += y * c

                ok = all(p[0] == 0 and p[1] == 0 for p in acc_r.values())
                if ok and acc_c is not None:
                    ok = all(v[0] == 0 and v[1] == 0 for v in acc_c)
                if not ok:
                    residual = {t: tuple(p) for t, p in acc_r.items()
                                if p[0] or p[1]}
                    violations.append((i, j, k, repr(residual)))
    return evaluated, violations


def _addc(acc, coords, x, y):
    if acc is None:
        acc = [[0, 0] for _ in range(8)]
    for a in range(8):
        c = coords[a]
        if c:
            acc[a][0] += x * c
            acc[a][1] += y * c
    return acc


def _jacobi_cartan_parts(alg: GradedAlgebra):
    """Triples with at least one cartan generator."""
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


_WORK_ALG = None


def _pool_init():
    global _WORK_ALG
    _WORK_ALG = get_algebra()


def _pool_job(args):
    lo, hi = args
    return _jacobi_root_range(_WORK_ALG, lo, hi)


def verify_jacobi(alg: GradedAlgebra | None = None, threads: int = 1):
    """Full Jacobi sweep over basis triples.

    Candidate pruning is exact: if none of the three pairwise brackets is
    nonzero, every term vanishes (additivity of weights forbids the inner
    bracket from reaching the remaining weight).
    """
    alg = alg or get_algebra()
    evaluated, violations = _jacobi_cartan_parts(alg)
    if threads > 1:
        import multiprocessing as mp
        chunks = _balanced_chunks(alg.n, threads * 4)
        with mp.Pool(threads, initializer=_pool_init) as pool:
            for ev, vi in pool.map(_pool_job, chunks):
                evaluated += ev
                violations.extend(vi)
    else:
        ev, vi = _jacobi_root_range(alg, 0, alg.n)
        evaluated += ev
        violations.extend(vi)
    violations.sort(key=repr)
    anti = alg.check_antisymmetry()
    return {
        "evaluated_triples": evaluated,
        "violations": violations,
        "antisymmetry_violations": anti,
    }


def _balanced_chunks(n, parts):
    """Split [0, n) into ranges with roughly equal triple counts.

    The i-loop body cost decays roughly like (n - i)^2; balance on that.
    """
    total = sum((n - i) ** 2 for i in range(n))
    target = total / parts
    chunks = []
    lo = 0
    acc = 0.0
    for i in range(n):
        acc += (n - i) ** 2
        if acc >= target and lo <= i:
            chunks.append((lo, i + 1))
            lo = i + 1
            acc = 0.0
    if lo < n:
        chunks.append((lo, n))
    return chunks


_ALGEBRA = None


def get_algebra() -> GradedAlgebra:
    global _ALGEBRA
    if _ALGEBRA is None:
        _ALGEBRA = GradedAlgebra()
    return _ALGEBRA
