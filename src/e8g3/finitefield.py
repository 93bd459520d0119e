"""Table-driven small finite fields F_q (q = p^k odd, q <= MAX_Q) and dense
polynomial arithmetic over them.

Elements are integers 0..q-1 encoding base-p coefficient vectors.  Each
field builds q x q add, sub and mul tables and a neg table: add and neg
as Z_p^k, one base-p digit at a time (`digit_tables`, which also builds
heis's F_3^4 tables), sub from add and neg, and mul through exp/log.  A
field is its tables: every caller reads the add_table, sub_table,
neg_table and mul_table rows and sweeps range(q), so each field operation
downstream is one list lookup; GF's methods (inv, sqrt, is_square,
from_int, zeta3) are the operations that hold logic.  The polynomial
kernels read table rows: a product term is add[out][mul_x[y]] with mul_x
the row of x.  F_(p^k) is built on GF(p): its product is the polynomial
product below, over GF(p), modulo an irreducible.  The tables cost
O(q^2) memory, which bounds q by MAX_Q.
"""

from __future__ import annotations

from functools import cache

from .intlinalg import power

MAX_Q = 512  # largest field order GF builds tables for


def field_order(q: int):
    """(p, k) with q = p^k for an odd prime p and q <= MAX_Q; ValueError
    for any other q, an int-like float or bool included."""
    if type(q) is not int:
        raise ValueError(f"q = {q!r} is not an int")
    if q > MAX_Q:
        raise ValueError(f"q = {q} is above the table bound {MAX_Q}")
    primes = _prime_divisors(q)
    if len(primes) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p = primes[0]
    if p == 2:
        raise ValueError("odd characteristic only")
    return p, next(k for k in range(1, q) if p ** k == q)


def _digits(e: int, p: int, k: int):
    """The k base-p digits of e, least significant first."""
    out = []
    for _ in range(k):
        e, d = divmod(e, p)
        out.append(d)
    return out


def _encode(digits, p: int) -> int:
    out = 0
    for c in reversed(digits):
        out = out * p + c
    return out


def digit_tables(p: int, k: int):
    """The add and neg tables of Z_p^k on base-p codes, one digit at a time:
    with s = p^j, a + s x plus b + s y (a, b < s) is the Z_p^j sum of a and
    b plus s ((x + y) mod p), and -(a + s x) is -a plus s (-x mod p)."""
    add, neg = [[0]], [0]
    size = 1
    for _ in range(k):
        top = [[size * ((x + y) % p) for y in range(p)] for x in range(p)]
        add = [[t + v for t in top[x] for v in row]
               for x in range(p) for row in add]
        neg = [size * (-x % p) + v for x in range(p) for v in neg]
        size *= p
    return add, neg


def _find_irreducible(Fp, k: int):
    """The monic irreducible of degree k > 1 over the prime field Fp whose
    lower coefficients have the smallest code: x^(p^k) = x and
    x^(p^(k/l)) != x modulo it, for each prime l dividing k."""
    p = Fp.q
    for enc in range(p ** k):
        mod = _digits(enc, p, k) + [1]

        def mulmod(a, b):
            return pmod(Fp, pmul(Fp, a, b), mod)
        powers = [[0, 1]]  # x^(p^i) for i = 0..k
        for _ in range(k):
            powers.append(power(mulmod, powers[-1], p, [1]))
        if powers[k] == [0, 1] and all(powers[k // ell] != [0, 1]
                                       for ell in _prime_divisors(k)):
            return mod
    raise ArithmeticError(f"no irreducible of degree {k} over F_{p}")


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class GF:
    """F_q with add, sub, mul and neg tables; q <= MAX_Q.

    F_p multiplies ints mod p; F_(p^k) with k > 1 multiplies the
    polynomials of the digit vectors over GF(p) (`pmul`, `pmod`) modulo
    `modulus`, the smallest monic irreducible of degree k.  The generator
    exp[1] is the smallest element of order q - 1."""

    def __init__(self, q: int):
        p, k = field_order(q)
        self.q = q
        self.p = p
        self.k = k
        if k == 1:
            self.modulus = [0, 1]

            def mul(a, b):
                return a * b % p
        else:
            Fp = get_field(p)
            self.modulus = mod = _find_irreducible(Fp, k)
            digits = [_digits(e, p, k) for e in range(q)]

            def mul(a, b):
                return _encode(pmod(Fp, pmul(Fp, digits[a], digits[b]), mod),
                               p)
        n = q - 1
        divs = _prime_divisors(n)
        g = next(g for g in range(2, q)
                 if all(power(mul, g, n // d, 1) != 1 for d in divs))
        self.exp = [1] * n
        self.log = [0] * q
        cur = 1
        for i in range(n):
            self.exp[i] = cur
            self.log[cur] = i
            cur = mul(cur, g)
        if cur != 1:
            raise AssertionError(f"generator {g} does not have order q - 1")
        self.add_table, self.neg_table = digit_tables(p, k)
        self.sub_table = [[row[nb] for nb in self.neg_table]
                          for row in self.add_table]
        exp2 = self.exp * 2
        self.mul_table = [[0] * q] + [
            [0] + [exp2[la + lb] for lb in self.log[1:]]
            for la in self.log[1:]]
        self._sqrt = [None] * q
        for x in range(q):
            sq = self.mul_table[x][x]
            if self._sqrt[sq] is None:
                self._sqrt[sq] = x

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def sqrt(self, a):
        """One square root, or None."""
        return self._sqrt[a]

    def is_square(self, a):
        return self._sqrt[a] is not None

    def from_int(self, n: int):
        return n % self.p

    def zeta3(self):
        """An element of multiplicative order 3, or None."""
        if (self.q - 1) % 3:
            return None
        return self.exp[(self.q - 1) // 3]

    def __repr__(self):
        return f"GF({self.q})"


@cache
def get_field(q: int) -> GF:
    """GF(q), built once per process; for the small fields that several
    callers share (the prime fields, F_7 and F_49)."""
    return GF(q)


# -- dense polynomials (lists of field elements, low degree first) -----------


def ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = F.add_table
    out = [add[x][y] for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return ptrim(out)


def psub(F, a, b):
    sub = F.sub_table
    out = [sub[x][y] for x, y in zip(a, b)]
    if len(a) > len(b):
        out.extend(a[len(b):])
    else:
        neg = F.neg_table
        out.extend([neg[y] for y in b[len(a):]])
    return ptrim(out)


def pmul(F, a, b):
    if not a or not b:
        return []
    add, mul = F.add_table, F.mul_table
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b, i):
                out[j] = add[out[j]][row[y]]
    return ptrim(out)


def pscale(F, a, c):
    row = F.mul_table[c]
    return ptrim([row[x] for x in a])


def pdivmod(F, a, b):
    """(q, r) with a = q b + r and deg r < deg b, both trimmed.  Each step
    pops the leading coefficient of the remainder and cancels it with the
    lower coefficients of b; the remainder is trimmed once, at the end."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    n = len(b) - 1
    q = [0] * max(0, len(a) - n)
    sub, mul = F.sub_table, F.mul_table
    inv = F.inv(b[-1])
    low = b[:-1]
    while len(a) > n:
        c = mul[a.pop()][inv]
        if c:
            d = len(a) - n
            q[d] = c
            mul_c = mul[c]
            for i, y in enumerate(low, d):
                a[i] = sub[a[i]][mul_c[y]]
    return ptrim(q), ptrim(a)


def pmod(F, a, b):
    return pdivmod(F, a, b)[1]


def pxgcd(F, a, b):
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = pdivmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(F, s0, pmul(F, q, s1))
        t0, t1 = t1, psub(F, t0, pmul(F, q, t1))
    if r0:
        c = F.inv(r0[-1])
        r0, s0, t0 = pscale(F, r0, c), pscale(F, s0, c), pscale(F, t0, c)
    return r0, s0, t0


def peval(F, a, x):
    add, row = F.add_table, F.mul_table[x]
    out = 0
    for c in reversed(a):
        out = add[row[out]][c]
    return out


def pmonic(F, a):
    if not a:
        return []
    return pscale(F, a, F.inv(a[-1]))


def quadratic_roots(F, c0, c1, c2):
    """The roots in F of c2 x^2 + c1 x + c0 in ascending code order; every
    element of F when all three coefficients vanish."""
    add, sub, mul, neg = F.add_table, F.sub_table, F.mul_table, F.neg_table
    if not c2:
        if c1:
            return [mul[neg[c0]][F.inv(c1)]]
        return [] if c0 else range(F.q)
    s = F.sqrt(sub[mul[c1][c1]][mul[F.from_int(4)][mul[c2][c0]]])
    if s is None:
        return []
    i = F.inv(add[c2][c2])
    return sorted({mul[sub[s][c1]][i], mul[sub[neg[s]][c1]][i]})
