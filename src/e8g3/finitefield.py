"""Table-driven small finite fields F_q (q = p^k odd, q bounded by a few
thousand) and dense polynomial arithmetic over them.

Elements are integers 0..q-1 encoding base-p coefficient vectors;
multiplication and inverses go through exp/log tables built once per
field, so all downstream arithmetic is integer indexing.
"""

from __future__ import annotations


def _factor_prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            if q != 1:
                raise ValueError("not a prime power")
            return p, k
    raise ValueError("bad q")


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce by the monic modulus
    k = len(mod) - 1
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            for j in range(k + 1):
                out[i - k + j] = (out[i - k + j] - c * mod[j]) % p
    return out[:k] + [0] * (k - len(out[:k]))


def _find_irreducible(p, k):
    """Deterministic smallest monic irreducible of degree k over F_p."""
    if k == 1:
        return [0, 1]
    for enc in range(p ** k):
        coeffs = []
        e = enc
        for _ in range(k):
            coeffs.append(e % p)
            e //= p
        mod = coeffs + [1]
        # irreducible iff x^(p^k) = x and x^(p^(k/l)) != x for prime l | k
        if _is_irreducible(mod, p, k):
            return mod
    raise AssertionError("no irreducible found")


def _is_irreducible(mod, p, k):
    x = [0, 1] if k > 1 else [0]
    cur = x[:]
    seen = []
    for _ in range(k):
        cur = _poly_powp(cur, p, mod)
        seen.append(cur[:])
    if cur != ([0, 1] + [0] * (k - 2)):
        return False
    for ell in _prime_divisors(k):
        if seen[k // ell - 1] == [0, 1] + [0] * (k - 2):
            return False
    return True


def _poly_powp(a, p, mod):
    out = [1] + [0] * (len(mod) - 2)
    base = a[:]
    n = p
    while n:
        if n & 1:
            out = _poly_mulmod(out, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        n >>= 1
    return out


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
    """F_q with exp/log multiplication tables."""

    def __init__(self, q: int):
        p, k = _factor_prime_power(q)
        if p == 2:
            raise ValueError("odd characteristic only")
        self.q = q
        self.p = p
        self.k = k
        self.modulus = _find_irreducible(p, k)

        def enc(vec):
            out = 0
            for c in reversed(vec):
                out = out * p + c
            return out

        def dec(e):
            vec = []
            for _ in range(k):
                vec.append(e % p)
                e //= p
            return vec

        self._enc, self._dec = enc, dec
        # multiplication via a generator
        self.exp = [1] * (q - 1)
        self.log = [0] * q
        g = self._find_generator()
        cur = 1
        for i in range(q - 1):
            self.exp[i] = cur
            self.log[cur] = i
            cur = enc(_poly_mulmod(dec(cur), dec(g), self.modulus, p))
        assert cur == 1
        self._sqrt = [None] * q
        for x in range(q):
            sq = self.mul(x, x)
            if self._sqrt[sq] is None:
                self._sqrt[sq] = x
        self._add = None
        if q <= 512:
            self._add = [[self._slow_add(a, b) for b in range(q)]
                         for a in range(q)]

    def _find_generator(self):
        n = self.q - 1
        divs = _prime_divisors(n)
        for g in range(2, self.q):
            if all(self._pow_slow(g, n // d) != 1 for d in divs):
                return g
        raise AssertionError("no generator")

    def _pow_slow(self, a, n):
        out = 1
        base = self._dec(a)
        acc = [1] + [0] * (self.k - 1)
        while n:
            if n & 1:
                acc = _poly_mulmod(acc, base, self.modulus, self.p)
            base = _poly_mulmod(base, base, self.modulus, self.p)
            n >>= 1
        return self._enc(acc)

    def _slow_add(self, a, b):
        va, vb = self._dec(a), self._dec(b)
        return self._enc([(x + y) % self.p for x, y in zip(va, vb)])

    # -- field ops ---------------------------------------------------------

    def add(self, a, b):
        if self._add is not None:
            return self._add[a][b]
        return self._slow_add(a, b)

    def neg(self, a):
        return self._enc([(-x) % self.p for x in self._dec(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def pow(self, a, n):
        if a == 0:
            return 0 if n else 1
        return self.exp[(self.log[a] * n) % (self.q - 1)]

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

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"GF({self.q})"


# -- dense polynomials (lists of field elements, low degree first) -----------


def ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(F, a, b):
    n = max(len(a), len(b))
    out = [F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
           for i in range(n)]
    return ptrim(out)


def psub(F, a, b):
    n = max(len(a), len(b))
    out = [F.sub(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
           for i in range(n)]
    return ptrim(out)


def pmul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ptrim(out)


def pscale(F, a, c):
    return ptrim([F.mul(x, c) for x in a])


def pdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = F.inv(b[-1])
    while len(a) >= len(b):
        c = F.mul(a[-1], inv)
        d = len(a) - len(b)
        q[d] = c
        for i in range(len(b)):
            a[d + i] = F.sub(a[d + i], F.mul(c, b[i]))
        ptrim(a)
        if not a:
            break
    return ptrim(q), ptrim(a)


def pmod(F, a, b):
    return pdivmod(F, a, b)[1]


def pgcd(F, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, pmod(F, a, b)
    if a:
        a = pscale(F, a, F.inv(a[-1]))
    return a


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
    out = 0
    for c in reversed(a):
        out = F.add(F.mul(out, x), c)
    return out


def pderiv(F, a):
    return ptrim([F.mul(F.from_int(i), a[i]) for i in range(1, len(a))])


def pmonic(F, a):
    if not a:
        return []
    return pscale(F, a, F.inv(a[-1]))


def squarefree_part(F, a):
    """Monic radical of a nonzero polynomial (counts distinct roots)."""
    if not a:
        raise ValueError("zero polynomial")
    d = pderiv(F, a)
    if not d:
        # perfect p-th power over F_q; recurse on the p-th root
        p = F.p
        root = [a[i] for i in range(0, len(a), p)]
        # p-th root of each coefficient: c -> c^(q/p) since Frobenius is
        # bijective; q/p = p^(k-1)
        root = [F.pow(c, F.q // p) if c else 0 for c in root]
        return squarefree_part(F, root)
    g = pgcd(F, a, d)
    rad, rem = pdivmod(F, a, g)
    assert not rem
    base = pmonic(F, rad)
    extra = squarefree_part(F, g) if len(g) > 1 else []
    if extra:
        # distinct factors of a = factors of base together with those of g
        quot, _ = pdivmod(F, pmul(F, base, extra), pgcd(F, base, extra))
        return pmonic(F, quot)
    return base
