"""Small explicit finite fields GF(p^r), built as F_p[x] modulo a fixed
irreducible polynomial found by exhaustive search.

Elements are encoded as integers in [0, p^r): the base-p digits are the
polynomial coefficients, lowest degree first.  This keeps field elements
hashable and makes matrix enumeration over the field a plain integer loop.
A prime field computes mod p.  An extension field builds three tables of
O(q) entries once: the powers of its smallest-encoded generator g, their
discrete logs, and the Zech logs log(1 + g^k), so that every product, sum,
power and inverse is a table lookup (Lidl & Niederreiter, *Finite Fields*,
1997).  Sized for the conjugacy oracle and the Curtis tables (q up to a few
thousand); nothing here aims at cryptographic sizes.
"""

from __future__ import annotations

from .errors import CrossCheckFailed


class GF:
    def __init__(self, p, r=1):
        self.p = p
        self.r = r
        self.q = p ** r
        self._generator = None
        if r > 1:
            # F_p[x] arithmetic for the modulus search and the power walk
            self._prime = GF(p)
            self.modulus = self._find_irreducible()
            self._build_log_tables()

    # encoding helpers ----------------------------------------------------

    def _encode(self, digits):
        v = 0
        for d in reversed(digits):
            v = v * self.p + (d % self.p)
        return v

    def _find_irreducible(self):
        """Smallest-encoded monic irreducible of degree r over F_p."""
        p, r = self.p, self.r
        for low in range(p ** r):
            coeffs = _digits_fixed(low, p, r) + [1]
            if self._poly_irreducible(coeffs):
                return tuple(coeffs)
        raise CrossCheckFailed(f"GF({self.q}): no monic irreducible of degree {r} over F_{p}")

    def _poly_irreducible(self, coeffs):
        """Check irreducibility by trial division over F_p (tiny degrees)."""
        p = self.p
        deg = len(coeffs) - 1
        for d in range(1, deg // 2 + 1):
            for k in range(p ** d):
                dv = _digits_fixed(k, p, d) + [1]
                if not _poly_rem(self._prime, coeffs, dv):
                    return False
        return True

    def _mul_raw(self, a, b):
        p = self.p
        da, db = _digits_fixed(a, p, self.r), _digits_fixed(b, p, self.r)
        prod = [0] * (2 * self.r - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return self._encode(_poly_rem(self._prime, prod, self.modulus))

    def _build_log_tables(self):
        """_exp[k] = g^k for k < 2(q - 1), g the smallest-encoded generator
        (the first element whose power walk closes after q - 1 steps); _log
        its inverse; _zech[k] = log(1 + g^k), None where 1 + g^k = 0.  An
        element on a walked cycle that closed early lies in a proper subgroup,
        so it is no generator and is not walked."""
        p, n = self.p, self.q - 1
        in_subgroup = set()
        for g in range(2, self.q):
            if g in in_subgroup:
                continue
            exp = [1, g]
            while exp[-1] != 1:
                exp.append(self._mul_raw(exp[-1], g))
            if len(exp) == n + 1:
                break
            in_subgroup.update(exp)
        else:
            raise CrossCheckFailed(f"GF({self.q}): no generator of the multiplicative group")
        del exp[-1]
        self._generator = g
        self._exp = exp * 2
        self._log = [0] * self.q
        for k, x in enumerate(exp):
            self._log[x] = k
        # adding 1 raises only the lowest base-p digit
        self._zech = [self._log[y] if y else None for y in (x - x % p + (x + 1) % p for x in exp)]

    # field operations -----------------------------------------------------
    # An extension field adds through a + b = g^la * (1 + g^(lb - la)); a
    # negative lb - la indexes _zech from its end, which is lb - la mod q - 1.

    def add(self, a, b):
        if self.r == 1:
            return (a + b) % self.p
        if not (a and b):
            return a or b
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def sub(self, a, b):
        """a - b = a + (p - 1) * b: p - 1 encodes -1, which is g^((q-1)/2) in
        odd characteristic and 1 in characteristic 2."""
        if self.r == 1:
            return (a - b) % self.p
        return self.add(a, self.mul(self.p - 1, b))

    def mul(self, a, b):
        if self.r == 1:
            return a * b % self.p
        if not (a and b):
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        if a == 0:
            return 1 if e == 0 else 0
        if self.r == 1:
            return pow(a, e % (self.q - 1), self.p)
        return self._exp[self._log[a] * e % (self.q - 1)]

    def generator(self):
        """Smallest-encoded generator of the multiplicative group: the base of
        an extension field's tables, searched for in a prime field."""
        if self._generator is None:
            n = self.q - 1
            fac = _factorize(n)
            # 1 only for q = 2, where F_2^x is trivial
            self._generator = next(g for g in range(1, self.q)
                                   if all(self.pow(g, n // f) != 1 for f in fac))
        return self._generator


def _factorize(n):
    """{prime: exponent} of n by trial division; {} for n < 2.  The package's
    one factorization routine: primality, prime-power splitting and field
    generators all read it."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _digits_fixed(a, p, length):
    out = []
    for _ in range(length):
        out.append(a % p)
        a //= p
    return out


def poly_gcd(field: GF, a, b):
    """Monic gcd of coefficient lists (low degree first) over the field."""
    a = _trim(a)
    b = _trim(b)
    while b:
        a, b = b, _poly_rem(field, a, b)
    if a:
        lead_inv = field.inv(a[-1])
        a = [field.mul(c, lead_inv) for c in a]
    return a


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(field: GF, a, b):
    """Remainder of a by b over the field, coefficient lists low degree
    first."""
    a = list(a)
    db = len(b) - 1
    inv_lead = field.inv(b[-1])
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - db
        f = field.mul(a[-1], inv_lead)
        for i, c in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(f, c))
        a.pop()
    return _trim(a)


def poly_derivative(field: GF, a):
    out = []
    for i in range(1, len(a)):
        c = a[i]
        k = i % field.p
        acc = 0
        for _ in range(k):
            acc = field.add(acc, c)
        out.append(acc)
    return _trim(out)
