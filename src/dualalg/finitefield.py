"""Small explicit finite fields GF(p^r), built as F_p[x] modulo a fixed
irreducible polynomial found by exhaustive search.

Elements are encoded as integers in [0, p^r): the base-p digits are the
polynomial coefficients, lowest degree first.  This keeps field elements
hashable and makes matrix enumeration over the field a plain integer loop.
Intended for the tiny fields (q <= 25 or so) used by the conjugacy oracle and
the closed-form Curtis tables; nothing here aims at cryptographic sizes.
"""

from __future__ import annotations


class GF:
    def __init__(self, p, r=1):
        self.p = p
        self.r = r
        self.q = p ** r
        # F_p[x] arithmetic for the modulus search and products runs over F_p
        self._prime = GF(p) if r > 1 else self
        self.modulus = self._find_irreducible() if r > 1 else (0, 1)
        self._mul_table = None
        self._generator = None

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
        raise RuntimeError("no irreducible polynomial found")

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

    # field operations -----------------------------------------------------

    def add(self, a, b):
        if self.r == 1:
            return (a + b) % self.p
        da, db = _digits_fixed(a, self.p, self.r), _digits_fixed(b, self.p, self.r)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def sub(self, a, b):
        if self.r == 1:
            return (a - b) % self.p
        da, db = _digits_fixed(a, self.p, self.r), _digits_fixed(b, self.p, self.r)
        return self._encode([(x - y) % self.p for x, y in zip(da, db)])

    def mul(self, a, b):
        if self.r == 1:
            return a * b % self.p
        if self._mul_table is None and self.q <= 4096:
            self._build_mul_table()
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_raw(a, b)

    def _mul_raw(self, a, b):
        p = self.p
        da, db = _digits_fixed(a, p, self.r), _digits_fixed(b, p, self.r)
        prod = [0] * (2 * self.r - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        rem = _poly_rem(self._prime, prod, self.modulus)
        rem += [0] * (self.r - len(rem))
        return self._encode(rem[: self.r])

    def _build_mul_table(self):
        q = self.q
        table = [0] * (q * q)
        for a in range(q):
            for b in range(a, q):
                v = self._mul_raw(a, b)
                table[a * q + b] = v
                table[b * q + a] = v
        self._mul_table = table

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.q - 1
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def generator(self):
        """Smallest-encoded generator of the multiplicative group."""
        if self._generator is None:
            n = self.q - 1
            fac = _factorize(n)
            for g in range(1, self.q):  # 1 only for q = 2, where F_2^x is trivial
                if all(self.pow(g, n // f) != 1 for f in fac):
                    self._generator = g
                    break
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
    first; over a prime field the coefficients are plain ints mod p."""
    a = list(a)
    db = len(b) - 1
    inv_lead = field.inv(b[-1])
    p = field.p if field.r == 1 else None
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - db
        if p:
            f = a[-1] * inv_lead % p
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % p
        else:
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
