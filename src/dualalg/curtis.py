"""Closed-form Curtis transfer matrices for the rank-two general linear case
and its adjoint cousin, the central parity lattice, saturation of the image
lattice, the half-integral non-saturation witness, and the companion tables
over cyclotomic integers.

The transfer map Phi sends an orbit sum r(lam) in the quotient ring to the
pair of group-algebra elements obtained by reducing each orbit weight modulo
(F*w - id) for the two twist sectors.  Each sector keys weights by one rule
for both groups: the split class of lam is lam mod q-1 in each coordinate
(on GL2, (m1, m2) indexes diag(z^m1, z^m2)), and the twisted class is
<t, lam> mod N, indexing the norm-one-parametrized torus.  TorusIndexing
holds the three values that depend on the group: the twisted form t, (1, q)
on GL2 and (1,) on PGL2; the twisted order N, q^2-1 and q+1; and the central
weights whose keys pair up in the central parity.  These coordinates
reproduce the published coefficient tables row for row, with one
correction: in the twisted table the first hit for middle rows is at column
(v, u), not (1, u); the printed (1, u) fails both the column-mass and the
ring-homomorphism constraints, so it is treated as a misprint.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .balgebra import GENERIC_SC, build_context, normal_form
from .errors import CrossCheckFailed, DimensionMismatch, PrimeMismatch, QEven
from .finitefield import GF
from .intlinalg import IntMatrix, SmithForm, rank_mod_p
from .orbitring import InvariantElement, OrbitCache, multiply
from .rootdata import FrobeniusData, build_standard, prime_power_split

GL2 = "GL2"
PGL2 = "PGL2"


class CyclotomicInt:
    """Element of Z[zeta_p] in the power basis 1, x, ..., x^(p-2)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs=None):
        self.p = p
        if coeffs is None:
            coeffs = (0,) * (p - 1)
        self.coeffs = tuple(int(c) for c in coeffs)
        if len(self.coeffs) != p - 1:
            raise DimensionMismatch(f"Z[zeta_{p}] takes {p - 1} coefficients, got {coeffs!r}")

    @staticmethod
    def zero(p):
        return CyclotomicInt(p)

    @staticmethod
    def one(p):
        return CyclotomicInt.root_power(p, 0)

    @staticmethod
    def root_power(p, k):
        """zeta_p^k in canonical reduced form."""
        k %= p
        if k == p - 1:
            return CyclotomicInt(p, (-1,) * (p - 1))
        return CyclotomicInt(p, tuple(1 if i == k else 0 for i in range(p - 1)))

    def _same_p(self, other):
        if self.p != other.p:
            raise PrimeMismatch(f"operands in Z[zeta_{self.p}] and Z[zeta_{other.p}]")

    def __add__(self, other):
        self._same_p(other)
        return CyclotomicInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._same_p(other)
        return CyclotomicInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CyclotomicInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        self._same_p(other)
        p = self.p
        folded = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        folded[(i + j) % p] += a * b
        top = folded[p - 1]
        return CyclotomicInt(p, tuple(folded[i] - top for i in range(p - 1)))

    def __eq__(self, other):
        return isinstance(other, CyclotomicInt) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __mod__(self, n):
        """Coefficientwise residue mod n: zero iff n divides the element, the
        power basis being a Z-basis of Z[zeta_p]."""
        return CyclotomicInt(self.p, tuple(c % n for c in self.coeffs))

    def __repr__(self):
        return f"CyclotomicInt(p={self.p}, {self.coeffs})"


# -- torus combinatorics -----------------------------------------------------


class TorusIndexing:
    """Discrete-log coordinates for the two twist sectors.

    One rule per sector: a weight lam has split key lam mod q-1 in each
    coordinate and twisted key <t, lam> mod N.  Three values depend on the
    group: the twisted form t, (1, q) for GL2 and (1,) for PGL2; the twisted
    order N, q^2-1 and q+1; and the central weights, (a, a) for 0 <= a < q-1
    on GL2 and (0,) alone on PGL2.
    """

    def __init__(self, group, q):
        self.q = q
        if group == GL2:
            self.twisted_form, self.twisted_order = (1, q), q * q - 1
            self.central_weights = [(a, a) for a in range(q - 1)]
        elif group == PGL2:
            self.twisted_form, self.twisted_order = (1,), q + 1
            self.central_weights = [(0,)]
        else:
            raise ValueError(f"unknown group {group!r}")

    def split_keys(self):
        return list(itertools.product(range(self.q - 1), repeat=len(self.twisted_form)))

    def twisted_keys(self):
        return list(range(self.twisted_order))

    def split_of_weight(self, lam):
        return tuple(m % (self.q - 1) for m in lam)

    def twisted_of_weight(self, lam):
        return sum(t * m for t, m in zip(self.twisted_form, lam)) % self.twisted_order

    def split_mul(self, k1, k2):
        return self.split_of_weight(a + b for a, b in zip(k1, k2))

    def twisted_mul(self, k1, k2):
        return (k1 + k2) % self.twisted_order

    def central_pairs(self):
        """(split key, twisted key) pairs running over the central subgroup."""
        return [(self.split_of_weight(z), self.twisted_of_weight(z)) for z in self.central_weights]


def datum_for(group):
    if group == GL2:
        return build_standard("GL", 2)
    if group == PGL2:
        # the quotient ring lives on the dual datum, which is the rank-one
        # simply-connected one
        return build_standard("SL", 2)
    raise ValueError(f"unknown group {group!r}")


def table_basis(group, q):
    """Basis weights in the published indexing.

    GL2: r_{i,j} <-> (i+j, j) for 0 <= i <= q-1, 0 <= j <= q-2, columns in
    (i, j) lexicographic order.  PGL2: r_j <-> (j,) for 0 <= j <= q-1.
    """
    if group == GL2:
        return [((i + j, j), (i, j)) for i in range(q) for j in range(q - 1)]
    return [((j,), (j,)) for j in range(q)]


def phi_of_invariant(group, q, x: InvariantElement, cache: OrbitCache):
    """Image (split, twisted) of an invariant element under the transfer map:
    two torus functions as dicts {torus key -> nonzero integer}."""
    ti = TorusIndexing(group, q)
    f1 = {}
    fs = {}
    for lam, c in x.coeffs.items():
        for mu in cache.orbit(lam):
            k1 = ti.split_of_weight(mu)
            ks = ti.twisted_of_weight(mu)
            f1[k1] = f1.get(k1, 0) + c
            fs[ks] = fs.get(ks, 0) + c
    return {k: v for k, v in f1.items() if v}, {k: v for k, v in fs.items() if v}


def phi_matrix(group, q):
    """(M_split, M_twisted): rows indexed by torus elements, columns by the
    published basis order."""
    rd = datum_for(group)
    cache = OrbitCache(rd)
    ti = TorusIndexing(group, q)
    cols = table_basis(group, q)
    skeys = ti.split_keys()
    tkeys = ti.twisted_keys()
    sindex = {k: i for i, k in enumerate(skeys)}
    m1 = [[0] * len(cols) for _ in skeys]
    ms = [[0] * len(cols) for _ in tkeys]
    for cidx, (lam, _) in enumerate(cols):
        f1, fs = phi_of_invariant(group, q, InvariantElement.r(lam), cache)
        for k, v in f1.items():
            m1[sindex[k]][cidx] = v
        for k, v in fs.items():
            ms[k][cidx] = v
    return IntMatrix(m1), IntMatrix(ms)


def convolve(mul, f, g):
    """Group-algebra convolution of coefficient dicts in the sector whose key
    product is mul (TorusIndexing.split_mul or twisted_mul)."""
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = mul(k1, k2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _central_parity(ti: TorusIndexing, f1, fs, zero=0):
    """True iff the restrictions of the torus functions f1 (split) and fs
    (twisted) to the central subgroup differ by twice an element of the value
    ring whose zero is ``zero``."""
    return all((f1.get(ks, zero) - fs.get(kt, zero)) % 2 == zero for ks, kt in ti.central_pairs())


def _stacked_columns(m1, ms):
    """Columns of the full transfer matrix as vectors in Z^(split + twisted)."""
    return [tuple(m1.col(j)) + tuple(ms.col(j)) for j in range(m1.cols)]


def _parity_condition_rows(ti: TorusIndexing):
    skeys = {k: i for i, k in enumerate(ti.split_keys())}
    nsplit = len(skeys)
    rows = []
    for ks, kt in ti.central_pairs():
        v = [0] * (nsplit + ti.twisted_order)
        v[skeys[ks]] = 1
        v[nsplit + kt] -= 1
        rows.append(v)
    return rows


def columns_in_parity_lattice(group, q, m1, ms):
    """True iff every column of the transfer matrices (m1 over ms, as built
    by phi_matrix) pairs evenly with every central-pair row."""
    rows = _parity_condition_rows(TorusIndexing(group, q))
    return all(sum(a * b for a, b in zip(row, col)) % 2 == 0
               for col in _stacked_columns(m1, ms) for row in rows)


def saturation_check(group, q):
    """Image lattice L == (rational span intersect parity lattice P), over Z.

    Once L lies in P, L <= Sat(L) & P <= Sat(L), so equality holds iff the two
    indices in the saturation agree: [Sat : L], the product of the nonzero
    Smith divisors of the stacked transfer matrix, and [Sat : Sat & P], 2 to
    the F_2-rank of the parity rows on a basis of Sat(L)."""
    m1, ms = phi_matrix(group, q)
    if not columns_in_parity_lattice(group, q, m1, ms):
        return False
    form = SmithForm(IntMatrix(m1.entries + ms.entries))
    sat = form.saturation_basis()
    parity = [[sum(a * b for a, b in zip(row, v)) for v in sat]
              for row in _parity_condition_rows(TorusIndexing(group, q))]
    return math.prod(d for d in form.diag if d) == 2 ** rank_mod_p(parity, 2)


def nonsaturation_witness(q):
    """Half-integral element of the rank-two quotient whose transfer image is
    integral; exists for odd q only.

    The image of f is half the image of the integral element 2f.  Returns
    (coeff map over the published basis, certificate dict).
    """
    p, _ = prime_power_split(q)
    if q % 2 == 0:
        raise QEven("the witness requires odd q")
    cols = table_basis(GL2, q)
    f = {ij: Fraction(1, 2) for _, ij in cols if ij[0] >= 2 and ij[0] % 2 == 0}
    weight_of = {ij: lam for lam, ij in cols}
    twice = InvariantElement({weight_of[ij]: int(2 * c) for ij, c in f.items()})
    img1, imgs = phi_of_invariant(GL2, q, twice, OrbitCache(datum_for(GL2)))
    certificate = {
        "half_integral_coeffs": any(c.denominator == 2 for c in f.values()),
        "denominator_coprime_to_p": all(c.denominator % p != 0 for c in f.values()),
        "image_integral": all(v % 2 == 0 for v in (*img1.values(), *imgs.values())),
        "split_image": {str(k): v // 2 for k, v in sorted(img1.items())},
        "twisted_image": {str(k): v // 2 for k, v in sorted(imgs.items())},
    }
    return f, certificate


# -- tables over cyclotomic integers ----------------------------------------


def eside_curtis_tables(q):
    """Closed-form transfer values of the standard generator family: each
    label maps to a (split, twisted) pair of torus functions as dicts with
    nonzero cyclotomic-integer values.

    Labels: ("c", a) for scalar generators, ("c'", a, b) for the antidiagonal
    family, with a, b unit discrete logs base the canonical generator.  The
    additive character is trace-then-root-of-unity.
    """
    p, r = prime_power_split(q)
    k2 = GF(p, 2 * r)
    xi = k2.generator()
    zeta = k2.pow(xi, q + 1)  # generates the subfield units
    units = [k2.pow(zeta, k) for k in range(q - 1)]
    one = CyclotomicInt.one(p)

    def psi0(u):
        tr = 0
        cur = u
        for _ in range(r):
            tr = k2.add(tr, cur)
            cur = k2.pow(cur, p)
        if tr >= p:
            raise CrossCheckFailed(f"trace {tr} of {u} does not land in the prime subfield F_{p}")
        return CyclotomicInt.root_power(p, tr)

    # (key, trace) of every split pair and twisted element, grouped by
    # determinant once: the same for every label
    split_by_det, twisted_by_det = {}, {}
    for x in range(q - 1):
        for y in range(q - 1):
            det = k2.mul(units[x], units[y])
            split_by_det.setdefault(det, []).append(((x, y), k2.add(units[x], units[y])))
    for c in range(q * q - 1):
        t1 = k2.pow(xi, c)
        t2 = k2.pow(xi, q * c)
        twisted_by_det.setdefault(k2.mul(t1, t2), []).append((c, k2.add(t1, t2)))

    tables = {}
    for ka in range(q - 1):
        tables[("c", ka)] = ({(ka, ka): one}, {(q + 1) * ka % (q * q - 1): one})
    for ka, a in enumerate(units):
        a_inv = k2.inv(a)
        for kb, b in enumerate(units):
            det = k2.mul(b, a_inv)
            tables[("c'", ka, kb)] = (
                {k: psi0(k2.mul(a, tr)) for k, tr in split_by_det.get(det, ())},
                {k: -psi0(k2.mul(a, tr)) for k, tr in twisted_by_det.get(det, ())},
            )
    return tables


def eside_parity_holds(q, tables=None):
    """Central-restriction differences are divisible by 2 for every label."""
    p, _ = prime_power_split(q)
    if tables is None:
        tables = eside_curtis_tables(q)
    ti = TorusIndexing(GL2, q)
    zero = CyclotomicInt.zero(p)
    return all(_central_parity(ti, f1, fs, zero) for f1, fs in tables.values())


def homomorphism_check(group, q):
    """Transfer of every normal-formed basis product equals the convolution of
    transfers; returns True or raises CrossCheckFailed naming the offending pair."""
    rd = datum_for(group)
    p, r = prime_power_split(q)
    frob = FrobeniusData(rd, p, r)
    ctx = build_context(rd, frob, GENERIC_SC)
    cache = ctx.cache
    ti = TorusIndexing(group, q)
    basis = table_basis(group, q)
    images = {}
    for lam, ij in basis:
        images[ij] = phi_of_invariant(group, q, InvariantElement.r(lam), cache)
    for (lam1, ij1), (lam2, ij2) in itertools.combinations_with_replacement(basis, 2):
        prod = multiply(cache, InvariantElement.r(lam1), InvariantElement.r(lam2))
        nf = normal_form(ctx, prod)
        f1, fs = phi_of_invariant(group, q, ctx.lift(nf), cache)
        g1 = convolve(ti.split_mul, images[ij1][0], images[ij2][0])
        gs = convolve(ti.twisted_mul, images[ij1][1], images[ij2][1])
        for side, got, want in (("split", f1, g1), ("twisted", fs, gs)):
            if got != want:
                raise CrossCheckFailed(
                    f"{side} transfer of basis product {ij1} * {ij2} is {got}, "
                    f"convolution gives {want}"
                )
    return True
