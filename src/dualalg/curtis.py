"""Closed-form Curtis transfer matrices for the rank-two general linear case
and its adjoint cousin, the central parity lattice, saturation of the image
lattice, the half-integral non-saturation witness, and the companion tables
over cyclotomic integers.

The transfer map Phi sends an orbit sum r(lam) in the quotient ring to the
pair of group-algebra elements obtained by reducing each orbit weight modulo
(F*w - id) for the two twist sectors; concretely, for the split sector the
class of (m1, m2) is (m1, m2) mod q-1 indexing diag(z^m1, z^m2), and for the
twisted sector it is m1 + q*m2 mod q^2-1 indexing the norm-one-parametrized
torus.  These coordinates reproduce the published coefficient tables row for
row, with one correction: in the twisted table the first hit for middle rows
is at column (v, u), not (1, u); the printed (1, u) fails both the column-mass
and the ring-homomorphism constraints, so it is treated as a misprint.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .balgebra import GENERIC_SC, build_context, normal_form
from .errors import CrossCheckFailed, DimensionMismatch, PrimeMismatch, QEven
from .finitefield import GF
from .intlinalg import IntMatrix, kernel_basis, lattice_hnf, lattices_equal, saturation_rows
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

    def scale(self, c):
        return CyclotomicInt(self.p, tuple(c * a for a in self.coeffs))

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

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def divisible_by(self, n):
        return all(c % n == 0 for c in self.coeffs)

    def __repr__(self):
        return f"CyclotomicInt(p={self.p}, {self.coeffs})"


class FiniteTorusAlgebraElement:
    """Group-algebra element of one twist sector of the finite torus.

    ``which`` is "split" or "twisted"; keys are (a, b) pairs mod q-1 for the
    split sector of the rank-two case, plain residues for cyclic sectors.
    """

    __slots__ = ("which", "coeffs")

    def __init__(self, which, coeffs=None):
        self.which = which
        self.coeffs = dict(coeffs or {})

    def get(self, key, default=0):
        return self.coeffs.get(key, default)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteTorusAlgebraElement)
            and self.which == other.which
            and {k: v for k, v in self.coeffs.items() if _nonzero(v)}
            == {k: v for k, v in other.coeffs.items() if _nonzero(v)}
        )

    def __repr__(self):
        return f"FiniteTorusAlgebraElement({self.which}, {self.coeffs})"


def _nonzero(v):
    if isinstance(v, CyclotomicInt):
        return not v.is_zero()
    return v != 0


# -- torus combinatorics -----------------------------------------------------


class TorusIndexing:
    """Discrete-log coordinates for the two twist sectors."""

    def __init__(self, group, q):
        self.group = group
        self.q = q
        if group == GL2:
            self.split_order = (q - 1) ** 2
            self.twisted_order = q * q - 1
        elif group == PGL2:
            self.split_order = q - 1
            self.twisted_order = q + 1
        else:
            raise ValueError(f"unknown group {group!r}")

    def split_keys(self):
        q = self.q
        if self.group == GL2:
            return [(a, b) for a in range(q - 1) for b in range(q - 1)]
        return list(range(q - 1))

    def twisted_keys(self):
        return list(range(self.twisted_order))

    def split_of_weight(self, lam):
        q = self.q
        if self.group == GL2:
            return (lam[0] % (q - 1), lam[1] % (q - 1))
        return lam[0] % (q - 1)

    def twisted_of_weight(self, lam):
        q = self.q
        if self.group == GL2:
            return (lam[0] + q * lam[1]) % (q * q - 1)
        return lam[0] % (q + 1)

    def split_mul(self, k1, k2):
        q = self.q
        if self.group == GL2:
            return ((k1[0] + k2[0]) % (q - 1), (k1[1] + k2[1]) % (q - 1))
        return (k1 + k2) % (q - 1)

    def twisted_mul(self, k1, k2):
        return (k1 + k2) % self.twisted_order

    def central_pairs(self):
        """(split key, twisted key) pairs running over the central subgroup."""
        q = self.q
        if self.group == GL2:
            return [((a, a), (q + 1) * a % (q * q - 1)) for a in range(q - 1)]
        return [(0, 0)]


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
    """Image (f_split, f_twisted) of an invariant element under the transfer map."""
    ti = TorusIndexing(group, q)
    f1 = {}
    fs = {}
    for lam, c in x.coeffs.items():
        for mu in cache.orbit(lam):
            k1 = ti.split_of_weight(mu)
            ks = ti.twisted_of_weight(mu)
            f1[k1] = f1.get(k1, 0) + c
            fs[ks] = fs.get(ks, 0) + c
    return (
        FiniteTorusAlgebraElement("split", {k: v for k, v in f1.items() if v}),
        FiniteTorusAlgebraElement("twisted", {k: v for k, v in fs.items() if v}),
    )


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
        for k, v in f1.coeffs.items():
            m1[sindex[k]][cidx] = v
        for k, v in fs.coeffs.items():
            ms[k][cidx] = v
    return IntMatrix(m1), IntMatrix(ms)


def convolve(ti: TorusIndexing, which, f, g):
    """Group-algebra convolution of coefficient dicts in one sector."""
    out = {}
    mul = ti.split_mul if which == "split" else ti.twisted_mul
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = mul(k1, k2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def parity_lattice_member(group, q, f1: FiniteTorusAlgebraElement, fs: FiniteTorusAlgebraElement):
    """True iff the two restrictions to the central subgroup differ by twice
    an integral element."""
    ti = TorusIndexing(group, q)
    for ks, kt in ti.central_pairs():
        if (f1.get(ks, 0) - fs.get(kt, 0)) % 2 != 0:
            return False
    return True


def _stacked_columns(group, q):
    """Columns of the full transfer matrix as vectors in Z^(split + twisted)."""
    m1, ms = phi_matrix(group, q)
    ncols = m1.cols
    cols = []
    for j in range(ncols):
        cols.append(tuple(m1.col(j)) + tuple(ms.col(j)))
    return cols, m1.rows, ms.rows


def _parity_condition_rows(group, q, nsplit, ntwisted):
    ti = TorusIndexing(group, q)
    skeys = {k: i for i, k in enumerate(ti.split_keys())}
    rows = []
    for ks, kt in ti.central_pairs():
        v = [0] * (nsplit + ntwisted)
        v[skeys[ks]] = 1
        v[nsplit + kt] -= 1
        rows.append(v)
    return rows


def saturation_check(group, q):
    """Image lattice == (rational span intersect parity lattice), over Z."""
    cols, nsplit, ntwisted = _stacked_columns(group, q)
    n = nsplit + ntwisted
    image = lattice_hnf(cols, n)
    sat = saturation_rows([list(r) for r in image.entries], n)
    parity = _parity_condition_rows(group, q, nsplit, ntwisted)
    # sublattice of sat where all parity forms are even
    satm = [list(r) for r in sat]
    cmat = [[sum(p[k] * row[k] for k in range(n)) % 2 for row in satm] for p in parity]
    coeff_lattice = _even_solution_lattice(cmat, len(satm))
    l2 = [
        [sum(c[i] * satm[i][k] for i in range(len(satm))) for k in range(n)]
        for c in coeff_lattice
    ]
    return lattices_equal([list(r) for r in image.entries], l2, n)


def _even_solution_lattice(cmat_mod2, ncols):
    """Basis of {y in Z^ncols : cmat * y = 0 mod 2}, as integer rows: the
    first ncols coordinates of the kernel of [cmat | 2*I], in canonical HNF."""
    n = len(cmat_mod2)
    stacked = [list(row) + [2 * (i == j) for j in range(n)] for i, row in enumerate(cmat_mod2)]
    kernel = kernel_basis(IntMatrix(stacked))
    return [list(r) for r in lattice_hnf([v[:ncols] for v in kernel], ncols).entries]


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
        "image_integral": all(v % 2 == 0 for v in (*img1.coeffs.values(), *imgs.coeffs.values())),
        "split_image": {str(k): v // 2 for k, v in sorted(img1.coeffs.items())},
        "twisted_image": {str(k): v // 2 for k, v in sorted(imgs.coeffs.items())},
    }
    return f, certificate


# -- tables over cyclotomic integers ----------------------------------------


def eside_curtis_tables(q):
    """Closed-form transfer values of the standard generator family, as pairs
    of torus functions with cyclotomic-integer values.

    Labels: ("c", a) for scalar generators, ("c'", a, b) for the antidiagonal
    family, with a, b unit discrete logs base the canonical generator.  The
    additive character is trace-then-root-of-unity.
    """
    p, r = prime_power_split(q)
    k2 = GF(p, 2 * r)
    xi = k2.generator()
    zeta = k2.pow(xi, q + 1)  # generates the subfield units
    units = [k2.pow(zeta, k) for k in range(q - 1)]
    dlog_unit = {u: k for k, u in enumerate(units)}

    def psi0(u):
        tr = 0
        cur = u
        for _ in range(r):
            tr = k2.add(tr, cur)
            cur = k2.pow(cur, p)
        if tr >= p:
            raise CrossCheckFailed(f"trace {tr} of {u} does not land in the prime subfield F_{p}")
        return CyclotomicInt.root_power(p, tr)

    tables = {}
    for ka in range(q - 1):
        a = units[ka]
        split = {}
        twisted = {}
        split[(ka, ka)] = CyclotomicInt.one(p)
        twisted[(q + 1) * ka % (q * q - 1)] = CyclotomicInt.one(p)
        tables[("c", ka)] = (
            FiniteTorusAlgebraElement("split", split),
            FiniteTorusAlgebraElement("twisted", twisted),
        )
    for ka in range(q - 1):
        a = units[ka]
        a_inv = k2.inv(a)
        for kb in range(q - 1):
            b = units[kb]
            target_det = k2.mul(b, a_inv)
            split = {}
            for x in range(q - 1):
                for y in range(q - 1):
                    det = k2.mul(units[x], units[y])
                    if det == target_det:
                        tr = k2.add(units[x], units[y])
                        split[(x, y)] = psi0(k2.mul(a, tr))
            twisted = {}
            for c in range(q * q - 1):
                t1 = k2.pow(xi, c)
                t2 = k2.pow(xi, q * c)
                det = k2.mul(t1, t2)
                if det == target_det:
                    tr = k2.add(t1, t2)
                    twisted[c] = -psi0(k2.mul(a, tr))
            tables[("c'", ka, kb)] = (
                FiniteTorusAlgebraElement("split", split),
                FiniteTorusAlgebraElement("twisted", twisted),
            )
    return tables


def eside_parity_holds(q, tables=None):
    """Central-restriction differences are divisible by 2 for every label."""
    p, _ = prime_power_split(q)
    if tables is None:
        tables = eside_curtis_tables(q)
    ti = TorusIndexing(GL2, q)
    zero = CyclotomicInt.zero(p)
    for label, (f1, fs) in tables.items():
        for ks, kt in ti.central_pairs():
            diff = f1.get(ks, zero) - fs.get(kt, zero)
            if not diff.divisible_by(2):
                return False
    return True


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
        g1 = convolve(ti, "split", images[ij1][0].coeffs, images[ij2][0].coeffs)
        gs = convolve(ti, "twisted", images[ij1][1].coeffs, images[ij2][1].coeffs)
        for side, got, want in (("split", f1.coeffs, g1), ("twisted", fs.coeffs, gs)):
            if got != want:
                raise CrossCheckFailed(
                    f"{side} transfer of basis product {ij1} * {ij2} is {got}, "
                    f"convolution gives {want}"
                )
    return True
