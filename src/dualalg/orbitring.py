"""Exact arithmetic in the Weyl-invariant group ring in the orbit-sum basis.

An :class:`InvariantElement` is a finite Z-linear combination of orbit sums
r(lam) = sum of e(mu) over the W-orbit of lam, keyed by the dominant orbit
representative.  A product r(lam) r(mu) is computed from one orbit: every
nu in the smaller of W lam, W mu is added to the other weight, the sum is
walked into the dominant chamber, and the hits per dominant weight kappa,
scaled by the larger orbit size over |W kappa|, give the coefficient of
r(kappa) (Stembridge 2001; Humphreys 1990).  No e-basis expansion is formed,
and the swept orbit is the only one built: each orbit size is |W| / |W_J|,
W_J the parabolic stabilizer of the dominant weight (Humphreys 1990, Thm
1.12).

The height of a weight lam is the integer <lam, 2 rho^vee>, twice the
coefficient sum of its derived-part projection in the simple-root basis
(<alpha_i, 2 rho^vee> = 2); it is the strictly decreasing measure behind every
reduction in the quotient-ring layer.
"""

from __future__ import annotations

from operator import index

from .errors import NonIntegral, NotDominant
from .intlinalg import IntMatrix, SmithForm
from .rootdata import RootDatum, chamber, rho_closure


def combine(terms):
    """The coefficient dict of sum c*x over the (x, c) in ``terms``, each x a
    coefficient dict {key -> int}; keys whose sum is zero are dropped.

    The one linear-combination routine of the ring layer: orbit-sum and
    basis-vector sums, differences, scalings and normal forms go through it.
    """
    out = {}
    for coeffs, c in terms:
        for k, v in coeffs.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


class InvariantElement:
    """Sparse map {dominant weight -> nonzero integer coefficient of r(weight)}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    self.coeffs[tuple(k)] = index(v)

    @staticmethod
    def r(lam, coeff=1):
        return InvariantElement({tuple(lam): coeff})

    @staticmethod
    def one(rank):
        return InvariantElement({(0,) * rank: 1})

    def __add__(self, other):
        return InvariantElement(combine(((self.coeffs, 1), (other.coeffs, 1))))

    def __sub__(self, other):
        return InvariantElement(combine(((self.coeffs, 1), (other.coeffs, -1))))

    def __eq__(self, other):
        return isinstance(other, InvariantElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"{v}*r{list(k)}" for k, v in sorted(self.coeffs.items())]
        return " + ".join(parts)


class OrbitCache:
    """Per-datum cache of W-orbits, orbit sizes and heights.

    Reflections act on plain tuples as rank-one updates
    s_i(lam) = lam - <lam, alpha_i^vee> alpha_i, read from the datum's table
    ``rd.simple`` of sparse simple roots and coroots; the dominant
    representative of an orbit is rootdata.chamber on the walls ``rd.walls``.
    """

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self._orbits = {}
        self._sizes = {}
        self._parabolic = {}
        self._heights = {}
        self._height_form = None

    def orbit(self, lam):
        """The W-orbit of ``lam`` as a frozenset, cached under ``lam`` alone:
        every caller passes a dominant weight, one key per orbit.

        Walks down from the dominant representative, reflecting only in
        simple roots with a positive pairing.  Each such step lengthens the
        minimal Weyl element reaching the weight by one, so the levels are
        disjoint and only need deduplicating within themselves.
        """
        lam = tuple(lam)
        got = self._orbits.get(lam)
        if got is not None:
            return got
        simple = self.rd.simple
        level = [chamber(lam, self.rd.walls)]
        seen = set(level)
        while level:
            nxt = set()
            for mu in level:
                for root, coroot in simple:
                    p = 0
                    for k, c in coroot:
                        p += mu[k] * c
                    if p > 0:
                        img = list(mu)
                        for k, a in root:
                            img[k] -= p * a
                        nxt.add(tuple(img))
            seen |= nxt
            level = nxt
        orb = frozenset(seen)
        self._orbits[lam] = orb
        return orb

    def size(self, lam):
        """|W lam| for dominant ``lam``: |W| / |W_J| with W_J the stabilizer,
        generated by the simple reflections of J = {i : <lam, alpha_i^vee> =
        0}; NotDominant on a negative pairing.  |W_J| is the rho_closure of
        the Cartan matrix on J, once per J, and |W| that of J = all."""
        lam = tuple(lam)
        got = self._sizes.get(lam)
        if got is not None:
            return got
        pairs = self.rd.pairings(lam)
        if min(pairs, default=0) < 0:
            raise NotDominant(str(lam))
        order = self._parabolic_order(range(len(pairs)))
        got = self._sizes[lam] = order // self._parabolic_order(i for i, p in enumerate(pairs) if p == 0)
        return got

    def _parabolic_order(self, j):
        j = tuple(j)
        got = self._parabolic.get(j)
        if got is None:
            cartan = self.rd.cartan
            got = self._parabolic[j] = len(rho_closure([[cartan[a][b] for b in j] for a in j])[0])
        return got

    def height(self, lam):
        """The integer <lam, 2 rho^vee> = sum_i c_i <lam, alpha_i^vee>, where
        2 rho^vee = sum_i c_i alpha_i^vee is the sum of the positive coroots,
        the one integer solution of C c = (2, ..., 2) for the Cartan matrix C.
        Central weights have height 0; NonIntegral if C c = 2 has no integer
        solution."""
        lam = tuple(lam)
        got = self._heights.get(lam)
        if got is not None:
            return got
        if self._height_form is None:
            rd = self.rd
            ok, c = SmithForm(IntMatrix(rd.cartan)).solve((2,) * rd.nroots)
            if not ok:
                raise NonIntegral(f"2 rho^vee of {rd.label} is no integer sum of simple coroots")
            self._height_form = c
        h = sum(x * b for x, b in zip(self._height_form, self.rd.pairings(lam)))
        self._heights[lam] = h
        return h


def product(cache: OrbitCache, lam, mu):
    """r(lam) r(mu) for dominant lam, mu as {kappa: coefficient of r(kappa)}.

    For dominant kappa the coefficient is
    |W lam| * #{nu in W mu : dom(lam + nu) = kappa} / |W kappa|, with the
    roles swapped when W lam is the smaller orbit: the smaller one is swept,
    and it is the only orbit built.  Raises NonIntegral if a division is not
    exact."""
    size = cache.size
    size_lam, size_mu = size(lam), size(mu)
    if size_mu <= size_lam:
        fixed, swept, big = lam, mu, size_lam
    else:
        fixed, swept, big = mu, lam, size_mu
    walls = cache.rd.walls
    hits = {}
    for nu in cache.orbit(swept):
        kappa = chamber([x + y for x, y in zip(fixed, nu)], walls)
        hits[kappa] = hits.get(kappa, 0) + 1
    out = {}
    for kappa, h in hits.items():
        coeff, rem = divmod(big * h, size(kappa))
        if rem:
            raise NonIntegral(
                f"coefficient of r({list(kappa)}) in r({list(lam)}) * r({list(mu)}) "
                f"is {big * h}/{size(kappa)}"
            )
        out[kappa] = coeff
    return out


def multiply(cache: OrbitCache, a: InvariantElement, b: InvariantElement):
    """Exact product re-expressed in the r-basis: the combine of the product
    of each term pair.  Each pair builds only the orbit it sweeps, the
    smaller one; every orbit size comes from parabolic orders."""
    return InvariantElement(combine(
        (product(cache, lam, mu), c1 * c2)
        for lam, c1 in a.coeffs.items() for mu, c2 in b.coeffs.items()
    ))
