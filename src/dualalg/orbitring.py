"""Exact arithmetic in the Weyl-invariant group ring in the orbit-sum basis.

An :class:`InvariantElement` is a finite Z-linear combination of orbit sums
r(lam) = sum of e(mu) over the W-orbit of lam, keyed by the dominant orbit
representative.  A product r(lam) r(mu) is computed from one orbit: every
nu in the smaller of W lam, W mu is added to the other weight, the sum is
walked into the dominant chamber, and the hits per dominant weight kappa,
scaled by the larger orbit size over |W kappa|, give the coefficient of
r(kappa) (Stembridge 2001; Humphreys 1990).  No e-basis expansion is formed.

The height of a weight is the coefficient sum when its projection to the
derived part is written in the simple-root basis; it is the strictly
decreasing measure behind every reduction in the quotient-ring layer.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonIntegral
from .rootdata import RootDatum


class InvariantElement:
    """Sparse map {dominant weight -> nonzero integer coefficient of r(weight)}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    self.coeffs[tuple(k)] = int(v)

    @staticmethod
    def r(lam, coeff=1):
        return InvariantElement({tuple(lam): coeff})

    @staticmethod
    def zero():
        return InvariantElement()

    @staticmethod
    def one(rank):
        return InvariantElement({(0,) * rank: 1})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return InvariantElement(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if c == 0:
            return InvariantElement()
        return InvariantElement({k: c * v for k, v in self.coeffs.items()})

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
    """Per-datum cache of W-orbits and heights, with a dominant-chamber walk.

    Reflections act on plain tuples as rank-one updates
    s_i(lam) = lam - <lam, alpha_i^vee> alpha_i, with each simple root and
    coroot kept as its (coordinate, entry) pairs.
    """

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self._orbits = {}
        self._heights = {}
        self._simple = tuple(
            (_sparse(av), _sparse(a)) for a, av in zip(rd.simple_roots, rd.simple_coroots)
        )

    def dominant(self, lam):
        """The dominant weight in the W-orbit of ``lam``.

        Reflects in any simple root with a negative pairing until none is
        left; each step moves strictly up in the finite orbit.
        """
        cur = list(lam)
        simple = self._simple
        n = len(simple)
        clean = 0
        i = 0
        while clean < n:
            coroot, root = simple[i]
            p = 0
            for k, c in coroot:
                p += cur[k] * c
            if p < 0:
                for k, a in root:
                    cur[k] -= p * a
                clean = 1
            else:
                clean += 1
            i += 1
            if i == n:
                i = 0
        return tuple(cur)

    def orbit(self, lam):
        """The W-orbit of ``lam`` as a frozenset, shared by all its elements.

        Walks down from the dominant representative, reflecting only in
        simple roots with a positive pairing.  Each such step lengthens the
        minimal Weyl element reaching the weight by one, so the levels are
        disjoint and only need deduplicating within themselves.
        """
        lam = tuple(lam)
        got = self._orbits.get(lam)
        if got is not None:
            return got
        simple = self._simple
        level = [self.dominant(lam)]
        seen = set(level)
        while level:
            nxt = set()
            for mu in level:
                for coroot, root in simple:
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
        for mu in orb:
            self._orbits.setdefault(mu, orb)
        return orb

    def height(self, lam):
        """Coefficient sum of the derived-part projection over simple roots.

        Central weights have height 0; the value is an exact Fraction.
        """
        lam = tuple(lam)
        got = self._heights.get(lam)
        if got is not None:
            return got
        rd = self.rd
        if rd.nroots == 0:
            h = Fraction(0)
        else:
            pair_vec = [rd.pair(lam, i) for i in range(rd.nroots)]
            h = sum(rd.cartan_solve(pair_vec), Fraction(0))
        self._heights[lam] = h
        return h


def _sparse(vec):
    return tuple((k, x) for k, x in enumerate(vec) if x)


def orbit(rd: RootDatum, lam):
    return OrbitCache(rd).orbit(lam)


def height(rd: RootDatum, lam):
    return OrbitCache(rd).height(lam)


def multiply(cache, a: InvariantElement, b: InvariantElement):
    """Exact product re-expressed in the r-basis, one orbit sweep per term pair.

    For dominant kappa the coefficient of r(kappa) in r(lam) r(mu) is
    |W lam| * #{nu in W mu : dom(lam + nu) = kappa} / |W kappa|; the smaller
    of the two orbits is the one swept.  Raises NonIntegral if a division is
    not exact.

    Accepts an OrbitCache or a bare RootDatum (a throwaway cache is built)."""
    if isinstance(cache, RootDatum):
        cache = OrbitCache(cache)
    orbit = cache.orbit
    dominant = cache.dominant
    out = {}
    for lam, c1 in a.coeffs.items():
        orb_lam = orbit(lam)
        for mu, c2 in b.coeffs.items():
            orb_mu = orbit(mu)
            if len(orb_mu) <= len(orb_lam):
                fixed, swept, size = lam, orb_mu, len(orb_lam)
            else:
                fixed, swept, size = mu, orb_lam, len(orb_mu)
            hits = {}
            for nu in swept:
                kappa = dominant([x + y for x, y in zip(fixed, nu)])
                hits[kappa] = hits.get(kappa, 0) + 1
            c = c1 * c2
            for kappa, h in hits.items():
                coeff, rem = divmod(size * h, len(orbit(kappa)))
                if rem:
                    raise NonIntegral(
                        f"coefficient of r({list(kappa)}) in r({list(lam)}) * r({list(mu)}) "
                        f"is {size * h}/{len(orbit(kappa))}"
                    )
                out[kappa] = out.get(kappa, 0) + c * coeff
    return InvariantElement(out)
