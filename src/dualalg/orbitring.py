"""Exact arithmetic in the Weyl-invariant group ring in the orbit-sum basis.

An :class:`InvariantElement` is a finite Z-linear combination of orbit sums
r(lam) = sum of e(mu) over the W-orbit of lam, keyed by the dominant orbit
representative.  Products are computed by expanding to the e-basis (multiset
convolution of orbits) and peeling dominant terms back off, highest first.

The height of a weight is the coefficient sum when its projection to the
derived part is written in the simple-root basis; it is the strictly
decreasing measure behind every reduction in the quotient-ring layer.
"""

from __future__ import annotations

from fractions import Fraction

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
    """Per-datum cache of W-orbits, heights and dominance checks."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self._orbits = {}
        self._heights = {}

    def orbit(self, lam):
        lam = tuple(lam)
        got = self._orbits.get(lam)
        if got is not None:
            return got
        rd = self.rd
        seen = {lam}
        frontier = [lam]
        while frontier:
            mu = frontier.pop()
            for i in range(rd.nroots):
                img = rd.reflection(i).apply(mu)
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
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


def orbit(rd: RootDatum, lam):
    return OrbitCache(rd).orbit(lam)


def height(rd: RootDatum, lam):
    return OrbitCache(rd).height(lam)


def expand_to_e(cache: OrbitCache, x: InvariantElement):
    """e-basis expansion {weight -> coefficient} of an invariant element."""
    out = {}
    for lam, c in x.coeffs.items():
        for mu in cache.orbit(lam):
            out[mu] = out.get(mu, 0) + c
    return {k: v for k, v in out.items() if v}


def contract_from_e(cache: OrbitCache, emap):
    """Rewrite a W-invariant e-basis map in the r-basis by dominant peeling.

    Picks the maximal remaining dominant key by (height, lex) and subtracts its
    orbit sum; strictly decreases the height multiset, so it terminates.
    """
    rd = cache.rd
    emap = {k: v for k, v in emap.items() if v}
    out = {}
    while emap:
        best = None
        best_key = None
        for k in emap:
            if rd.is_dominant(k):
                key = (cache.height(k), k)
                if best_key is None or key > best_key:
                    best_key = key
                    best = k
        assert best is not None, "W-invariant support must contain a dominant weight"
        c = emap[best]
        out[best] = c
        for mu in cache.orbit(best):
            nv = emap.get(mu, 0) - c
            if nv:
                emap[mu] = nv
            else:
                emap.pop(mu, None)
    return InvariantElement(out)


def multiply(cache, a: InvariantElement, b: InvariantElement):
    """Exact product re-expressed in the r-basis.

    Accepts an OrbitCache or a bare RootDatum (a throwaway cache is built)."""
    if isinstance(cache, RootDatum):
        cache = OrbitCache(cache)
    if a.is_zero() or b.is_zero():
        return InvariantElement.zero()
    ea = expand_to_e(cache, a)
    eb = expand_to_e(cache, b)
    if len(ea) > len(eb):
        ea, eb = eb, ea
    prod = {}
    for mu1, c1 in ea.items():
        for mu2, c2 in eb.items():
            key = tuple(x + y for x, y in zip(mu1, mu2))
            prod[key] = prod.get(key, 0) + c1 * c2
    return contract_from_e(cache, prod)
