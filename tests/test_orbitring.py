import random
from fractions import Fraction

import pytest

from dualalg.errors import NonIntegral
from dualalg.orbitring import InvariantElement, OrbitCache, multiply
from dualalg.rootdata import FrobeniusData, build_standard, dominant_representative, weyl_group


# -- e-basis reference product ------------------------------------------------
# The library's former product: expand both factors in the e-basis, convolve,
# and peel dominant orbit sums back off, highest (height, lex) first.  Kept
# here as the slow, independent oracle for the single-orbit sweep.


def expand_to_e(cache, x):
    """e-basis expansion {weight -> coefficient} of an invariant element."""
    out = {}
    for lam, c in x.coeffs.items():
        for mu in cache.orbit(lam):
            out[mu] = out.get(mu, 0) + c
    return {k: v for k, v in out.items() if v}


def contract_from_e(cache, emap):
    """Rewrite a W-invariant e-basis map in the r-basis by dominant peeling."""
    rd = cache.rd
    emap = {k: v for k, v in emap.items() if v}
    out = {}
    while emap:
        dominant = [k for k in emap if rd.is_dominant(k)]
        assert dominant, "W-invariant support must contain a dominant weight"
        best = max(dominant, key=lambda k: (cache.height(k), k))
        c = emap[best]
        out[best] = c
        for mu in cache.orbit(best):
            nv = emap.get(mu, 0) - c
            if nv:
                emap[mu] = nv
            else:
                emap.pop(mu, None)
    return InvariantElement(out)


def reference_multiply(cache, a, b):
    ea = expand_to_e(cache, a)
    eb = expand_to_e(cache, b)
    prod = {}
    for mu1, c1 in ea.items():
        for mu2, c2 in eb.items():
            key = tuple(x + y for x, y in zip(mu1, mu2))
            prod[key] = prod.get(key, 0) + c1 * c2
    return contract_from_e(cache, prod)


def test_orbit_examples():
    sl2 = build_standard("SL", 2)
    c = OrbitCache(sl2)
    assert c.orbit((1,)) == frozenset({(1,), (-1,)})
    assert c.orbit((0,)) == frozenset({(0,)})
    so8 = build_standard("SO", 8)
    c = OrbitCache(so8)
    orb = c.orbit((1, 0, 0, 0))
    assert len(orb) == 8  # 2n short vectors
    assert (0, -1, 0, 0) in orb


def test_orbit_size_divides_weyl_order():
    rd = build_standard("Sp", 4)
    cache = OrbitCache(rd)
    weyl_order = len(weyl_group(rd))
    rng = random.Random(3)
    for _ in range(30):
        lam = tuple(rng.randint(-3, 3) for _ in range(rd.rank))
        assert weyl_order % len(cache.orbit(lam)) == 0


@pytest.mark.parametrize("fam,n", [("Sp", 4), ("GL", 3), ("SO", 8)])
def test_orbit_matches_weyl_group_images(fam, n):
    rd = build_standard(fam, n)
    weyl = weyl_group(rd)
    rng = random.Random(17)
    for _ in range(10):
        lam = tuple(rng.randint(-3, 3) for _ in range(rd.rank))
        assert OrbitCache(rd).orbit(lam) == frozenset(w.apply(lam) for w in weyl)


def test_dominant_walk_matches_dominant_representative():
    rd = build_standard("SO", 10)
    cache = OrbitCache(rd)
    rng = random.Random(19)
    for _ in range(50):
        lam = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
        assert cache.dominant(lam) == dominant_representative(rd, lam)[0]


# (family, n, coordinate bound, pairs): bounds keep the reference convolution
# small on the large Weyl groups
DIFFERENTIAL = [
    ("SL", 3, 3, 25),
    ("Sp", 4, 3, 25),
    ("GL", 3, 3, 25),
    ("SO", 8, 2, 12),
    ("SO", 10, 1, 12),
]


@pytest.mark.parametrize("fam,n,bound,pairs", DIFFERENTIAL)
def test_multiply_matches_e_basis_reference(fam, n, bound, pairs):
    rd = build_standard(fam, n)
    cache = OrbitCache(rd)
    rng = random.Random(f"{fam}{n}")

    def element():
        coeffs = {}
        for _ in range(rng.randint(1, 2)):
            lam = tuple(rng.randint(-bound, bound) for _ in range(rd.rank))
            coeffs[cache.dominant(lam)] = rng.choice([-3, -2, -1, 1, 2, 3])
        return InvariantElement(coeffs)

    for _ in range(pairs):
        a, b = element(), element()
        assert multiply(cache, a, b) == reference_multiply(cache, a, b), (a, b)


def test_multiply_raises_on_inexact_division():
    class CorruptCache(OrbitCache):
        def orbit(self, lam):
            orb = super().orbit(lam)
            return orb | {(99,)} if tuple(lam) == (2,) else orb

    r = InvariantElement.r
    with pytest.raises(NonIntegral, match=r"r\(\[2\]\) in r\(\[1\]\) \* r\(\[1\]\)"):
        multiply(CorruptCache(build_standard("SL", 2)), r((1,)), r((1,)))


def test_multiply_sl2_hand_expansions():
    rd = build_standard("SL", 2)
    cache = OrbitCache(rd)
    r = InvariantElement.r
    # (e(1)+e(-1))^2 = e(2) + 2 e(0) + e(-2)
    assert multiply(cache, r((1,)), r((1,))) == InvariantElement({(2,): 1, (0,): 2})
    assert multiply(cache, r((0,)), r((3,))) == r((3,))
    # (e(1)+e(-1)) (e(3)+e(-3)) = e(4)+e(2)+e(-2)+e(-4)
    assert multiply(cache, r((1,)), r((3,))) == InvariantElement({(4,): 1, (2,): 1})


def test_multiply_commutative_associative():
    rd = build_standard("GL", 2)
    cache = OrbitCache(rd)
    rng = random.Random(11)
    for _ in range(12):
        xs = []
        for _ in range(3):
            lam = dominant_representative(rd, (rng.randint(-3, 3), rng.randint(-3, 3)))[0]
            xs.append(InvariantElement.r(lam, rng.randint(1, 2)))
        a, b, c = xs
        assert multiply(cache, a, b) == multiply(cache, b, a)
        left = multiply(cache, multiply(cache, a, b), c)
        right = multiply(cache, a, multiply(cache, b, c))
        assert left == right


def test_e_r_round_trip():
    rd = build_standard("Sp", 4)
    cache = OrbitCache(rd)
    x = InvariantElement({(2, 1): 3, (1, 1): -2, (0, 0): 7})
    assert contract_from_e(cache, expand_to_e(cache, x)) == x


def test_height_examples():
    sl2 = build_standard("SL", 2)
    c = OrbitCache(sl2)
    assert c.height((1,)) == Fraction(1, 2)
    assert c.height((2,)) == 1
    gl2 = build_standard("GL", 2)
    c = OrbitCache(gl2)
    assert c.height((1, 1)) == 0  # central weights are killed by the projection
    assert c.height((1, -1)) == 1


def test_height_descent_property():
    for fam, n in [("SL", 3), ("Sp", 4), ("SO", 8)]:
        rd = build_standard(fam, n)
        cache = OrbitCache(rd)
        weyl = weyl_group(rd)
        rng = random.Random(5)
        for _ in range(100):
            lam = dominant_representative(
                rd, tuple(rng.randint(-4, 4) for _ in range(rd.rank))
            )[0]
            h = cache.height(lam)
            if h == 0:
                continue
            assert h > 0
            w = rng.choice(weyl)
            img = w.apply(lam)
            if img != lam:
                assert cache.height(img) < h


def test_leading_coefficient_one():
    # the reduction relies on the top term of r(lam') r(q w_a) having coefficient 1
    rd = build_standard("Sp", 4)
    cache = OrbitCache(rd)
    frob = FrobeniusData(rd, 2, 1)
    lifts = rd.fundamental_weight_lifts()
    rng = random.Random(13)
    for _ in range(20):
        lam_p = dominant_representative(
            rd, tuple(rng.randint(-3, 3) for _ in range(rd.rank))
        )[0]
        for w in lifts:
            for mu in (tuple(frob.q * y for y in w), w):
                prod = multiply(cache, InvariantElement.r(lam_p), InvariantElement.r(mu))
                top = tuple(a + b for a, b in zip(lam_p, mu))
                assert prod.coeffs.get(top) == 1
