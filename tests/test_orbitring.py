import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from dualalg.balgebra import BElement
from dualalg.errors import NonIntegral, NotDominant
from dualalg.orbitring import InvariantElement, OrbitCache, combine, multiply, product
from dualalg.rootdata import (
    FrobeniusData,
    RootDatum,
    build_standard,
    chamber,
    datum_from_json,
    weyl_group,
)
from test_rootdata import cartan_solve, reference_weyl_group


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
        dominant = [k for k in emap if min(rd.pairings(k), default=0) >= 0]
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
    weyl = reference_weyl_group(rd, 10 ** 6)
    rng = random.Random(17)
    for _ in range(10):
        lam = tuple(rng.randint(-3, 3) for _ in range(rd.rank))
        assert OrbitCache(rd).orbit(lam) == frozenset(w.apply(lam) for w in weyl)


def test_chamber_walk_is_orbit_invariant():
    # the walk from any point of an orbit ends at the same dominant weight,
    # the start of orbit() and the kappa of every product term
    rd = build_standard("SO", 10)
    weyl = reference_weyl_group(rd, 10 ** 6)
    cache = OrbitCache(rd)
    rng = random.Random(19)
    for _ in range(50):
        lam = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
        dom = chamber(lam, rd.walls)
        assert min(rd.pairings(dom), default=0) >= 0
        assert chamber(rng.choice(weyl).apply(lam), rd.walls) == dom
        assert dom in cache.orbit(lam)


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
            coeffs[chamber(lam, rd.walls)] = rng.choice([-3, -2, -1, 1, 2, 3])
        return InvariantElement(coeffs)

    for _ in range(pairs):
        a, b = element(), element()
        assert multiply(cache, a, b) == reference_multiply(cache, a, b), (a, b)


# -- orbit sizes from parabolic orders ------------------------------------------

SIZE_DATA = [("SL", 3), ("Sp", 4), ("GL", 3), ("G2", None), ("SO", 8), ("SO", 10), ("3D4", None)]
SIZE_IDS = [f"{fam}{n or ''}" for fam, n in SIZE_DATA]


def size_datum(fam, n):
    if fam == "G2":
        return build_standard("FromCartan", cartan=((2, -1), (-3, 2)), label="G2")
    if fam == "3D4":
        path = pathlib.Path(__file__).parent / "data" / "triality_d4.json"
        return datum_from_json(json.loads(path.read_text()))[0]
    return build_standard(fam, n)


def dominant_weights(rd, count, bound, seed):
    rng = random.Random(seed)
    return {chamber(tuple(rng.randint(-bound, bound) for _ in range(rd.rank)), rd.walls)
            for _ in range(count)}


@pytest.mark.parametrize("fam,n", SIZE_DATA, ids=SIZE_IDS)
def test_size_matches_orbit_length(fam, n):
    # |W| / |W_J| on a cache that has built no orbit, against the orbit itself
    rd = size_datum(fam, n)
    sizes, orbits = OrbitCache(rd), OrbitCache(rd)
    weights = dominant_weights(rd, 40, 3, f"size{fam}{n}") | {(0,) * rd.rank}
    for lam in sorted(weights):
        assert sizes.size(lam) == len(orbits.orbit(lam)), lam
    assert sizes._orbits == {}


@pytest.mark.parametrize("fam,n", SIZE_DATA, ids=SIZE_IDS)
def test_size_of_a_regular_weight_is_the_weyl_order(fam, n):
    rd = size_datum(fam, n)
    regular = [lam for lam in dominant_weights(rd, 400, 8, f"regular{fam}{n}")
               if min(rd.pairings(lam)) > 0]
    assert regular
    order = len(weyl_group(rd))
    cache = OrbitCache(rd)
    for lam in regular:
        assert cache.size(lam) == order, lam


@pytest.mark.parametrize("fam,n", SIZE_DATA, ids=SIZE_IDS)
def test_parabolic_order_is_the_weyl_order_of_the_sub_datum(fam, n):
    # |W_J| from the closure on the J rows and columns of the Cartan matrix,
    # against the Weyl group of the datum with only the simple roots in J
    rd = size_datum(fam, n)
    cache = OrbitCache(rd)
    for k in range(rd.nroots + 1):
        for j in itertools.combinations(range(rd.nroots), k):
            sub = RootDatum(rd.rank, [rd.simple_roots[i] for i in j],
                            [rd.simple_coroots[i] for i in j])
            assert cache._parabolic_order(j) == len(weyl_group(sub)), j


def test_size_rejects_a_non_dominant_weight():
    cache = OrbitCache(build_standard("Sp", 4))
    with pytest.raises(NotDominant):
        cache.size((1, -2))
    assert cache.size((2, 1)) == len(cache.orbit((2, 1)))


def test_product_builds_only_the_swept_orbit():
    # on SO(10) the orbits of the kappa in a product are far larger than the
    # swept one; building them only for their sizes took structure SO 10
    # q=2 past a gigabyte.  |W (1, 0, 0, 0, 0)| = 10, |W (1, 1, 0, 0, 0)| =
    # 40, and the other two are 960 and 1,920 (regular)
    rd = build_standard("SO", 10)
    for lam, mu, swept in [((1, 0, 0, 0, 0), (3, 2, 1, 1, 0), (1, 0, 0, 0, 0)),
                           ((4, 3, 2, 1, 0), (1, 1, 0, 0, 0), (1, 1, 0, 0, 0))]:
        cache = OrbitCache(rd)
        out = product(cache, lam, mu)
        assert len(out) > 1
        assert list(cache._orbits) == [swept], (lam, mu)


def test_multiply_raises_on_inexact_division():
    # a wrong |W (2,)| = 3 on SL(2) (it is 2) makes the divisor of r(2) in
    # r(1) * r(1) inexact
    class CorruptCache(OrbitCache):
        def size(self, lam):
            return 3 if tuple(lam) == (2,) else super().size(lam)

    r = InvariantElement.r
    with pytest.raises(NonIntegral, match=r"r\(\[2\]\) in r\(\[1\]\) \* r\(\[1\]\) is 2/3$"):
        multiply(CorruptCache(build_standard("SL", 2)), r((1,)), r((1,)))


def test_constructors_reject_non_integral_coefficients():
    # a coefficient truncated to a stored zero would break is_zero and equality
    with pytest.raises(TypeError):
        InvariantElement({(1,): Fraction(1, 2)})
    with pytest.raises(TypeError):
        InvariantElement({(1,): 2.0})
    with pytest.raises(TypeError):
        BElement({0: Fraction(3, 2)}, 0)
    with pytest.raises(TypeError):
        BElement({Fraction(1, 2): 1}, 0)
    assert InvariantElement({(1,): True}).coeffs == {(1,): 1}


def test_combine_cancels_scales_and_drops_zeros():
    x = {(1, 0): 2, (0, 0): -1}
    y = {(1, 0): -1, (2, 0): 5}
    # 1*x + 2*y: the (1, 0) entries cancel and the key is gone
    assert combine([(x, 1), (y, 2)]) == {(0, 0): -1, (2, 0): 10}
    assert combine([(x, -3)]) == {(1, 0): -6, (0, 0): 3}
    assert combine([(x, 0)]) == {}
    assert combine([]) == {}
    assert combine(iter([(y, 1), (y, -1)])) == {}
    r = InvariantElement.r
    a, b = InvariantElement(x), InvariantElement(y)
    assert a + b == InvariantElement({(1, 0): 1, (0, 0): -1, (2, 0): 5})
    assert a - a == InvariantElement() and (a - a).is_zero()
    assert combine([(a.coeffs, 0)]) == {}
    assert (r((1, 0)) + r((1, 0), -1)).coeffs == {}


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
            lam = chamber((rng.randint(-3, 3), rng.randint(-3, 3)), rd.walls)
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
    assert c.height((1,)) == 1
    assert c.height((2,)) == 2
    gl2 = build_standard("GL", 2)
    c = OrbitCache(gl2)
    assert c.height((1, 1)) == 0  # central weights are killed by the projection
    assert c.height((1, -1)) == 2


HEIGHT_DATA = [("SL", 3), ("Sp", 4), ("GL", 3), ("SO", 8), ("SO", 10), ("G2", None), ("Torus", 3)]


@pytest.mark.parametrize("fam,n", HEIGHT_DATA)
def test_height_matches_cartan_solve(fam, n):
    # the integer <lam, 2 rho^vee> is twice the coefficient sum over Q
    if fam == "G2":
        rd = build_standard("FromCartan", cartan=((2, -1), (-3, 2)), label="G2")
    else:
        rd = build_standard(fam, n)
    cache = OrbitCache(rd)
    for a in rd.simple_roots:
        assert cache.height(a) == 2, a
    central = rd.central_lattice()
    rng = random.Random(f"height{fam}{n}")
    for trial in range(60):
        lam = [rng.randint(-5, 5) for _ in range(rd.rank)]
        if trial % 3 == 0:
            lam = [0] * rd.rank  # a central weight, alone or shifted below
        for z in central:
            k = rng.randint(-3, 3)
            lam = [x + k * y for x, y in zip(lam, z)]
        lam = tuple(lam)
        h = cache.height(lam)
        assert type(h) is int
        assert h == 2 * sum(cartan_solve(rd, rd.pairings(lam)), Fraction(0)), lam
        if trial % 3 == 0:
            assert h == 0


def test_height_descent_property():
    for fam, n in [("SL", 3), ("Sp", 4), ("SO", 8)]:
        rd = build_standard(fam, n)
        cache = OrbitCache(rd)
        weyl = reference_weyl_group(rd, 10 ** 6)
        rng = random.Random(5)
        for _ in range(100):
            lam = chamber(tuple(rng.randint(-4, 4) for _ in range(rd.rank)), rd.walls)
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
        lam_p = chamber(tuple(rng.randint(-3, 3) for _ in range(rd.rank)), rd.walls)
        for w in lifts:
            for mu in (tuple(frob.q * y for y in w), w):
                prod = multiply(cache, InvariantElement.r(lam_p), InvariantElement.r(mu))
                top = tuple(a + b for a, b in zip(lam_p, mu))
                assert prod.coeffs.get(top) == 1
