import random
from fractions import Fraction

import pytest

from dualalg.errors import CapExceeded, DualalgError, InvalidCartan
from dualalg.intlinalg import IntMatrix
from dualalg.orbitring import OrbitCache
from dualalg.rootdata import (
    UNAVAILABLE,
    FrobeniusData,
    build_standard,
    chamber,
    datum_from_json,
    prime_power_split,
    weyl_group,
    weyl_walk,
)


# -- matrix-product reference closure -----------------------------------------
# The library's former weyl_group: breadth-first closure of the simple
# reflections by full IntMatrix products.  Kept here as the slow, independent
# oracle for the closure on the orbit of rho and for weyl_walk, and as the
# source of W's matrices for the tests that act by them.


def reflection_matrix(rd, i):
    """Matrix of s_i: column j is e_j - <e_j, alpha_i^vee> alpha_i."""
    a, av = rd.simple_roots[i], rd.simple_coroots[i]
    return IntMatrix([[int(r == j) - av[j] * a[r] for j in range(rd.rank)] for r in range(rd.rank)])


def reference_weyl_group(rd, cap):
    ident = IntMatrix.identity(rd.rank)
    elems = [ident]
    seen = {ident.entries}
    gens = [reflection_matrix(rd, i) for i in range(rd.nroots)]
    frontier = [ident]
    while frontier:
        new_frontier = []
        for w in frontier:
            for g in gens:
                nxt = g * w
                if nxt.entries not in seen:
                    seen.add(nxt.entries)
                    elems.append(nxt)
                    new_frontier.append(nxt)
                    if len(elems) > cap:
                        raise CapExceeded(f"Weyl group exceeds cap {cap}")
        frontier = new_frontier
    return elems


def cartan_solve(rd, pairings):
    """Rational m with sum_i m_i <alpha_i, alpha_j^vee> = pairings[j], by
    Gauss-Jordan elimination over Q: the coefficients of the derived-part
    projection in the simple roots.  The library's former height routine,
    kept as the independent reference for the integer height and for rho."""
    n = rd.nroots
    a = [[Fraction(rd.cartan[j][i]) for j in range(n)] for i in range(n)]
    b = [Fraction(x) for x in pairings]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] *= inv
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] -= f * b[col]
    return tuple(b)


def roots(rd):
    """The roots as the Weyl images of the simple roots: every root is
    W-conjugate to a simple root."""
    return {w.apply(a) for w in reference_weyl_group(rd, 10 ** 6) for a in rd.simple_roots}


def test_gl2_datum():
    rd = build_standard("GL", 2)
    assert rd.rank == 2
    assert rd.simple_roots == ((1, -1),)
    assert rd.simple_coroots == ((1, -1),)


def test_so8_datum():
    rd = build_standard("SO", 8)
    assert rd.rank == 4
    assert rd.nroots == 4
    assert len(roots(rd)) == 2 * 4 * 3  # 2n(n-1) for the even orthogonal family


def test_torus_datum():
    rd = build_standard("Torus", 1)
    assert rd.rank == 1 and rd.nroots == 0 and roots(rd) == set()


def test_from_cartan_rejects_bad_input():
    with pytest.raises(InvalidCartan):
        build_standard("FromCartan", cartan=[[2, -2], [-2, 2]])  # affine A1 tilde
    with pytest.raises(InvalidCartan):
        build_standard("FromCartan", cartan=[[2, 1], [1, 2]])


def principal_minors(c):
    """Every principal minor of a 3x3 matrix, by cofactor expansion."""
    out = [c[i][i] for i in range(3)]
    out += [c[i][i] * c[j][j] - c[i][j] * c[j][i] for i in range(3) for j in range(i + 1, 3)]
    out.append(sum(c[0][j] * (c[1][(j + 1) % 3] * c[2][(j + 2) % 3]
                              - c[1][(j + 2) % 3] * c[2][(j + 1) % 3]) for j in range(3)))
    return out


def test_validate_is_exact_on_3x3_cartan_matrices(monkeypatch):
    # every 3x3 matrix with diagonal 2 and off-diagonal entries in
    # {0, -1, -2, -3}: accepted exactly when the zero pattern is symmetric
    # and every principal minor is positive, and then W is finite
    accepted = 0
    monkeypatch.setenv("DUALALG_WEYL_CAP", str(10 ** 4))
    for code in range(4 ** 6):
        off = [-((code >> (2 * k)) & 3) for k in range(6)]
        c = [[2, off[0], off[1]], [off[2], 2, off[3]], [off[4], off[5], 2]]
        symmetric = all((c[i][j] == 0) == (c[j][i] == 0) for i in range(3) for j in range(3))
        finite = symmetric and min(principal_minors(c)) > 0
        try:
            rd = build_standard("FromCartan", cartan=c)
        except InvalidCartan:
            assert not finite, c
            continue
        assert finite, c
        assert len(weyl_group(rd)) <= 48
        assert len(rd.highest_roots()) == len(components(rd))
        accepted += 1
    assert accepted == 31


def test_from_cartan_g2():
    rd = build_standard("FromCartan", cartan=[[2, -1], [-3, 2]])
    assert len(roots(rd)) == 12
    assert len(weyl_group(rd)) == 12


def test_weyl_sizes():
    assert len(weyl_group(build_standard("GL", 2))) == 2
    assert len(weyl_group(build_standard("SL", 3))) == 6
    assert len(weyl_group(build_standard("Sp", 4))) == 8
    assert len(weyl_group(build_standard("SO", 8))) == 192


def test_weyl_identity_first():
    # the identity's element is the pairing vector of rho itself
    for fam, n in [("GL", 2), ("SO", 8)]:
        rd = build_standard(fam, n)
        assert weyl_group(rd)[0] == (1,) * rd.nroots


def test_weyl_cap(monkeypatch):
    monkeypatch.setenv("DUALALG_WEYL_CAP", "10")
    with pytest.raises(CapExceeded):
        weyl_group(build_standard("SO", 8))


WEYL_CASES = [
    ("SL", 3, None),
    ("Sp", 4, None),
    ("GL", 3, None),
    ("SO", 8, None),
    ("SO", 10, None),
    ("Torus", 2, None),
    ("FromCartan", None, [[2, -1], [-3, 2]]),
]


@pytest.mark.parametrize("fam,n,cartan", WEYL_CASES, ids=[f"{c[0]}{c[1] or ''}" for c in WEYL_CASES])
def test_weyl_group_matches_matrix_product_reference(monkeypatch, fam, n, cartan):
    # weyl[j] is the pairing vector of w_j*rho, with w_j the j-th matrix of
    # the reference and rho = sum m_i alpha_i, <rho, alpha_j^vee> = 1, over Q;
    # the walk from 1 builds the reference's matrices in the same order
    rd = build_standard(fam, n, cartan=cartan)
    got = weyl_group(rd)
    ref = reference_weyl_group(rd, cap=10 ** 6)
    m = cartan_solve(rd, (1,) * rd.nroots)
    rho = tuple(sum((c * a[k] for c, a in zip(m, rd.simple_roots)), Fraction(0))
                for k in range(rd.rank))
    assert list(got) == [rd.pairings(w.apply(rho)) for w in ref]
    walked = weyl_walk(IntMatrix.identity(rd.rank).entries, rd.simple, got)
    assert [IntMatrix.of_rows(w) for w in walked] == ref
    order = len(got)
    monkeypatch.setenv("DUALALG_WEYL_CAP", str(order))
    assert len(weyl_group(rd)) == order
    for cap in {1, order // 2, order - 1} & set(range(1, order)):
        monkeypatch.setenv("DUALALG_WEYL_CAP", str(cap))
        with pytest.raises(CapExceeded):
            weyl_group(rd)
    if order > 1:
        with pytest.raises(CapExceeded):
            reference_weyl_group(rd, order - 1)


def test_weyl_group_axioms_small():
    rd = build_standard("SL", 3)
    weyl = reference_weyl_group(rd, 10 ** 6)
    mats = {w.entries for w in weyl}
    for a in weyl:
        for b in weyl:
            assert (a * b).entries in mats
    rootset = roots(rd)
    for w in weyl:
        for beta in rootset:
            assert w.apply(beta) in rootset


def test_chamber_examples():
    rd = build_standard("GL", 2)
    assert chamber((0, 3), rd.walls) == (3, 0)
    assert chamber((0, 0), rd.walls) == (0, 0)
    # on Y the GL(2) walls are the same pair of vectors
    assert chamber((-1, 4), rd.cowalls) == (4, -1)
    # a torus has no walls: every point is its own chamber point
    assert chamber((5, -2), build_standard("Torus", 2).walls) == (5, -2)


# irreducible data of types A3, C3, D4, D5, and the exceptional G2 and F4
# built from their Cartan matrices
G2 = ((2, -1), (-3, 2))
F4 = ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
CHAMBER_DATA = {
    "A3": ("SL", 4, None),
    "C3": ("Sp", 6, None),
    "D4": ("SO", 8, None),
    "D5": ("SO", 10, None),
    "G2": ("FromCartan", None, G2),
    "F4": ("FromCartan", None, F4),
}


def chamber_datum(name):
    fam, n, cartan = CHAMBER_DATA[name]
    return build_standard(fam, n, cartan=cartan, label=name)


@pytest.mark.parametrize("name", sorted(CHAMBER_DATA))
def test_chamber_matches_full_orbit_scan(name):
    # the reference: every image of the point under W, scanned for the
    # elements of the closed chamber.  W acts on X by its matrices and on Y
    # by their inverse transposes; W is closed under inverses, so those are
    # the transposes of its matrices.
    rd = chamber_datum(name)
    weyl = reference_weyl_group(rd, 10 ** 6)
    on_x = (rd.walls, weyl, rd.pairings)
    on_y = (rd.cowalls, [w.transpose() for w in weyl],
            lambda y: tuple(sum(a * x for a, x in zip(alpha, y)) for alpha in rd.simple_roots))
    rng = random.Random(f"chamber{name}")
    for walls, group, pairings in (on_x, on_y):
        for _ in range(12):
            v = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
            dom = chamber(v, walls)
            orbit = {w.apply(v) for w in group}
            assert {u for u in orbit if min(pairings(u)) >= 0} == {dom}, (name, v)
            assert chamber(dom, walls) == dom
            assert chamber(rng.choice(group).apply(v), walls) == dom


def components(rd):
    """The simple-root indices of each irreducible component: the connected
    parts of the graph with an edge i - j where the Cartan entry is nonzero."""
    out = []
    for i in range(rd.nroots):
        joined = [c for c in out if any(rd.cartan[i][j] for j in c)]
        merged = {i}.union(*joined)
        out = [c for c in out if c not in joined] + [merged]
    return out


HIGHEST_DATA = [("SO", 4), ("SL", 4), ("Sp", 6), ("SO", 8), ("SO", 10), ("PGL", 3), ("G2", None),
                ("F4", None)]


@pytest.mark.parametrize("fam,n", HIGHEST_DATA)
def test_highest_roots_reference(fam, n):
    # theta of a component: the root of greatest height among the roots that
    # pair to zero with the coroots of every other component; theta^vee: the
    # image of alpha^vee, under w acting on Y as its inverse transpose, for a
    # Weyl element w with w*alpha = theta
    if fam in ("G2", "F4"):
        rd = chamber_datum(fam)
    else:
        rd = build_standard(fam, n)
    cache = OrbitCache(rd)
    weyl = reference_weyl_group(rd, 10 ** 6)
    ident = IntMatrix.identity(rd.rank)
    want = []
    for comp in components(rd):
        inside = [b for b in sorted(roots(rd))
                  if all(p == 0 for j, p in enumerate(rd.pairings(b)) if j not in comp)]
        theta = max(inside, key=cache.height)
        w, i = next((w, i) for w in weyl for i in comp if w.apply(rd.simple_roots[i]) == theta)
        w_inv = next(v for v in weyl if v * w == ident)
        want.append((theta, w_inv.transpose().apply(rd.simple_coroots[i])))
    assert len(want) == (2 if (fam, n) == ("SO", 4) else 1)
    assert rd.highest_roots() == sorted(want)


def test_central_lattice():
    assert build_standard("GL", 2).central_lattice() == [(1, 1)]
    assert build_standard("SL", 2).central_lattice() == []
    assert build_standard("SO", 8).central_lattice() == []


def test_fundamental_weight_lifts():
    rd = build_standard("GL", 2)
    (omega,) = rd.fundamental_weight_lifts()
    assert rd.pairings(omega)[0] == 1
    rd = build_standard("SL", 2)
    assert rd.fundamental_weight_lifts() == [(1,)]
    assert build_standard("SO", 8).fundamental_weight_lifts() == UNAVAILABLE
    sp = build_standard("Sp", 4)
    lifts = sp.fundamental_weight_lifts()
    assert lifts != UNAVAILABLE
    for i, w in enumerate(lifts):
        assert list(sp.pairings(w)) == [int(i == j) for j in range(sp.nroots)]


def test_frobenius_properties():
    rd = build_standard("GL", 2)
    frob = FrobeniusData(rd, 2, 2)
    assert frob.q == 4
    q_id = IntMatrix.identity(2).scale(4)
    assert frob.tau * frob.f_matrix == q_id
    assert frob.f_matrix * frob.tau == q_id
    with pytest.raises(ValueError):
        FrobeniusData(rd, 4, 1)
    # twisted form: tau = -swap preserves the simple root
    frob = FrobeniusData(rd, 3, 1, [[0, -1], [-1, 0]])
    assert frob.f_apply((1, 0)) == (0, -3)
    with pytest.raises(ValueError):
        FrobeniusData(rd, 3, 1, [[0, 1], [1, 0]])  # swap sends the root to its negative


def test_unimodular_inverse():
    # FrobeniusData takes tau^-1 = tau^(k-1) from the order k of tau
    for rd, tau in [
        (build_standard("GL", 2), [[0, -1], [-1, 0]]),
        (build_standard("SL", 3), [[0, 1], [1, 0]]),
        (build_standard("Torus", 2), [[0, -1], [1, 0]]),
        (build_standard("Torus", 2), [[1, 1], [-1, 0]]),
        (build_standard("Torus", 3), [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        (build_standard("Sp", 4), None),
    ]:
        frob = FrobeniusData(rd, 3, 1, tau)
        ident = IntMatrix.identity(rd.rank)
        assert frob.tau * frob.tau_inv == ident and frob.tau_inv * frob.tau == ident
        assert frob.f_matrix == frob.tau_inv.scale(3)
    with pytest.raises(ValueError, match="not unimodular"):
        FrobeniusData(build_standard("GL", 2), 3, 1, [[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="not unimodular"):
        FrobeniusData(build_standard("Torus", 3), 2, 1, [[1, 2, 3], [0, 1, 4], [0, 0, 2]])
    # unimodular but of infinite order
    with pytest.raises(ValueError, match="finite order"):
        FrobeniusData(build_standard("Torus", 2), 3, 1, [[2, 1], [1, 1]])


def test_prime_power_split():
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(7) == (7, 1)
    with pytest.raises(ValueError):
        prime_power_split(12)


def test_datum_from_json():
    doc = {
        "rank": 2,
        "simple_roots": [[1, -1]],
        "simple_coroots": [[1, -1]],
        "tau": [[0, -1], [-1, 0]],
        "label": "unitary-gl2",
    }
    rd, tau = datum_from_json(doc)
    assert rd.label == "unitary-gl2"
    frob = FrobeniusData(rd, 3, 1, tau)
    assert frob.q == 3


def test_datum_from_json_rejects_malformed():
    good = {"rank": 2, "simple_roots": [[1, -1]], "simple_coroots": [[1, -1]]}
    for doc, msg in [
        ([1, 2], "must be an object"),
        ({}, "rank must be an integer, got None"),
        ({**good, "rank": 1.5}, "rank must be an integer"),
        ({**good, "rank": True}, "rank must be an integer"),
        ({**good, "rank": -1}, "nonnegative"),
        ({**good, "simple_roots": [[None, 1]]}, "simple_roots entry must be an integer, got None"),
        ({**good, "simple_coroots": [3]}, "simple_coroots must be a list of integer lists"),
        ({**good, "tau": "x"}, "tau must be a list of integer lists"),
    ]:
        with pytest.raises(DualalgError, match=msg):
            datum_from_json(doc)
    # an affine Cartan matrix is refused: its Weyl group is infinite
    with pytest.raises(InvalidCartan, match="finite type"):
        datum_from_json({"rank": 2, "simple_roots": [[2, -2], [-2, 2]],
                         "simple_coroots": [[1, 0], [0, 1]]})
    rd, tau = datum_from_json({**good, "tau": [[1]]})
    with pytest.raises(ValueError, match="tau must be 2x2, got 1x1"):
        FrobeniusData(rd, 3, 1, tau)
