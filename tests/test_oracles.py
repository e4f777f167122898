import hashlib
import itertools
import random
from math import gcd, prod

import pytest

from dualalg import oracles
from dualalg.errors import BadPrime, CapExceeded, CrossCheckFailed
from dualalg.finitefield import GF, _factorize
from dualalg.intlinalg import IntMatrix, det, snf
from dualalg.matrixgroups import (
    MatrixGroupSpec,
    _generators,
    _identity,
    _mat_inv,
    _mat_mul,
    brute_force_ss_classes,
)
from dualalg.oracles import (
    _pick_ell,
    class_count,
    enumerate_points,
    evaluate,
    key_lattice,
    orbit_key,
    sector_divisors,
)
from dualalg.orbitring import InvariantElement, OrbitCache
from dualalg.rootdata import (
    FrobeniusData,
    RootDatum,
    _is_prime,
    build_standard,
    prime_power_split,
    weyl_group,
    weyl_walk,
)


# -- number-theory references ---------------------------------------------------

# the primes up to 2000, each tested against every d up to its square root
PRIMES = [n for n in range(2, 2001) if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def reference_primitive_root(ell):
    """The library's former search: the least g with g^((ell-1)/f) != 1 mod
    ell for every prime f dividing ell - 1 (1 for ell = 2)."""
    primes = [f for f in range(2, ell) if (ell - 1) % f == 0
              and all(f % d for d in range(2, f))]
    return next(g for g in range(1, ell) if all(pow(g, (ell - 1) // f, ell) != 1 for f in primes))


def test_factorization_helpers_match_brute_force():
    """_is_prime, prime_power_split and GF.generator all read one
    trial-division routine, _factorize; on 1..2000 each agrees with a
    brute-force reference."""
    powers = {p ** r: (p, r) for p in PRIMES for r in range(1, 12) if p ** r <= 2000}
    for n in range(1, 2001):
        fac = _factorize(n)
        assert set(fac) <= set(PRIMES) and prod(p ** e for p, e in fac.items()) == n, n
        assert _is_prime(n) == (n in PRIMES), n
        if n in powers:
            assert prime_power_split(n) == powers[n], n
        else:
            with pytest.raises(ValueError, match=f"q = {n} is not a prime power"):
                prime_power_split(n)
    for ell in PRIMES:
        assert GF(ell).generator() == reference_primitive_root(ell), ell
    for bad in (0, -1, -8):
        assert not _is_prime(bad)
        with pytest.raises(ValueError, match="is not a prime power"):
            prime_power_split(bad)


# -- all-sector references ----------------------------------------------------
# The library takes one SNF per F-conjugacy class of sectors.  The references
# below take one per Weyl element, build the sector matrices and the
# reflections as IntMatrix products, and find the classes on W itself.


def reflection_matrix(rd, i):
    """Matrix of s_i: column j is e_j - <e_j, alpha_i^vee> alpha_i."""
    a, av = rd.simple_roots[i], rd.simple_coroots[i]
    return IntMatrix([[int(r == j) - av[j] * a[r] for j in range(rd.rank)] for r in range(rd.rank)])


def reference_sector_table(rd, frob, weyl):
    """(lcm of all elementary divisors, [(u, diag)] with u*(F*w - id)*v =
    diag for every w, each from its own SNF)."""
    one = IntMatrix.identity(rd.rank)
    l = 1
    table = []
    for w in weyl:
        d, u, _ = snf(frob.f_matrix * w - one)
        diag = tuple(d[k, k] for k in range(rd.rank))
        table.append((u, diag))
        for x in diag:
            l = l * x // gcd(l, x)
    return l, table


def reference_classes(rd, frob, weyl):
    """The F-conjugacy classes of W as sorted index lists, closed under
    w -> (tau s tau^-1) * w * s over the simple reflections s."""
    index = {w: i for i, w in enumerate(weyl)}
    moves = [(frob.tau * s * frob.tau_inv, s)
             for s in (reflection_matrix(rd, i) for i in range(rd.nroots))]
    cls = [None] * len(weyl)
    classes = []
    for i in range(len(weyl)):
        if cls[i] is not None:
            continue
        members = [i]
        cls[i] = len(classes)
        for j in members:
            for left, right in moves:
                k = index[left * weyl[j] * right]
                if cls[k] is None:
                    cls[k] = len(classes)
                    members.append(k)
        classes.append(sorted(members))
    return classes


# -- value-vector reference enumeration ---------------------------------------
# The library's former enumerate_points: every point of every sector is built
# as its tuple of values in F_ell by one pow per nonzero digit, and orbits are
# closed by BFS that applies the reflection matrices multiplicatively to the
# values.  Kept here as the slow, independent oracle for the exponent-vector
# walk over class representatives.


def reference_points(rd, frob, ell, weyl, expected_orbits):
    """Sorted (values, ell, w_index) of one point per orbit, walking all
    sectors of reference_sector_table."""
    l, per_sector = reference_sector_table(rd, frob, weyl)
    ell = _pick_ell(l, frob.p, ell)
    n = rd.rank
    gen = reference_primitive_root(ell)
    reps = []
    seen = set()
    refl = [reflection_matrix(rd, i) for i in range(rd.nroots)]
    for w_index, (u, diag) in enumerate(per_sector):
        zetas = [pow(gen, (ell - 1) // d, ell) for d in diag]
        urows = u.entries
        ucols = [tuple(urows[i][j] for i in range(n)) for j in range(n)]
        total = 1
        for d in diag:
            total *= d
        counter = [0] * n
        for _ in range(total):
            vals = []
            for j in range(n):
                v = 1
                for i in range(n):
                    e = (ucols[j][i] * counter[i]) % diag[i]
                    if e:
                        v = v * pow(zetas[i], e, ell) % ell
                vals.append(v)
            key = tuple(vals)
            if key not in seen:
                reps.append((key, ell, w_index))
                frontier = [key]
                seen.add(key)
                while frontier:
                    cur = frontier.pop()
                    for s in refl:
                        # (s.t)(e_j) = t(s^{-1} e_j); reflections are involutions
                        nv = []
                        for j in range(n):
                            v = 1
                            for k in range(n):
                                e = s[k, j]
                                if e:
                                    v = v * pow(cur[k], e % (ell - 1), ell) % ell
                            nv.append(v)
                        nk = tuple(nv)
                        if nk not in seen:
                            seen.add(nk)
                            frontier.append(nk)
            for i in range(n):
                counter[i] += 1
                if counter[i] < diag[i]:
                    break
                counter[i] = 0
    if len(reps) != expected_orbits:
        raise CrossCheckFailed(f"orbit fusion found {len(reps)} orbits")
    reps.sort()
    return reps


def test_torus_fixed_counts():
    # |T^{wF}| = |det(F*w - id)|, the product of each class's SNF diagonal in
    # the class table (identity first), and the count their |W|-average
    rd = build_standard("Torus", 1)
    _, table, count = sector_divisors(rd, FrobeniusData(rd, 2, 2))
    assert [prod(diag) for _, _, diag, _ in table] == [3]
    assert count == 3
    gl = build_standard("GL", 2)
    _, table, count = sector_divisors(gl, FrobeniusData(gl, 3, 1))
    assert [prod(diag) for _, _, diag, _ in table] == [4, 8]  # q^2 - 1 for the swap
    assert count == 6


def test_class_counts():
    gl = build_standard("GL", 2)
    assert class_count(gl, FrobeniusData(gl, 2, 1)) == 2
    sl = build_standard("SL", 2)
    assert class_count(sl, FrobeniusData(sl, 3, 1)) == 3
    # even orthogonal: the twisted determinant average gives q^n
    so = build_standard("SO", 8)
    assert class_count(so, FrobeniusData(so, 2, 1)) == 16
    assert class_count(so, FrobeniusData(so, 3, 1)) == 81


def test_enumerate_points_torus():
    rd = build_standard("Torus", 1)
    frob = FrobeniusData(rd, 2, 2)
    pts = enumerate_points(rd, frob, 7)
    assert len(pts) == 3
    assert sorted(pt.values[0] for pt in pts) == [1, 2, 4]  # cube roots of 1 in F_7


def test_enumerate_points_sl2():
    rd = build_standard("SL", 2)
    frob = FrobeniusData(rd, 3, 1)
    pts = enumerate_points(rd, frob, 13)
    assert len(pts) == 3
    with pytest.raises(BadPrime):
        enumerate_points(rd, frob, 11)  # 11 != 1 mod 4
    with pytest.raises(BadPrime):
        enumerate_points(rd, frob, 3)


def test_enumerate_points_gl2():
    rd = build_standard("GL", 2)
    frob = FrobeniusData(rd, 2, 1)
    assert _pick_ell(sector_divisors(rd, frob)[0], frob.p) == 7
    pts = enumerate_points(rd, frob)
    assert len(pts) == 2


def test_enumerate_points_with_handed_in_sector_data():
    rd = build_standard("Sp", 4)
    frob = FrobeniusData(rd, 3, 1)
    own = enumerate_points(rd, frob)
    l, table, count = sector_divisors(rd, frob, weyl_group(rd))
    given = enumerate_points(rd, frob, sectors=(l, table, count))
    assert [pt.values for pt in own] == [pt.values for pt in given]
    # the expected orbit count is the table's class count, so a count that
    # disagrees with the walk fails the fusion check
    with pytest.raises(CrossCheckFailed, match="orbit fusion"):
        enumerate_points(rd, frob, sectors=(l, table, count + 1))


def test_evaluate_unit_and_orbit_independence():
    rd = build_standard("SL", 2)
    frob = FrobeniusData(rd, 3, 1)
    cache = OrbitCache(rd)
    pts = enumerate_points(rd, frob)
    one = InvariantElement.one(1)
    for pt in pts:
        assert evaluate(cache, one, pt) == 1
        # r(4) evaluates like 2*r(0) at every fixed point
        assert evaluate(cache, InvariantElement.r((4,)), pt) == 2


def test_brute_force_matches_class_count():
    for fam, n, q, expect in [
        ("SL", 2, 3, 3),
        ("GL", 2, 2, 2),
        ("GL", 2, 3, 6),
        ("GL", 3, 2, 4),
    ]:
        count, hist = brute_force_ss_classes(MatrixGroupSpec(fam, n, q))
        assert count == expect
        rd = build_standard(fam, n)
        from dualalg.rootdata import prime_power_split

        p, r = prime_power_split(q)
        assert count == class_count(rd, FrobeniusData(rd, p, r))
        assert sum(hist.values()) == count


def test_brute_force_sl2_f3_orders():
    count, hist = brute_force_ss_classes(MatrixGroupSpec("SL", 2, 3))
    assert count == 3
    assert hist == {1: 1, 2: 1, 4: 1}


def test_group_cap():
    with pytest.raises(CapExceeded):
        brute_force_ss_classes(MatrixGroupSpec("GL", 3, 5, cap=1000))


def test_group_spec_rejects_q_that_is_no_prime_power():
    # checked before the order formula, which divides by q - 1 for SL
    for q in (0, 1, 6, -2):
        with pytest.raises(ValueError, match=f"q = {q} is not a prime power"):
            MatrixGroupSpec("SL", 2, q)


def test_generator_inverses():
    # the orbit refinement conjugates by g^-1 = g^(k-1), k the order of g
    for fam in ("GL", "SL"):
        for n in (1, 2, 3):
            ident = _identity(n)
            for q in (2, 3, 4):
                field = GF(*prime_power_split(q))
                spec = MatrixGroupSpec(fam, n, q)
                for g in _generators(spec, field):
                    gi = _mat_inv(field, g, n, spec.order())
                    assert _mat_mul(field, g, gi, n) == ident, (fam, n, q, g)
                    assert _mat_mul(field, gi, g, n) == ident, (fam, n, q, g)


def reference_poly_mod(p, a, b):
    """Remainder of a by b over F_p, coefficient lists low degree first: the
    field's former private copy of polynomial division."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] * inv_lead % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


EXTENSION_FIELDS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (3, 8), (2, 13)]


def test_extension_fields_match_reference_division():
    # modulus search and every field operation over F_p[x] against the old
    # division routine, on every pair while q <= 4096 and on 300 random pairs
    # above; the generator against the smallest element whose power cycle has
    # length q - 1
    rng = random.Random(20261019)
    for p, r in EXTENSION_FIELDS:
        field = GF(p, r)
        q = p ** r

        def digits(a):
            return [a // p ** k % p for k in range(r)]

        def encode(ds):
            return sum(c % p * p ** k for k, c in enumerate(ds))

        def irreducible(coeffs):
            return all(reference_poly_mod(p, coeffs, digits(k)[:d] + [1])
                       for d in range(1, r // 2 + 1) for k in range(p ** d))

        want = next(tuple(digits(low) + [1]) for low in range(q) if irreducible(digits(low) + [1]))
        assert field.modulus == want, (p, r)

        def mul(a, b):
            prod = [0] * (2 * r - 1)
            for i, x in enumerate(digits(a)):
                for j, y in enumerate(digits(b)):
                    prod[i + j] += x * y
            return encode(reference_poly_mod(p, [c % p for c in prod], list(want)))

        def power(a, e):
            out = 1
            for bit in bin(e)[2:]:
                out = mul(out, out)
                if bit == "1":
                    out = mul(out, a)
            return out

        pairs = (itertools.product(range(q), repeat=2) if q <= 4096
                 else [(rng.randrange(q), rng.randrange(q)) for _ in range(300)])
        for a, b in pairs:
            assert field.mul(a, b) == mul(a, b), (p, r, a, b)
            assert field.add(a, b) == encode([x + y for x, y in zip(digits(a), digits(b))]), (p, r, a, b)
            assert field.sub(a, b) == encode([x - y for x, y in zip(digits(a), digits(b))]), (p, r, a, b)
            assert field.pow(a, b) == power(a, b), (p, r, a, b)
            if a:
                assert field.inv(a) == power(a, q - 2) and mul(a, field.inv(a)) == 1, (p, r, a)

        def cycle_length(g):
            # the cycle g, g^2, ... closes at the least d | q - 1 with g^d = 1
            return next(d for d in range(1, q) if (q - 1) % d == 0 and power(g, d) == 1)

        assert field.generator() == next(g for g in range(1, q) if cycle_length(g) == q - 1), (p, r)


# (generator, sha256 of repr(_exp)) per field of EXTENSION_FIELDS, recorded
# while the generator walk still walked every candidate's whole cycle
PINNED_LOG_TABLES = {
    (2, 2): (2, "421b667a818da865284c26b817fd582d2e4cbb871e149496fc672b2bcd1de5a9"),
    (2, 3): (2, "5d9e4c5177d942bab8b49608896fd604a8527fb2455a5e9a4c2191a64307623e"),
    (2, 4): (2, "ffb31c0f8432a5804db35279f94c7c1b3ae56e8bac1fa84290aa2ae426ac92e0"),
    (3, 2): (4, "9f246e97ae2a8206026e381bcf8a3ff1c0366c6a9196a839abc0ea5b87e9055d"),
    (3, 3): (3, "a9a8f3457847dcf14ff9f2d7f784f3eab9b54b189d5bd7140012a3324fd4e73e"),
    (5, 2): (6, "99252198fcca5e29d11c7980985f44e7b4699da31bcb1c02c32ad2af812fed11"),
    (3, 8): (38, "d5dcceece81cfb65131d34f83df51847441cc577ab7135ad6b99ef5b9f505af0"),
    (2, 13): (2, "c44938fab9b833d88f64ffbd1f2a8abfdb7ff682bd5cc3bce69b20c6fd8688f6"),
}


def test_generator_walk_skips_proper_subgroups(monkeypatch):
    # an element on a cycle that closed early lies in a proper subgroup and is
    # not walked: the generator and its power table stay as pinned, and
    # GF(3^8) takes 12,948 products where walking every candidate took 40,813
    assert sorted(PINNED_LOG_TABLES) == sorted(EXTENSION_FIELDS)
    products = []
    real = GF._mul_raw
    monkeypatch.setattr(GF, "_mul_raw", lambda self, a, b: products.append(self.q) or real(self, a, b))
    for (p, r), (g, digest) in PINNED_LOG_TABLES.items():
        field = GF(p, r)
        assert field.generator() == g, (p, r)
        assert hashlib.sha256(repr(field._exp).encode()).hexdigest() == digest, (p, r)
    assert products.count(3 ** 8) == 12948


def test_point_determinism():
    rd = build_standard("Sp", 4)
    frob = FrobeniusData(rd, 2, 1)
    a = enumerate_points(rd, frob)
    b = enumerate_points(rd, frob)
    assert [pt.values for pt in a] == [pt.values for pt in b]


# (family, n, q, tau, ell): untwisted q = 2 across the families, the unitary
# GL(2) q = 3 (tau = -swap), 2A2 and 2D4 at q = 2 (tau the graph automorphism),
# two ell above the default, and rows whose orbit keys need each part of the
# alcove reduction: the Y_ss/Q^vee cosets (PGL, SO), the affine walls (q > 2
# everywhere), the central normalisation and a non-simply-laced highest root
# (G2).  GL(2) on the sheared basis (e1, e1 + e2) of X has W acting on Y by
# (L1, L2) -> (-L1, L1 + L2), so walked points of one orbit differ in their
# central pairing L1 + 2*L2 by l; on the standard GL and Torus bases they do
# not.  U2xT1 is tests/data/unitary_gl2_x_gl1.json, unitary GL(2) times a
# split GL(1), whose F - 1 on the centre has a unimodular factor of order 4.
# n is None for G2, the sheared GL(2) and U2xT1
SWAP = [[0, 1], [1, 0]]
D4_GRAPH = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
G2 = ((2, -1), (-3, 2))
POINT_CASES = [
    ("SL", 3, 2, None, None),
    ("Sp", 4, 2, None, None),
    ("GL", 3, 2, None, None),
    ("SO", 8, 2, None, None),
    ("SO", 10, 2, None, None),
    ("GL", 2, 3, [[0, -1], [-1, 0]], None),
    ("SL", 3, 2, SWAP, None),
    ("SO", 8, 2, D4_GRAPH, None),
    ("Sp", 4, 3, None, 241),
    ("GL", 3, 2, None, 127),
    ("PGL", 4, 3, None, None),
    ("PGL", 3, 4, None, None),
    ("G2", None, 2, None, None),
    ("G2", None, 3, None, None),
    ("SO", 4, 3, None, None),
    ("Torus", 2, 3, None, None),
    ("SO", 6, 7, None, None),
    ("SO", 8, 3, None, None),
    ("GL2-sheared", None, 3, None, None),
    ("U2xT1", None, 3, [[0, -1, 0], [-1, 0, 0], [0, 0, 1]], None),
]


def point_datum(fam, n):
    if fam == "G2":
        return build_standard("FromCartan", cartan=G2, label="G2")
    if fam == "GL2-sheared":
        return RootDatum(2, [(1, 0)], [(2, -1)], fam)
    if fam == "U2xT1":
        return RootDatum(3, [(1, -1, 0)], [(1, -1, 0)], fam)
    return build_standard(fam, n)


@pytest.mark.parametrize(
    "fam,n,q,tau,ell", POINT_CASES,
    ids=[f"{c[0]}{c[1] or ''}-q{c[2]}" + ("-tau" if c[3] else "")
         + (f"-ell{c[4]}" if c[4] else "") for c in POINT_CASES],
)
def test_enumerate_points_matches_value_vector_reference(fam, n, q, tau, ell):
    rd = point_datum(fam, n)
    frob = FrobeniusData(rd, *prime_power_split(q), tau)
    count = class_count(rd, frob)
    got = enumerate_points(rd, frob, ell)
    want = reference_points(rd, frob, ell, reference_closure(rd, 10 ** 6)[0], count)
    assert [(pt.values, pt.ell, pt.w_index) for pt in got] == want
    if ell is not None:
        assert got[0].ell == ell
    # a weight's value is one pow of zeta at its dot product with the exponents,
    # equal to the product of the coordinate values raised to the weight
    lam = tuple(range(-1, rd.rank - 1))
    for pt in got:
        want_value = 1
        for v, e in zip(pt.values, lam):
            want_value = want_value * pow(v, e % (pt.ell - 1), pt.ell) % pt.ell
        assert pt.eval_weight(lam) == want_value


# -- the orbit key -------------------------------------------------------------
# Checked on every point of (Z/l)^rank against orbits closed by BFS over the
# simple reflections mod l, the closure enumerate_points once ran per orbit.

KEY_DATA = [("SL", 3), ("PGL", 3), ("GL", 2), ("Sp", 4), ("SO", 4), ("G2", None), ("Torus", 2),
            ("GL2-sheared", None)]


def reflect(rd, pt, i):
    """s_i(L) = L - <alpha_i, L> alpha_i^vee on an integer lift."""
    c = sum(a * x for a, x in zip(rd.simple_roots[i], pt))
    return tuple(x - c * y for x, y in zip(pt, rd.simple_coroots[i]))


def bfs_orbits(rd, l):
    """The W-orbits on (Z/l)^rank, as a map from each point to its orbit's
    least point."""
    orbit_of = {}
    for start in itertools.product(range(l), repeat=rd.rank):
        if start in orbit_of:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            pt = frontier.pop()
            for i in range(rd.nroots):
                img = tuple(x % l for x in reflect(rd, pt, i))
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        least = min(orbit)
        orbit_of.update(dict.fromkeys(orbit, least))
    return orbit_of


@pytest.mark.parametrize("fam,n", KEY_DATA, ids=[f"{f}{n or ''}" for f, n in KEY_DATA])
@pytest.mark.parametrize("l", [6, 12])
def test_orbit_key_is_exact(fam, n, l):
    rd = point_datum(fam, n)
    lattice = key_lattice(rd, l)
    orbit_of = bfs_orbits(rd, l)
    keys = {}
    for pt in itertools.product(range(l), repeat=rd.rank):
        key = orbit_key(pt, lattice)
        # the key is a lift of a point of the orbit ...
        assert orbit_of[tuple(x % l for x in key)] == orbit_of[pt]
        # ... invariant under each simple reflection and each l*e_j, on lifts
        for i in range(rd.nroots):
            assert orbit_key(reflect(rd, pt, i), lattice) == key
        for j in range(rd.rank):
            for sign in (1, -1):
                shifted = tuple(x + sign * l * (k == j) for k, x in enumerate(pt))
                assert orbit_key(shifted, lattice) == key
        keys.setdefault(key, set()).add(orbit_of[pt])
    # ... and separates orbits: one key per orbit
    assert len(keys) == len(set(orbit_of.values()))
    assert all(len(orbits) == 1 for orbits in keys.values())


# (label, family, n, tau, number of F-conjugacy classes of W).  3D4 is the
# simply connected D4 with the triality tau of order 3 cycling the outer
# nodes 0 -> 2 -> 3, so that sigma != sigma^-1 on the simple roots
D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
TRIALITY = [[0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
CARTANS = {"G2": G2, "3D4": D4}
CLASS_CASES = [
    ("A3", "SL", 4, None, 5),
    ("A4", "SL", 5, None, 7),
    ("B2", "Sp", 4, None, 5),
    ("C4", "Sp", 8, None, 20),
    ("D4", "SO", 8, None, 13),
    ("D5", "SO", 10, None, 18),
    ("G2", "FromCartan", None, None, 6),
    ("2A2", "SL", 3, SWAP, 3),
    ("2D4", "SO", 8, D4_GRAPH, 9),
    ("3D4", "FromCartan", None, TRIALITY, 7),
]


def class_datum(label, fam, n):
    return build_standard(fam, n, cartan=CARTANS.get(label), label=label)


@pytest.mark.parametrize("label,fam,n,tau,classes", CLASS_CASES, ids=[c[0] for c in CLASS_CASES])
def test_sector_classes(label, fam, n, tau, classes):
    rd = class_datum(label, fam, n)
    frob = FrobeniusData(rd, 2, 1, tau)
    l, table, count = sector_divisors(rd, frob)
    assert len(table) == classes
    weyl = reference_closure(rd, 10 ** 6)[0]
    assert sum(size for _, _, _, size in table) == len(weyl)
    # the classes found on W itself, in order of their least index: each row
    # is its least index and its length
    want = reference_classes(rd, frob, weyl)
    assert [(i, size) for i, _, _, size in table] == [(c[0], len(c)) for c in want]
    # every sector's own SNF diagonal is its class row's
    ref_l, ref_table = reference_sector_table(rd, frob, weyl)
    assert ref_l == l
    for (_, _, diag, _), c in zip(table, want):
        for i in c:
            assert ref_table[i][1] == diag
    # the count is the |W|-average of every sector's own determinant
    one = IntMatrix.identity(rd.rank)
    orders = [abs(det(frob.f_matrix * w - one)) for w in weyl]
    assert count * len(weyl) == sum(orders)


@pytest.mark.parametrize("label,fam,n,tau,classes", CLASS_CASES, ids=[c[0] for c in CLASS_CASES])
@pytest.mark.parametrize("q", [2, 3])
def test_sector_matrices_are_f_times_w_minus_one(monkeypatch, label, fam, n, tau, classes, q):
    # the matrices whose determinants sector_divisors takes, in Weyl order,
    # against IntMatrix products F*w - id
    rd = class_datum(label, fam, n)
    frob = FrobeniusData(rd, q, 1, tau)
    seen = []
    real = oracles.det
    monkeypatch.setattr(oracles, "det", lambda m: seen.append(m) or real(m))
    sector_divisors(rd, frob)
    one = IntMatrix.identity(rd.rank)
    assert seen == [frob.f_matrix * w - one for w in reference_closure(rd, 10 ** 6)[0]]


def reference_closure(rd, cap):
    """The breadth-first closure of the simple reflections on the matrices
    themselves, by IntMatrix products: the elements in closure order, the
    (b, p) with w_j first reached as s_b * w_p, and the tables of s_a * w_j
    and w_j * s_a.  CapExceeded past ``cap`` elements."""
    gens = [reflection_matrix(rd, a) for a in range(rd.nroots)]
    elems = [IntMatrix.identity(rd.rank)]
    index = {elems[0]: 0}
    first = []
    for p, w in enumerate(elems):
        for b, s in enumerate(gens):
            nxt = s * w
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
                first.append((b, p))
                if len(elems) > cap:
                    raise CapExceeded(f"Weyl group exceeds cap {cap}")
    left = [[index[s * w] for w in elems] for s in gens]
    right = [[index[w * s] for w in elems] for s in gens]
    return elems, first, left, right


@pytest.mark.parametrize("label,fam,n,tau,classes", CLASS_CASES, ids=[c[0] for c in CLASS_CASES])
def test_weyl_reflection_tables(monkeypatch, label, fam, n, tau, classes):
    # the closure on the orbit of rho against the closure on the matrices:
    # as many elements, the same parents and tables, and the cap
    rd = class_datum(label, fam, n)
    weyl = weyl_group(rd)
    elems, first, left, right = reference_closure(rd, 10 ** 6)
    assert len(weyl) == len(elems)
    assert weyl.parents == first
    assert weyl.left == left
    assert weyl.right == right
    for cap in (1, len(weyl) // 2, len(weyl) - 1):
        monkeypatch.setenv("DUALALG_WEYL_CAP", str(cap))
        with pytest.raises(CapExceeded):
            weyl_group(rd)
        with pytest.raises(CapExceeded):
            reference_closure(rd, cap)


WALK_CASES = ([(label, class_datum(label, fam, n), tau) for label, fam, n, tau, _ in CLASS_CASES]
              + [("torus0", RootDatum(0, [], []), None)])


@pytest.mark.parametrize("label,rd,tau", WALK_CASES, ids=[c[0] for c in WALK_CASES])
@pytest.mark.parametrize("q", [2, 3])
def test_weyl_walk_matches_products(label, rd, tau, q):
    # weyl_walk from 1 and from F against the reference closure's matrices w
    # and the products F*w, in closure order.  The moves from F are the
    # reflections F*s_b*F^-1 = tau^-1*s_b*tau, found among the simple
    # reflections by their matrices
    frob = FrobeniusData(rd, q, 1, tau)
    weyl = weyl_group(rd)
    elems = reference_closure(rd, 10 ** 6)[0]
    walked = weyl_walk(IntMatrix.identity(rd.rank).entries, rd.simple, weyl)
    assert list(walked) == [w.entries for w in elems]
    gens = [reflection_matrix(rd, a) for a in range(rd.nroots)]
    moves = [rd.simple[gens.index(frob.tau_inv * s * frob.tau)] for s in gens]
    walked = weyl_walk(frob.f_matrix.entries, moves, weyl)
    assert list(walked) == [(frob.f_matrix * w).entries for w in elems]


def test_weyl_group_of_a_rank_zero_torus():
    weyl = weyl_group(RootDatum(0, [], []))
    assert list(weyl) == [()]
    assert weyl.parents == []
    assert weyl.left == weyl.right == []
