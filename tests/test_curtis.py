import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from dualalg.curtis import (
    GL2,
    PGL2,
    CyclotomicInt,
    TorusIndexing,
    _central_parity,
    columns_in_parity_lattice,
    datum_for,
    eside_curtis_tables,
    eside_parity_holds,
    homomorphism_check,
    nonsaturation_witness,
    table_basis,
    phi_matrix,
    phi_of_invariant,
    saturation_check,
)
from dualalg import curtis
from dualalg.errors import QEven
from dualalg.intlinalg import IntMatrix, kernel_basis, lattice_hnf
from dualalg.orbitring import InvariantElement, OrbitCache
from dualalg.rootdata import prime_power_split


def column_index(q):
    return {ij: k for k, (lam, ij) in enumerate(table_basis(GL2, q))}


def test_split_table_rows():
    for q in (3, 4, 5):
        m1, _ = phi_matrix(GL2, q)
        cidx = column_index(q)
        ti = TorusIndexing(GL2, q)
        sidx = {k: i for i, k in enumerate(ti.split_keys())}
        for a in range(q - 1):
            for b in range(q - 1):
                row = m1.entries[sidx[(a, b)]]
                hits = {j: row[j] for j in range(len(row)) if row[j]}
                if a == b:
                    expected = {cidx[(0, a)]: 1, cidx[(q - 1, a)]: 2}
                else:
                    expected = {}
                    for i in range(1, q - 1):
                        for j in range(q - 1):
                            if (i % (q - 1), j) in (((a - b) % (q - 1), b), ((b - a) % (q - 1), a)):
                                expected[cidx[(i, j)]] = expected.get(cidx[(i, j)], 0) + 1
                assert hits == expected, (q, a, b, hits, expected)


def test_twisted_table_rows():
    # the published middle-row entry (1, u) is a misprint for (v, u): with
    # (1, u) both the column mass and the homomorphism property fail
    for q in (3, 4, 5):
        _, ms = phi_matrix(GL2, q)
        cidx = column_index(q)
        for c in range(q * q - 1):
            u, v = c // (q + 1), c % (q + 1)
            row = ms.entries[c]
            hits = {j: row[j] for j in range(len(row)) if row[j]}
            if v == 0:
                expected = {cidx[(0, u)]: 1}
            elif v in (1, q):
                expected = {cidx[(1, u)]: 1}
            else:
                expected = {
                    cidx[(v, u)]: 1,
                    cidx[(q + 1 - v, (u + v - 1) % (q - 1))]: 1,
                }
            assert hits == expected, (q, c, hits, expected)


def test_column_mass_equals_orbit_size():
    for group, q in [(GL2, 3), (GL2, 4), (PGL2, 5)]:
        rd = datum_for(group)
        cache = OrbitCache(rd)
        m1, ms = phi_matrix(group, q)
        for col, (lam, _) in enumerate(table_basis(group, q)):
            size = len(cache.orbit(lam))
            assert sum(m1.col(col)) == size
            assert sum(ms.col(col)) == size


def test_phi_columns_in_parity_lattice():
    for group in (GL2, PGL2):
        for q in (2, 3, 4, 5):
            rd = datum_for(group)
            cache = OrbitCache(rd)
            for lam, _ in table_basis(group, q):
                f1, fs = phi_of_invariant(group, q, InvariantElement.r(lam), cache)
                assert _central_parity(TorusIndexing(group, q), f1, fs)
            assert columns_in_parity_lattice(group, q, *phi_matrix(group, q))


def test_matrix_column_parity_fails_on_raised_central_entry():
    for q in (3, 4):
        m1, ms = phi_matrix(GL2, q)
        sidx = {k: i for i, k in enumerate(TorusIndexing(GL2, q).split_keys())}
        entries = [list(r) for r in m1.entries]
        entries[sidx[(1, 1)]][0] += 1
        assert not columns_in_parity_lattice(GL2, q, IntMatrix(entries), ms)


class ReferenceTorusIndexing:
    """The library's former per-group sector formulas, kept as the reference:
    PGL2 keys its split sector by an int, GL2 by a pair."""

    def __init__(self, group, q):
        self.group = group
        self.q = q
        self.twisted_order = q * q - 1 if group == GL2 else q + 1

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
        q = self.q
        if self.group == GL2:
            return [((a, a), (q + 1) * a % (q * q - 1)) for a in range(q - 1)]
        return [(0, 0)]


def as_tuple(key):
    return key if isinstance(key, tuple) else (key,)


@pytest.mark.parametrize("group", [GL2, PGL2])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_torus_indexing_matches_per_group_reference(group, q):
    ti, ref = TorusIndexing(group, q), ReferenceTorusIndexing(group, q)
    skeys = [as_tuple(k) for k in ref.split_keys()]
    tkeys = ref.twisted_keys()
    assert ti.split_keys() == skeys
    assert ti.twisted_keys() == tkeys
    assert ti.central_pairs() == [(as_tuple(ks), kt) for ks, kt in ref.central_pairs()]
    for lam in itertools.product(range(-2 * q, 2 * q + 1), repeat=datum_for(group).rank):
        assert ti.split_of_weight(lam) == as_tuple(ref.split_of_weight(lam)), lam
        assert ti.twisted_of_weight(lam) == ref.twisted_of_weight(lam), lam
    ref_skeys = ref.split_keys()
    for k1, r1 in zip(skeys, ref_skeys):
        for k2, r2 in zip(skeys, ref_skeys):
            assert ti.split_mul(k1, k2) == as_tuple(ref.split_mul(r1, r2)), (k1, k2)
    for k1 in tkeys:
        for k2 in tkeys:
            assert ti.twisted_mul(k1, k2) == ref.twisted_mul(k1, k2), (k1, k2)


def test_parity_counterexamples():
    q = 3
    ti = TorusIndexing(GL2, q)
    assert not _central_parity(ti, {(0, 0): 1}, {})
    assert _central_parity(ti, {(0, 0): 2}, {})


def test_homomorphism_property():
    for q in (2, 3, 4, 5):
        assert homomorphism_check(GL2, q)
        assert homomorphism_check(PGL2, q)


def test_saturation():
    for q in (2, 3, 4, 5):
        assert saturation_check(GL2, q)
        assert saturation_check(PGL2, q)


def test_nonsaturation_witness():
    for q in (3, 5, 9):
        f, cert = nonsaturation_witness(q)
        assert cert["half_integral_coeffs"]
        assert cert["denominator_coprime_to_p"]
        assert cert["image_integral"]
        assert all(v == Fraction(1, 2) for v in f.values())
        assert {ij[0] for ij in f} == {i for i in range(2, q) if i % 2 == 0}
    with pytest.raises(QEven):
        nonsaturation_witness(4)


def reference_witness_certificate(q):
    """The witness certificate with Fraction image coefficients: the half
    coefficients pushed through the transfer map one orbit weight at a time."""
    p, _ = prime_power_split(q)
    cols = table_basis(GL2, q)
    f = {ij: Fraction(1, 2) for lam, ij in cols if ij[0] >= 2 and ij[0] % 2 == 0}
    cache = OrbitCache(datum_for(GL2))
    ti = TorusIndexing(GL2, q)
    weight_of = {ij: lam for lam, ij in cols}
    img1, imgs = {}, {}
    for ij, c in f.items():
        for mu in cache.orbit(weight_of[ij]):
            k1, ks = ti.split_of_weight(mu), ti.twisted_of_weight(mu)
            img1[k1] = img1.get(k1, Fraction(0)) + c
            imgs[ks] = imgs.get(ks, Fraction(0)) + c
    return f, {
        "half_integral_coeffs": any(c.denominator == 2 for c in f.values()),
        "denominator_coprime_to_p": all(c.denominator % p != 0 for c in f.values()),
        "image_integral": all(v.denominator == 1 for v in (*img1.values(), *imgs.values())),
        "split_image": {str(k): int(v) for k, v in sorted(img1.items()) if v},
        "twisted_image": {str(k): int(v) for k, v in sorted(imgs.items()) if v},
    }


def test_nonsaturation_witness_matches_fraction_reference():
    for q in (3, 5, 7, 9):
        f, cert = nonsaturation_witness(q)
        want_f, want_cert = reference_witness_certificate(q)
        assert f == want_f
        assert cert == want_cert
        assert list(cert["split_image"]) == list(want_cert["split_image"])
        assert list(cert["twisted_image"]) == list(want_cert["twisted_image"])


def reference_even_solution_lattice(cmat_mod2, ncols):
    """Basis of {y in Z^ncols : cmat * y = 0 mod 2} by Gauss-Jordan over F_2:
    the library's former routine, kept as the reference."""
    rows = [row[:] for row in cmat_mod2]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] % 2), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] % 2:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            if rows[ri][fc] % 2:
                v[pc] = 1
        basis.append(v)
    for c in range(ncols):
        v = [0] * ncols
        v[c] = 2
        basis.append(v)
    return [list(r) for r in lattice_hnf(basis, ncols).entries]


def reference_saturation(columns, parity, n):
    """The library's former saturation check, kept as the reference: the HNF
    of the image lattice L, its saturation as the kernel of a kernel basis,
    the even solutions of the parity rows on that saturation, and an HNF
    comparison of L with the lattice they give."""
    image = [list(r) for r in lattice_hnf(columns, n).entries]
    if not image:
        sat = []
    else:
        k = kernel_basis(IntMatrix(image))
        sat = [list(r) for r in (kernel_basis(IntMatrix(k)) if k else IntMatrix.identity(n).entries)]
    cmat = [[sum(a * b for a, b in zip(row, v)) % 2 for v in sat] for row in parity]
    coeffs = reference_even_solution_lattice(cmat, len(sat))
    even = [[sum(c[i] * sat[i][k] for i in range(len(sat))) for k in range(n)] for c in coeffs]
    return lattice_hnf(image, n) == lattice_hnf(even, n)


def test_saturation_index_decision_matches_reference(monkeypatch):
    # random stacked transfer matrices and parity rows in place of the Curtis
    # ones: the index decision agrees with the HNF construction, through all
    # three outcomes (True, False by parity, False by index alone)
    case = {}
    monkeypatch.setattr(curtis, "phi_matrix", lambda group, q: case["m"])
    monkeypatch.setattr(curtis, "_parity_condition_rows", lambda ti: case["parity"])
    rng = random.Random(35)
    outcomes = Counter()
    for _ in range(2000):
        nsplit, ntwisted, ncols = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        n = nsplit + ntwisted
        rows = [[rng.choice((-2, -1, 0, 0, 0, 1, 1, 2)) for _ in range(ncols)] for _ in range(n)]
        parity = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        case["m"] = (IntMatrix(rows[:nsplit]), IntMatrix(rows[nsplit:]))
        case["parity"] = parity
        columns = [[row[j] for row in rows] for j in range(ncols)]
        want = reference_saturation(columns, parity, n)
        assert saturation_check(GL2, 3) == want, (rows, parity)
        in_parity = all(sum(a * b for a, b in zip(p, c)) % 2 == 0 for p in parity for c in columns)
        outcomes[want, in_parity] += 1
    assert outcomes[True, True] and outcomes[False, False] and outcomes[False, True], outcomes


def test_nonsat_witness_q3_explicit():
    f, _ = nonsaturation_witness(3)
    assert set(f) == {(2, 0), (2, 1)}


def test_cyclotomic_arithmetic():
    p = 5
    one = CyclotomicInt.one(p)
    z = CyclotomicInt.root_power(p, 1)
    prod = z
    for _ in range(4):
        prod = prod * z
    assert prod == one  # zeta^5 = 1
    total = CyclotomicInt.zero(p)
    for k in range(p):
        total = total + CyclotomicInt.root_power(p, k)
    assert total == CyclotomicInt.zero(p)  # sum of all p-th roots of unity


def test_eside_tables():
    for q in (2, 3, 4, 5):
        tables = eside_curtis_tables(q)
        assert len(tables) == (q - 1) + (q - 1) ** 2
        assert eside_parity_holds(q, tables)
        from dualalg.rootdata import prime_power_split

        p, _ = prime_power_split(q)
        one = CyclotomicInt.one(p)
        # the scalar labels are plain indicators at the matching scalar element
        for ka in range(q - 1):
            f1, fs = tables[("c", ka)]
            assert f1 == {(ka, ka): one}
            assert fs == {(q + 1) * ka % (q * q - 1): one}


def test_trace_form_matches_identity_coefficient():
    # the averaged identity coefficient of the transfer pair must reproduce
    # the trace form; this pins the twisted-sector membership convention
    from dualalg.balgebra import GENERIC_SC, BElement, build_context, trace_form
    from dualalg.rootdata import FrobeniusData, prime_power_split

    for group, qs in [(GL2, (2, 3, 4)), (PGL2, (2, 3, 5))]:
        rd = datum_for(group)
        for q in qs:
            p, r = prime_power_split(q)
            ctx = build_context(rd, FrobeniusData(rd, p, r), GENERIC_SC)
            ident_split = (0, 0) if group == GL2 else (0,)
            for i in range(len(ctx.basis)):
                x = BElement({i: 1}, ctx.ctx_id)
                f1, fs = phi_of_invariant(group, q, ctx.lift(x), ctx.cache)
                assert f1.get(ident_split, 0) + fs.get(0, 0) == 2 * trace_form(ctx, x)


def test_eside_parity_fails_on_changed_twisted_value():
    # negating a twisted value v moves the central difference by 2v, so the
    # parity survives it; dropping v moves the difference by a root of unity,
    # which is odd, so the parity fails (p = 2: one coefficient; p = 3, 5: several)
    for q in (4, 3, 5):
        label = ("c'", 0, 0)  # det 1: the identity, a central element, is in the support
        tables = eside_curtis_tables(q)
        f1, fs = tables[label]
        tables[label] = (f1, {**fs, 0: -fs[0]})
        assert eside_parity_holds(q, tables)
        tables[label] = (f1, {k: v for k, v in fs.items() if k != 0})
        assert not eside_parity_holds(q, tables)


def test_eside_antidiagonal_support():
    q = 3
    tables = eside_curtis_tables(q)
    f1, fs = tables[("c'", 0, 0)]  # a = b = 1, so det(t) must be 1
    for (x, y) in f1:
        assert (x + y) % (q - 1) == 0
    for c in fs:
        assert (q + 1) * c % (q * q - 1) == 0
