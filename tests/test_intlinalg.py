import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualalg import balgebra, intlinalg
from dualalg.errors import CrossCheckFailed, DimensionMismatch, NonSquare
from dualalg.intlinalg import (
    IntMatrix,
    SmithForm,
    det,
    in_image,
    kernel_basis,
    lattice_hnf,
    rank_mod_p,
    reduce_mod_lattice,
    snf,
)
from dualalg.rootdata import FrobeniusData, build_standard
from test_rootdata import reference_weyl_group


def is_hnf_shape(h: IntMatrix):
    """Upper echelon, positive pivots, entries above pivots reduced."""
    last_col = -1
    for i in range(h.rows):
        row = h.entries[i]
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            # all later rows must be zero as well
            for k in range(i, h.rows):
                if any(h.entries[k]):
                    return False
            return True
        p = nz[0]
        if p <= last_col:
            return False
        last_col = p
        if row[p] <= 0:
            return False
        for r in range(i):
            if not (0 <= h[r, p] < row[p]):
                return False
    return True


def is_unimodular(u: IntMatrix):
    return abs(det(u)) == 1


def assert_lattice_hnf(gens, h: IntMatrix):
    """h is in HNF shape with as many rows as the rank, and certified solves
    go both ways: every generator lies in the row span of h and every row of
    h in the span of the generators."""
    assert is_hnf_shape(h)
    assert h.rows == sum(1 for d in SmithForm(IntMatrix(gens)).diag if d)
    if h.rows == 0:
        return
    for span, vectors in ((h.transpose(), gens), (IntMatrix(gens).transpose(), h.entries)):
        form = SmithForm(span)
        for b in vectors:
            ok, x = form.solve(b)
            assert ok and span.apply(x) == tuple(b), (gens, h.entries, b)


def test_lattice_hnf_identity():
    m = IntMatrix.identity(2)
    assert lattice_hnf(m.entries, 2) == m


def test_lattice_hnf_known_matrix():
    # elementary row operations give the echelon form [[1,2],[0,2]]; reducing
    # the entry above the second pivot into [0,2) canonicalizes it to
    # [[1,0],[0,2]], which is what the shape predicate demands
    h = lattice_hnf([[1, 2], [3, 4]], 2)
    assert h == IntMatrix([[1, 0], [0, 2]])
    assert lattice_hnf([[1, 2], [3, 4]], 2) == lattice_hnf([[1, 2], [0, 2]], 2)
    assert_lattice_hnf([[1, 2], [3, 4]], h)


def test_lattice_hnf_zero():
    # zero rows are dropped, so the zero lattice has an empty HNF
    assert lattice_hnf([[0, 0], [0, 0]], 2).entries == ()
    assert lattice_hnf([], 2).entries == ()


def test_lattice_hnf_rejects_a_generator_of_the_wrong_length():
    with pytest.raises(DimensionMismatch, match="length 3, expected 2"):
        lattice_hnf([[1, 2, 3]], 2)
    with pytest.raises(DimensionMismatch, match="ragged"):
        lattice_hnf([[1, 2], [3]], 2)


# The canonical HNF of the SO(4) q=3 cover matrix's kernel, recorded before
# the HNF lost its unimodular transform; every SO(4) q=3 normal form is
# reduced modulo these rows.
SO4_Q3_COVER_KERNEL = [
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, -1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, -1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, -1),
]


def test_so4_q3_cover_kernel_pinned():
    rd = build_standard("SO", 4)
    form = balgebra.build_context(rd, FrobeniusData(rd, 3, 1), balgebra.SO_EVEN).cover()
    assert form.kernel == SO4_Q3_COVER_KERNEL
    assert all(form.m.apply(k) == (0,) * form.m.rows for k in form.kernel)


def snf_shape_ok(d: IntMatrix):
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j and d[i, j] != 0:
                return False
    for a, b in zip(diag, diag[1:]):
        if a < 0 or b < 0:
            return False
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def test_snf_diag_2_3():
    m = IntMatrix([[2, 0], [0, 3]])
    d, u, v = snf(m)
    assert [d[0, 0], d[1, 1]] == [1, 6]
    assert u * m * v == d
    assert is_unimodular(u) and is_unimodular(v)
    assert snf_shape_ok(d)


def test_snf_identity():
    m = IntMatrix.identity(3)
    d, u, v = snf(m)
    assert d == m


def test_snf_with_zero_divisor():
    m = IntMatrix([[0, 0], [0, 5]])
    d, u, v = snf(m)
    assert [d[0, 0], d[1, 1]] == [5, 0]
    assert u * m * v == d


# (m, d, u, v) recorded before the divisibility pass was rewritten to act on
# the diagonal alone.  Each matrix runs its gcd-lcm step; the factor identity
# alone would pass a pass that moved u or v, and with them every walked point
# and printed representative.  The last is sector 57 of SO(10) at q = 2.
SO10_SECTOR_57 = ((-1, 2, 0, 0, 0), (0, -1, 2, 0, 0), (2, 0, -1, 0, 0), (0, 0, 0, -3, 0),
                  (0, 0, 0, 0, -3))
PINNED_SNF = [
    (((2, 0), (0, 3)),
     ((1, 0), (0, 6)), ((-1, 1), (-3, 2)), ((1, -3), (1, -2))),
    (((4, 0, 0), (0, 6, 0), (0, 0, 10)),
     ((2, 0, 0), (0, 2, 0), (0, 0, 60)),
     ((-1, 1, 0), (-3, 2, -1), (15, -10, 6)),
     ((1, -3, -15), (1, -2, -10), (0, 1, 6))),
    (SO10_SECTOR_57,
     ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 3, 0), (0, 0, 0, 0, 21)),
     ((-1, 0, 0, 0, 0), (0, -1, 0, 0, 0), (2, 4, 1, 0, 2), (6, 12, 3, 1, 6), (6, 12, 3, 0, 7)),
     ((1, 2, 4, 0, -24), (0, 1, 2, 0, -12), (0, 0, 1, 0, -6), (0, 0, 1, -1, 0),
      (0, 0, 1, 0, -7))),
]


@pytest.mark.parametrize("m,d,u,v", PINNED_SNF, ids=["diag-2-3", "diag-4-6-10", "so10-sector"])
def test_snf_transforms_pinned(m, d, u, v, monkeypatch):
    steps = []
    real = intlinalg._xgcd
    monkeypatch.setattr(intlinalg, "_xgcd", lambda a, b: steps.append((a, b)) or real(a, b))
    got = snf(IntMatrix(m))
    assert tuple(x.entries for x in got) == (d, u, v)
    assert steps


def test_so10_pinned_matrix_is_a_sector_matrix():
    rd = build_standard("SO", 10)
    fw = FrobeniusData(rd, 2, 1).f_matrix * reference_weyl_group(rd, 10 ** 6)[57]
    assert fw - IntMatrix.identity(5) == IntMatrix(SO10_SECTOR_57)


def test_rank_mod_p_matches_smith_diagonal():
    # an independent route: over F_l the rank of m is the number of Smith
    # invariants that l does not divide
    rng = random.Random(20261019)
    cases = [[], [[]], [[0, 0], [0, 0]], [[1, 2, 3], [2, 4, 6], [0, 0, 1]]]
    for _ in range(300):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        shape = rng.random()
        if shape < 0.3:
            # rank at most k < min(r, c): a product through a k-dimensional space
            k = rng.randint(0, min(r, c) - 1)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
            right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
            m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k else [0] * c
                 for row in left]
        elif shape < 0.5:
            for i in rng.sample(range(r), rng.randint(0, r)):
                m[i] = [0] * c
            for j in rng.sample(range(c), rng.randint(0, c)):
                for row in m:
                    row[j] = 0
        cases.append(m)
    deficient = 0
    for m in cases:
        diag = SmithForm(IntMatrix(m)).diag
        for ell in (2, 3, 5, 7, 31):
            want = sum(1 for d in diag if d % ell)
            assert rank_mod_p(m, ell) == want, (m, ell)
            deficient += want < min(len(m), len(m[0]) if m else 0)
    assert rank_mod_p([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 7) == 2
    assert deficient > 100


def test_det_examples():
    assert det(IntMatrix.identity(4)) == 1
    assert det(IntMatrix([[3, -1], [0, 3]])) == 9
    assert det(IntMatrix([[2, 0], [0, 3]])) == 6
    with pytest.raises(NonSquare):
        det(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_in_image_examples():
    m = IntMatrix([[2, 0], [0, 2]])
    ok, x = in_image(m, (2, 0))
    assert ok and m.apply(x) == (2, 0)
    ok, x = in_image(m, (1, 0))
    assert not ok and x is None
    with pytest.raises(DimensionMismatch):
        in_image(m, (1, 0, 0))


def test_in_image_back_substitution_failure_raises(monkeypatch):
    # a wrong column transform makes m*x != b; that must be a typed error
    ident = IntMatrix.identity(2)
    monkeypatch.setattr(intlinalg, "snf", lambda m: (ident, ident, ident.scale(2)))
    with pytest.raises(CrossCheckFailed, match="back-substitution"):
        in_image(ident, (1, 0))


def brute_force_in_image(m: IntMatrix, b, box=10):
    """Independent oracle: exhaustive search over |x_i| <= box."""
    import itertools

    for x in itertools.product(range(-box, box + 1), repeat=m.cols):
        if m.apply(x) == tuple(b):
            return True
    return False


def test_in_image_matches_brute_force(monkeypatch):
    rng = random.Random(20240802)
    cases = []
    for _ in range(60):
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        rhs = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(4)]
        cases.append((m, rhs, [in_image(m, b) for b in rhs]))
        for b, (ok, x) in zip(rhs, cases[-1][2]):
            if ok:
                assert m.apply(x) == b
            else:
                # brute force with a generous box; a solution inside the box
                # would contradict the SNF verdict
                assert not brute_force_in_image(m, b, box=10)
    # one factorization per matrix solves every right-hand side as in_image does
    calls = []
    real = intlinalg.snf
    monkeypatch.setattr(intlinalg, "snf", lambda m: calls.append(m) or real(m))
    for m, rhs, expected in cases:
        form = SmithForm(m)
        assert [form.solve(b) for b in rhs] == expected
    assert calls == [m for m, _, _ in cases]


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_lattice_hnf_spans_its_generators(entries):
    assert_lattice_hnf(entries, lattice_hnf(entries, len(entries[0])))


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_snf_factor_identity(entries):
    m = IntMatrix(entries)
    d, u, v = snf(m)
    assert u * m * v == d
    assert is_unimodular(u) and is_unimodular(v)
    assert snf_shape_ok(d)


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_saturation_basis_is_leading_columns_of_u_inverse(entries):
    # rank-deficient and non-square matrices included: u maps the i-th basis
    # vector to e_i, and the vectors scaled by their divisors span m's columns
    m = IntMatrix(entries)
    form = SmithForm(m)
    basis = form.saturation_basis()
    divisors = [d for d in form.diag if d]
    assert len(basis) == len(divisors)
    for i, b in enumerate(basis):
        assert form.u.apply(b) == tuple(int(k == i) for k in range(m.rows))
    scaled = [[d * x for x in b] for d, b in zip(divisors, basis)]
    assert lattice_hnf(scaled, m.rows) == lattice_hnf([m.col(j) for j in range(m.cols)], m.rows)


def test_saturation_basis_rejects_an_inexact_division():
    form = SmithForm(IntMatrix([[3]]))
    form.diag = (2,)
    with pytest.raises(CrossCheckFailed, match="not divisible by 2"):
        form.saturation_basis()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_equals_snf_diagonal_product(entries):
    m = IntMatrix(entries)
    d, _, _ = snf(m)
    prod = 1
    for i in range(3):
        prod *= d[i, i]
    assert abs(det(m)) == abs(prod)


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(42)
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)])
        d, u, v = snf(m)
        s = smith_normal_form(sympy.Matrix(list(map(list, m.entries))))
        mine = [d[i, i] for i in range(min(nr, nc))]
        theirs = [abs(int(s[i, i])) for i in range(min(nr, nc))]
        assert mine == theirs


def test_kernel_basis_solves():
    m = IntMatrix([[1, 2, 3], [2, 4, 6]])
    ker = kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        assert m.apply(v) == (0, 0)


def test_smith_form_kernel_and_reduction():
    # the kernel is read once from the factorization and reduces like
    # reduce_mod_lattice against the same rows
    m = IntMatrix([[1, 2, 3], [2, 4, 6]])
    form = SmithForm(m)
    assert form.kernel == kernel_basis(m)
    rng = random.Random(7)
    for _ in range(20):
        x = tuple(rng.randint(-20, 20) for _ in range(3))
        assert form.reduce(x) == reduce_mod_lattice(x, form.kernel)
    assert SmithForm(IntMatrix.identity(2)).kernel == []


def test_lattice_equality_and_reduction():
    a = [[2, 0], [0, 3]]
    b = [[2, 3], [2, -3]]
    assert lattice_hnf(a, 2) != lattice_hnf(b, 2)
    assert lattice_hnf(a, 2) == lattice_hnf([[2, 3], [0, 3]], 2)
    v = reduce_mod_lattice((5, 7), a)
    assert v == (1, 1)
    assert lattice_hnf(a, 2) == IntMatrix([[2, 0], [0, 3]])
