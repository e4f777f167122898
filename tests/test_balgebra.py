import itertools
import json
import random
import re
from pathlib import Path

import pytest

from dualalg import balgebra, verification
from dualalg.balgebra import (
    GENERIC_SC,
    SO_EVEN,
    BContext,
    BElement,
    basis_traces,
    build_context,
    evaluation_rank,
    gram_discriminant,
    gram_matrix,
    is_plus_minus_p_power,
    multiply_b,
    normal_form,
    rank,
    reducedness_certificate,
    so_even_basis_weights,
    so_even_claimed_rank,
    so_even_cover,
    structure_constants,
    trace_form,
)
from dualalg.errors import (
    ContextMismatch,
    CrossCheckFailed,
    LimitExceeded,
    NonTermination,
    NotDominant,
    StrategyInapplicable,
)
from dualalg.intlinalg import IntMatrix, in_image, snf
from dualalg.oracles import class_count, evaluate
from dualalg.orbitring import InvariantElement, OrbitCache, combine, multiply
from dualalg.rootdata import (
    FrobeniusData,
    build_standard,
    chamber,
    datum_from_json,
    prime_power_split,
    weyl_group,
)
from test_cli import patch_everywhere
from test_rootdata import reference_weyl_group

R = InvariantElement.r
DATA = Path(__file__).resolve().parent / "data"


def make_ctx(fam, n, q, strategy=GENERIC_SC, tau=None):
    rd = build_standard(fam, n)
    p, r = prime_power_split(q)
    frob = FrobeniusData(rd, p, r, tau)
    return build_context(rd, frob, strategy)


def so_even_cover_ctx(size, q):
    """The GenericSC context on the cover datum that an SOEven context of
    SO(size) builds its ring on."""
    rd = so_even_cover(build_standard("SO", size))
    p, r = prime_power_split(q)
    return build_context(rd, FrobeniusData(rd, p, r), GENERIC_SC)


def unitary_gl2(q):
    with open(DATA / "unitary_gl2.json") as fh:
        rd, tau = datum_from_json(json.load(fh))
    return build_context(rd, FrobeniusData(rd, q, 1, tau), GENERIC_SC)


def test_gl2_basis_matches_published_box():
    ctx = make_ctx("GL", 2, 3)
    assert rank(ctx) == 6
    # basis weights are mutually inequivalent and reduce to themselves
    for i, lam in enumerate(ctx.basis):
        assert normal_form(ctx, R(lam)) == BElement({i: 1}, ctx.ctx_id)


def test_each_normal_form_builds_one_element(monkeypatch):
    """Sums go through orbitring.combine and memo entries are plain
    coefficient dicts: every normal_form builds one BElement, the one it
    returns, whether it fills the memo with new entries (canonical weights or
    not, which are not themselves memo keys) or reads a warm one."""
    ctx = make_ctx("GL", 3, 3)
    x = InvariantElement({(7, 2, 0): 1, (4, 4, -3): -2, (6, 3, 0): 3})
    built = []
    init = BElement.__init__

    def counting_init(self, coeffs, ctx_id):
        built.append(ctx_id)
        init(self, coeffs, ctx_id)

    monkeypatch.setattr(BElement, "__init__", counting_init)
    shifted = 0
    for lam in x.coeffs:
        before = len(ctx.memo)
        built.clear()
        normal_form(ctx, R(lam))
        assert len(ctx.memo) > before
        shifted += lam not in ctx.memo
        assert len(built) == 1
    assert shifted > 0
    assert len(ctx.memo) > len(x.coeffs)
    assert all(type(entry) is dict for entry in ctx.memo.values())
    built.clear()
    got = normal_form(ctx, x)
    assert len(built) == 1
    monkeypatch.undo()
    want = BElement({}, ctx.ctx_id)
    for lam, c in x.coeffs.items():
        want = want + normal_form(ctx, R(lam)).scale(c)
    assert got == want


def test_sl2_basis_and_normal_forms():
    ctx = make_ctx("SL", 2, 3)
    assert ctx.basis == [(0,), (1,), (2,)]
    assert normal_form(ctx, R((3,))) == normal_form(ctx, R((1,)))
    assert normal_form(ctx, R((4,))) == BElement({0: 2}, ctx.ctx_id)
    assert normal_form(ctx, R((0,))) == ctx.unit()


def test_sl2_q3_regression_against_evaluation():
    ctx = make_ctx("SL", 2, 3)
    pts = ctx.points()
    for pt in pts:
        lhs = evaluate(ctx.cache, R((4,)), pt)
        rhs = 2 * evaluate(ctx.cache, InvariantElement.one(1), pt) % pt.ell
        assert lhs == rhs


def test_multiply_b_examples():
    ctx = make_ctx("SL", 2, 3)
    x1 = normal_form(ctx, R((1,)))
    assert multiply_b(ctx, x1, x1) == BElement({0: 2, 2: 1}, ctx.ctx_id)
    assert multiply_b(ctx, ctx.unit(), x1) == x1
    # the spec fixes this product by the evaluation oracle: r(2)^2 == 4*r(0)
    x2 = normal_form(ctx, R((2,)))
    sq = multiply_b(ctx, x2, x2)
    assert sq == BElement({0: 4}, ctx.ctx_id)
    for pt in ctx.points():
        v = evaluate(ctx.cache, R((2,)), pt)
        assert v * v % pt.ell == evaluate(ctx.cache, ctx.lift(sq), pt)


def test_normal_form_idempotent_on_lifts():
    rng = random.Random(99)
    for fam, n, q in [("GL", 2, 3), ("Sp", 4, 2)]:
        ctx = make_ctx(fam, n, q)
        for _ in range(15):
            lam = chamber(
                tuple(rng.randint(-2 * q, 2 * q) for _ in range(ctx.rd.rank)), ctx.rd.walls
            )
            nf = normal_form(ctx, R(lam))
            assert normal_form(ctx, ctx.lift(nf)) == nf


def test_context_mismatch_raises():
    a = make_ctx("SL", 2, 3)
    b = make_ctx("SL", 2, 3)
    with pytest.raises(ContextMismatch):
        multiply_b(a, a.unit(), b.unit())


def test_lift_refuses_an_element_of_another_context():
    # basis index 1 of GL(2) q=3 is not basis index 1 of GL(3) q=3
    gl3, gl2 = make_ctx("GL", 3, 3), make_ctx("GL", 2, 3)
    with pytest.raises(ContextMismatch):
        gl3.lift(BElement({1: 1}, gl2.ctx_id))
    assert gl3.lift(BElement({1: 1}, gl3.ctx_id)) == R(gl3.basis[1])


def test_rank_formulas_generic():
    assert rank(make_ctx("GL", 2, 5)) == 20
    assert rank(make_ctx("SL", 2, 7)) == 7
    assert rank(make_ctx("Sp", 4, 3)) == 9
    assert rank(make_ctx("Torus", 1, 4)) == 3


def test_rank_equals_class_count_generic():
    for fam, n, q in [("GL", 2, 4), ("SL", 3, 2), ("Sp", 4, 2), ("Torus", 2, 3)]:
        ctx = make_ctx(fam, n, q)
        assert rank(ctx) == class_count(ctx.rd, ctx.frob) == len(ctx.points())


def test_strategy_inapplicable():
    rd = build_standard("PGL", 2)
    frob = FrobeniusData(rd, 3, 1)
    with pytest.raises(StrategyInapplicable):
        build_context(rd, frob, GENERIC_SC)
    rd = build_standard("GL", 2)
    frob = FrobeniusData(rd, 3, 1)
    with pytest.raises(StrategyInapplicable):
        build_context(rd, frob, SO_EVEN)


def test_f_invariance_random():
    rng = random.Random(20240803)
    for fam, n, q in [("SL", 2, 3), ("GL", 2, 3), ("Sp", 4, 2)]:
        ctx = make_ctx(fam, n, q)
        for _ in range(40):
            lam = chamber(
                tuple(rng.randint(-2 * q, 2 * q) for _ in range(ctx.rd.rank)), ctx.rd.walls
            )
            flam = ctx.frob.f_apply(lam)
            assert normal_form(ctx, R(lam)) == normal_form(ctx, R(flam))


def test_twisted_gl2_unitary_form():
    # tau = -swap fixes the simple root; the twisted count is q(q+1)
    ctx = make_ctx("GL", 2, 3, tau=[[0, -1], [-1, 0]])
    assert rank(ctx) == 12
    assert class_count(ctx.rd, ctx.frob) == 12
    assert reducedness_certificate(ctx)
    assert trace_form(ctx, ctx.unit()) == 1
    for i in range(rank(ctx)):
        trace_form(ctx, BElement({i: 1}, ctx.ctx_id))  # integrality asserted inside
    rng = random.Random(5)
    for _ in range(20):
        lam = chamber((rng.randint(-6, 6), rng.randint(-6, 6)), ctx.rd.walls)
        assert normal_form(ctx, R(lam)) == normal_form(ctx, R(ctx.frob.f_apply(lam)))


def test_structure_constants_sl2():
    ctx = make_ctx("SL", 2, 3)
    t = structure_constants(ctx)
    n = rank(ctx)
    for i in range(n):
        for j in range(n):
            assert t[i][j] == t[j][i]
        # unit row: multiplication by the unit is the identity
        assert t[0][i] == [1 if k == i else 0 for k in range(n)]
    with pytest.raises(LimitExceeded):
        structure_constants(ctx, limit=2)


def test_structure_constants_match_evaluation():
    ctx = make_ctx("GL", 2, 2)
    t = structure_constants(ctx)
    pts = ctx.points()
    n = rank(ctx)
    evals = [[evaluate(ctx.cache, R(lam), pt) for pt in pts] for lam in ctx.basis]
    for i in range(n):
        for j in range(n):
            for p_ in range(len(pts)):
                lhs = evals[i][p_] * evals[j][p_] % pts[p_].ell
                rhs = sum(t[i][j][k] * evals[k][p_] for k in range(n)) % pts[p_].ell
                assert lhs == rhs


def test_trace_form_values():
    ctx = make_ctx("SL", 2, 3)
    assert trace_form(ctx, ctx.unit()) == 1
    assert trace_form(ctx, normal_form(ctx, R((1,)))) == 0
    gl = make_ctx("GL", 2, 3)
    assert trace_form(gl, gl.unit()) == 1
    for i in range(rank(gl)):
        trace_form(gl, BElement({i: 1}, gl.ctx_id))  # integrality asserted inside


def test_gram_discriminants_p_power():
    for fam, n, q in [("GL", 2, 2), ("GL", 2, 3), ("SL", 2, 2), ("SL", 2, 3), ("SL", 2, 5), ("SL", 3, 2)]:
        ctx = make_ctx(fam, n, q)
        disc = gram_discriminant(ctx)
        assert is_plus_minus_p_power(disc, ctx.frob.p), (fam, n, q, disc)


def test_gram_sl2_q3_value():
    # hand computation: gram = [[1,0,1],[0,3,0],[1,0,4]], det = 9
    ctx = make_ctx("SL", 2, 3)
    assert gram_discriminant(ctx) == 9


def all_sector_traces(ctx, elements):
    """The trace of each element by its definition: the characters of the
    orbits in X of its lift that are trivial on each twisted fixed torus,
    counted in every sector, each with its own SNF, and averaged over W."""
    one = IntMatrix.identity(ctx.rd.rank)
    weyl = reference_weyl_group(ctx.rd, 10 ** 6)
    sectors = []
    for w in weyl:
        d, u, _ = snf(ctx.frob.f_matrix * w - one)
        sectors.append((u, [d[k, k] for k in range(ctx.rd.rank)]))
    out = []
    for x in elements:
        total = 0
        for lam, c in ctx.lift(x).coeffs.items():
            for u, diag in sectors:
                for mu in ctx.cache.orbit(lam):
                    if all(y % d == 0 for y, d in zip(u.apply(mu), diag)):
                        total += c
        assert total % len(weyl) == 0
        out.append(total // len(weyl))
    return out


@pytest.mark.parametrize("fam,n,q,tau", [
    ("GL", 2, 3, None),
    ("Sp", 4, 2, None),
    ("SL", 3, 2, None),
    ("GL", 2, 3, [[0, -1], [-1, 0]]),
])
def test_gram_matrix_matches_pairwise_trace(fam, n, q, tau):
    # reference: the n^2 definition G[i][j] = tr(b_i * b_j), each trace the
    # all-sector count of the product's lift, not a linear read of the basis
    # traces
    ctx = make_ctx(fam, n, q, tau=tau)
    nb = len(ctx.basis)
    b = [BElement({i: 1}, ctx.ctx_id) for i in range(nb)]
    ref = all_sector_traces(ctx, [multiply_b(ctx, b[i], b[j]) for i in range(nb) for j in range(nb)])
    assert [list(row) for row in gram_matrix(ctx).entries] == [ref[i * nb:(i + 1) * nb]
                                                               for i in range(nb)]


@pytest.mark.parametrize("fam,n,q,tau", [
    ("GL", 3, 3, None),
    ("Sp", 4, 3, None),
    ("SL", 3, 2, [[0, 1], [1, 0]]),
    ("GL", 2, 3, [[0, -1], [-1, 0]]),
    ("SO", 4, 3, None),
    ("SO", 6, 2, None),
])
def test_trace_form_matches_all_sector_definition(fam, n, q, tau):
    # reference: all_sector_traces, against the library's one sweep of class
    # representatives weighted by their class sizes on the ring's orbits in
    # (b, c); SO runs in its cover
    ctx = make_ctx(fam, n, q, strategy=SO_EVEN if fam == "SO" else GENERIC_SC, tau=tau)
    basis = [BElement({i: 1}, ctx.ctx_id) for i in range(len(ctx.basis))]
    assert [trace_form(ctx, x) for x in basis] == all_sector_traces(ctx, basis)


def test_torus_gram_unit_discriminant():
    ctx = make_ctx("Torus", 1, 4)
    disc = gram_discriminant(ctx)
    assert disc in (1, -1)  # group algebra of Z/3: p-part trivial


def test_reducedness_generic():
    for fam, n, q in [("SL", 2, 3), ("GL", 2, 3), ("Torus", 1, 4), ("Sp", 4, 2)]:
        assert reducedness_certificate(make_ctx(fam, n, q))


# -- the even orthogonal strategy -------------------------------------------


def test_so_box_sizes_match_published_formula():
    for n, q in [(4, 2), (4, 3), (5, 2)]:
        assert len(so_even_basis_weights(n, q)) == so_even_claimed_rank(n, q)


def test_so8_box_vs_true_point_count():
    """The published box has 20 elements but the scheme has q^n = 16 points;
    the evaluation matrix consequently has rank 16 and the certificate fails.
    This mismatch is intrinsic to the published data, not to this code."""
    ctx = make_ctx("SO", 8, 2, strategy=SO_EVEN)
    assert rank(ctx) == 20
    assert class_count(ctx.rd, ctx.frob) == 16
    assert len(ctx.points()) == 16
    r, nb, np_ = evaluation_rank(ctx)
    assert (r, nb, np_) == (16, 20, 16)
    assert reducedness_certificate(ctx) is False


def test_so8_normal_form_via_cover():
    ctx = make_ctx("SO", 8, 2, strategy=SO_EVEN)
    # F-invariance through the cover solve
    for lam in [(3, 2, 1, 0), (2, 2, 1, -1), (4, 2, 2, 0)]:
        a = normal_form(ctx, R(lam))
        b = normal_form(ctx, R(tuple(2 * x for x in lam)))
        assert a == b
    # normal forms are idempotent on basis elements of the box
    for i in (0, 5, 17):
        lam = ctx.basis[i]
        nf = normal_form(ctx, R(lam))
        assert normal_form(ctx, ctx.lift(nf)) == nf
    # a middle-band weight that the published reduction sketch cannot touch
    mid = normal_form(ctx, R((2, 2, 2, -1)))
    assert mid.coeffs  # well-defined canonical coordinates
    # evaluation consistency of the cover-based product
    x = normal_form(ctx, R((1, 1, 1, -1)))
    y = normal_form(ctx, R((1, 0, 0, 0)))
    prod = multiply_b(ctx, x, y)
    for pt in ctx.points():
        lhs = evaluate(ctx.cache, ctx.lift(x), pt) * evaluate(ctx.cache, ctx.lift(y), pt) % pt.ell
        assert lhs == evaluate(ctx.cache, ctx.lift(prod), pt)


# -- SOEven on the GenericSC route ---------------------------------------------
# SOEven products and normal forms run in the cover's fundamental-weight
# coordinates.  The reference is the former route: the product of the basis
# lifts formed in the SO datum itself, then reduced.


def reference_so_product(ctx, x, y):
    return normal_form(ctx, multiply(ctx.cache, ctx.lift(x), ctx.lift(y)))


def test_so_even_products_match_the_so_datum_product():
    for n, q in [(4, 2), (4, 3), (6, 2)]:
        ctx = make_ctx("SO", n, q, strategy=SO_EVEN)
        basis = [BElement({i: 1}, ctx.ctx_id) for i in range(rank(ctx))]
        for x, y in itertools.product(basis, repeat=2):
            assert multiply_b(ctx, x, y) == reference_so_product(ctx, x, y), (n, q, x, y)
    ctx = make_ctx("SO", 8, 2, strategy=SO_EVEN)
    rng = random.Random(3)
    for _ in range(40):
        x, y = (
            BElement({rng.randrange(rank(ctx)): rng.choice((-2, -1, 1, 3)) for _ in range(2)},
                     ctx.ctx_id)
            for _ in range(2)
        )
        assert multiply_b(ctx, x, y) == reference_so_product(ctx, x, y), (x, y)


@pytest.mark.parametrize("n,q", [(4, 3), (6, 2), (8, 2), (4, 5), (10, 2)])
def test_so_even_products_and_normal_forms_match_evaluation(n, q):
    # the independent oracle for the SOEven structure constants, which verify
    # checks against evaluation only on GenericSC: every basis product and
    # the normal forms of random dominant weights, evaluated at every point
    ctx = make_ctx("SO", n, q, strategy=SO_EVEN)
    t = structure_constants(ctx)
    pts = ctx.points()
    ell = pts[0].ell
    size = rank(ctx)
    evals = [[evaluate(ctx.cache, R(lam), pt) for pt in pts] for lam in ctx.basis]
    for i, j in itertools.product(range(size), repeat=2):
        for p_ in range(len(pts)):
            lhs = evals[i][p_] * evals[j][p_] % ell
            assert lhs == sum(t[i][j][k] * evals[k][p_] for k in range(size)) % ell, (i, j, p_)
    rng = random.Random(f"so{n}q{q}")
    for _ in range(20):
        lam = chamber(tuple(rng.randint(-2 * q, 2 * q) for _ in range(ctx.rd.rank)), ctx.rd.walls)
        nf = normal_form(ctx, R(lam))
        for p_, pt in enumerate(pts):
            rhs = sum(c * evals[k][p_] for k, c in nf.coeffs.items()) % ell
            assert evaluate(ctx.cache, R(lam), pt) == rhs, (lam, p_)


def test_so_even_products_leave_the_so_orbit_cache_empty():
    # every orbit sum of the ring arithmetic (evaluations, trace form,
    # products) is built in the ring's (b, c), on both strategies: the orbit
    # cache in the coordinates of X stays empty
    for ctx in (make_ctx("SO", 4, 3, strategy=SO_EVEN), make_ctx("GL", 3, 3),
                make_ctx("Sp", 4, 3), unitary_gl2(3)):
        evaluation_rank(ctx)
        for i in range(rank(ctx)):
            trace_form(ctx, BElement({i: 1}, ctx.ctx_id))
        structure_constants(ctx)
        assert ctx.cache._orbits == {}, ctx.rd.label


def evaluation_contexts():
    yield "GL3q3", make_ctx("GL", 3, 3)
    yield "Sp4q3", make_ctx("Sp", 4, 3)
    yield "unitary-GL2q3", unitary_gl2(3)
    for n, q in [(4, 3), (6, 3), (8, 2)]:
        yield f"SO{n}q{q}", make_ctx("SO", n, q, strategy=SO_EVEN)


def test_evaluations_match_the_x_orbit_reference():
    # the evaluation matrix reads the ring's orbits in (b, c) and each point
    # mapped by the transpose of to_x; the reference evaluates the orbit sum
    # of each basis weight in X, on an orbit cache of its own
    for label, ctx in evaluation_contexts():
        cache = OrbitCache(ctx.rd)
        pts = ctx.points()
        ref = [[evaluate(cache, R(lam), pt) for pt in pts] for lam in ctx.basis]
        assert ctx.evaluations() == ref, label


def test_so_even_box_in_cover_coordinates():
    for n, q in [(4, 3), (8, 2)]:
        ctx = make_ctx("SO", n, q, strategy=SO_EVEN)
        cover = so_even_cover_ctx(n, q)
        for i, lam in enumerate(ctx.basis):
            assert ctx._wbasis[i] == cover._to_w.apply(lam + (0,)), (n, q, i)


def test_so_even_cover_has_the_datum_cartan_matrix():
    # the roots' extra coordinate is 0, so the last coroot's -1 pairs to 0:
    # the cover's Weyl group, read from its Cartan matrix, is the datum's
    for n in (4, 6, 8, 10):
        ctx = make_ctx("SO", n, 2, strategy=SO_EVEN)
        assert so_even_cover_ctx(n, 2).rd.cartan == ctx.rd.cartan, n
        assert ctx._wcache.rd.cartan == ctx.rd.cartan, n


def central_rep_cases():
    for n in (2, 3):
        for q in (2, 3, 5):
            yield f"GL{n}q{q}", make_ctx("GL", n, q)
    yield "unitary-GL2q3", unitary_gl2(3)
    for size, q in [(4, 3), (6, 3), (8, 2)]:
        yield f"SO{size}q{q}-cover", so_even_cover_ctx(size, q)


def test_central_reps_map_to_their_box_digits():
    # each representative is the one preimage u^-1 * box of its box vector,
    # in itertools.product order; on the unitary datum u = -1, so the
    # representatives are negative and differ from their digits
    seen = {}
    for name, ctx in central_rep_cases():
        form = ctx._central
        boxes = list(itertools.product(*[range(d) for d in form.diag]))
        assert [form.u.apply(rep) for rep in ctx._central_reps] == boxes, name
        assert [ctx._central_rep_index(rep) for rep in ctx._central_reps] == list(range(len(boxes)))
        seen[name] = ctx._central_reps
    assert seen["unitary-GL2q3"] == [(0,), (-1,), (-2,), (-3,)]


SO_RING_CASES = [(4, 3), (6, 2), (8, 2), (4, 5)]


def test_so_even_context_is_its_cover_ring():
    # an SOEven context reduces on the ring of so_even_cover itself: the
    # reduction partners, central representatives and Cartan matrix of the
    # GenericSC context on the cover, with to_w and to_x cut down along
    # x -> (x, 0); the evaluation matrix and the traces need no change of basis
    for size, q in SO_RING_CASES:
        ctx = make_ctx("SO", size, q, strategy=SO_EVEN)
        cover = so_even_cover_ctx(size, q)
        n = ctx.rd.rank
        assert ctx._steps == cover._steps, (size, q)
        assert ctx._central_reps == cover._central_reps, (size, q)
        assert ctx._wcache.rd.cartan == cover._wcache.rd.cartan, (size, q)
        ident = IntMatrix.identity(n + 1).entries
        for x in ident[:n]:
            assert ctx._to_w.apply(x[:n]) == cover._to_w.apply(x), (size, q, x)
        for w in ident:
            assert ctx._to_x.apply(w) == cover._to_x.apply(w)[:n], (size, q, w)
        evaluation_rank(ctx)
        basis_traces(ctx)
        assert ctx._cover is None, (size, q)
        normal_form(ctx, R(ctx.basis[-1]))
        assert ctx._cover is not None, (size, q)


def test_so_even_suite_builds_one_context(monkeypatch):
    # SO(4) q=3: one Weyl closure and one context id for the whole suite
    calls = []
    real = balgebra.weyl_group

    def counted(rd):
        calls.append(rd.label)
        return real(rd)

    patch_everywhere(monkeypatch, real, counted)
    monkeypatch.setattr(BContext, "_next_id", itertools.count())
    ctx = make_ctx("SO", 4, 3, strategy=SO_EVEN)
    verification.run_suite(ctx, seed=1)
    assert ctx._cover is not None
    assert len(calls) == 1
    assert next(BContext._next_id) == 1


# -- weight-keyed reference reduction ------------------------------------------
# The library reduces in the coordinates (b, c) of X = sum Z w_i + X0, memoizes
# each reduction under the canonical weight (b, 0) and moves the central part
# c as an index shift.  The reference is the former routine in the
# coordinates of X, with its own memo of coefficient dicts and shorter error
# messages: every weight, central translates included, is reduced from
# scratch.  A weight in the box is the basis weight with the same pairings
# whose difference from it lies in (F - id) X0.


def reference_reduce(ctx, lam, memo):
    lam = tuple(lam)
    if lam in memo:
        return memo[lam]
    rd, frob = ctx.rd, ctx.frob
    lifts = rd.fundamental_weight_lifts()
    f0 = IntMatrix(list(zip(*[
        tuple(x - y for x, y in zip(frob.f_apply(z), z)) for z in rd.central_lattice()
    ])))
    replacements = {}
    stack = [lam]
    while stack:
        cur = stack.pop()
        if cur in memo:
            continue
        b = rd.pairings(cur)
        if any(x < 0 for x in b):
            raise NotDominant(str(cur))
        alpha = next((i for i, x in enumerate(b) if x >= frob.q), None)
        if alpha is None:
            hits = [
                i for i, mu in enumerate(ctx.basis)
                if rd.pairings(mu) == b
                and in_image(f0, tuple(x - y for x, y in zip(cur, mu)))[0]
            ]
            assert len(hits) == 1, (cur, hits)
            memo[cur] = {hits[0]: 1}
            continue
        replacement = replacements.get(cur)
        if replacement is None:
            w_a = lifts[alpha]
            lam_p = tuple(x - frob.q * y for x, y in zip(cur, w_a))
            if min(rd.pairings(lam_p), default=0) < 0:
                raise CrossCheckFailed(f"{lam_p} = {cur} - q*w_{alpha} is not dominant")
            q_w = tuple(frob.q * y for y in w_a)
            tau_w = frob.tau.apply(w_a)
            p1 = multiply(ctx.cache, R(lam_p), R(q_w))
            if p1.coeffs.get(cur) != 1:
                raise NonTermination(f"leading coefficient of r({cur}) is {p1.coeffs.get(cur)}")
            p2 = multiply(ctx.cache, R(lam_p), R(tau_w))
            replacement = combine(((p2.coeffs, 1), (p1.coeffs, -1), ({cur: 1}, 1)))
            h_cur = ctx.cache.height(cur)
            for term in replacement:
                if not ctx.cache.height(term) < h_cur:
                    raise NonTermination(f"height failed to decrease: {term} vs {cur}")
            replacements[cur] = replacement
        pending = [t for t in replacement if t not in memo]
        if pending:
            stack.append(cur)
            stack.extend(pending)
            continue
        memo[cur] = combine((memo[t], c) for t, c in replacement.items())
    return memo[lam]


def differential_contexts():
    for n in (2, 3, 4):
        for q in (2, 3, 4):
            yield f"GL{n}q{q}", make_ctx("GL", n, q)
    yield "unitary-GL2q3", unitary_gl2(3)
    yield "SO4q3-cover", so_even_cover_ctx(4, 3)
    yield "SO8q2-cover", so_even_cover_ctx(8, 2)


def test_reduction_matches_weight_keyed_reference():
    rng = random.Random(7)
    for label, ctx in differential_contexts():
        rd = ctx.rd
        q, rank_, m = ctx.frob.q, rd.rank, rd.nroots
        lifts = rd.fundamental_weight_lifts()
        central = rd.central_lattice()
        assert central, label
        ref_memo = {}
        shifted = 0
        for _ in range(12):
            lam = chamber([rng.randint(-2 * q, 2 * q) for _ in range(rank_)], rd.walls)
            z = [0] * rank_
            for v in central:
                c = rng.randint(-3, 3)
                z = [a + c * b for a, b in zip(z, v)]
            for mu in (lam, tuple(a + b for a, b in zip(lam, z))):
                got = normal_form(ctx, R(mu))
                assert got.coeffs == reference_reduce(ctx, mu, ref_memo), (label, mu)
                b = rd.pairings(mu)
                shifted += mu != tuple(sum(c * w[j] for c, w in zip(b, lifts)) for j in range(rank_))
        assert shifted, label
        for key in ctx.memo:
            assert not any(key[m:]), (label, key)


FUNDAMENTAL_COORDINATE_CASES = [
    ("GL", 2, 3), ("GL", 3, 2), ("GL", 4, 2), ("Sp", 4, 3), ("Sp", 6, 2), ("SL", 3, 2),
    ("Torus", 2, 3),
]


def fundamental_coordinate_contexts():
    for fam, n, q in FUNDAMENTAL_COORDINATE_CASES:
        yield f"{fam}{n}q{q}", make_ctx(fam, n, q)
    yield "unitary-GL2q5", unitary_gl2(5)
    yield "SO4q3-cover", so_even_cover_ctx(4, 3)
    yield "SO8q2-cover", so_even_cover_ctx(8, 2)


def test_fundamental_weight_coordinates():
    # to_w reads a weight's pairings off its first m coordinates, the private
    # datum is the same datum, and the basis is the box times the central
    # representatives in those coordinates
    for label, ctx in fundamental_coordinate_contexts():
        rd, m, q = ctx.rd, ctx.rd.nroots, ctx.frob.q
        to_w = ctx._to_w
        assert to_w.entries[:m] == rd.simple_coroots, label
        w_rd = ctx._wcache.rd
        assert w_rd.cartan == rd.cartan, label
        assert len(weyl_group(w_rd)) == len(ctx.weyl), label
        box = [b + c for b in itertools.product(range(q), repeat=m) for c in ctx._central_reps]
        assert [to_w.apply(lam) for lam in ctx.basis] == box, label
        assert len(set(box)) == len(box) == len(ctx.basis), label


def test_normal_form_names_the_non_dominant_weight():
    ctx = make_ctx("GL", 2, 3)
    with pytest.raises(NotDominant, match=re.escape("(0, 1)")):
        normal_form(ctx, R((0, 1)))
    # SOEven reduces in its cover, but names the weight of its own datum
    ctx = make_ctx("SO", 4, 3, strategy=SO_EVEN)
    with pytest.raises(NotDominant, match=r"^\(0, -1\)$"):
        normal_form(ctx, R((0, -1)))
