"""Batched property checks for a single configuration, shared by the command
line front end and the test suite.

Each check returns a dict entry {"name", "passed", "details"}; a suite is the
list of entries plus an overall flag.  A mismatch between independently
computed numbers (basis size vs class count vs point count) is the most
important signal the tool can emit and is never downgraded to a warning.
"""

from __future__ import annotations

import random
from operator import mul

from .balgebra import (
    GENERIC_SC,
    basis_traces,
    evaluation_rank,
    gram_discriminant,
    is_plus_minus_p_power,
    normal_form,
    rank,
    structure_constants,
    trace_form,
)
from .intlinalg import IntMatrix
from .oracles import evaluate
from .orbitring import InvariantElement
from .rootdata import chamber, weyl_walk


def random_dominant_weight(cache, rng, bound):
    """Dominant weight in the W-orbit of a random weight with coordinates
    bounded by ``bound``."""
    return chamber([rng.randint(-bound, bound) for _ in range(cache.rd.rank)], cache.rd.walls)


def check_rank_identities(ctx):
    cc = ctx.class_count()
    pts = ctx.points()
    ok = rank(ctx) == cc == len(pts)
    return {
        "name": "rank_vs_class_count_vs_points",
        "passed": ok,
        "details": {
            "basis_size": rank(ctx),
            "class_count": cc,
            "point_count": len(pts),
            "sources": ["basis", "formula", "point_count"],
        },
    }


def check_reducedness(ctx):
    r, nb, np_ = evaluation_rank(ctx)
    return {
        "name": "reducedness_certificate",
        "passed": r == nb == np_,
        "details": {"evaluation_rank": r, "basis_size": nb, "point_count": np_},
    }


def check_f_invariance(ctx, rng, samples=100):
    frob = ctx.frob
    for _ in range(samples):
        lam = random_dominant_weight(ctx.cache, rng, 2 * frob.q)
        flam = frob.f_apply(lam)
        a = normal_form(ctx, InvariantElement.r(lam))
        b = normal_form(ctx, InvariantElement.r(flam))
        if a != b:
            return {
                "name": "f_invariance",
                "passed": False,
                "details": {"weight": list(lam)},
            }
    return {"name": "f_invariance", "passed": True, "details": {"samples": samples}}


def check_height_descent(cache, weyl, rng, samples=1000):
    """ht(w*lam) < ht(lam) for dominant lam with nonzero derived part, w drawn
    from the matrices of W in closure order."""
    ident = IntMatrix.identity(cache.rd.rank).entries
    elems = [IntMatrix.of_rows(m) for m in weyl_walk(ident, cache.rd.simple, weyl)]
    tested = 0
    for _ in range(samples):
        lam = random_dominant_weight(cache, rng, 6)
        h = cache.height(lam)
        if h == 0:
            continue
        if not h > 0:
            return {"name": "height_descent", "passed": False, "details": {"weight": list(lam), "why": "nonpositive height"}}
        w = rng.choice(elems)
        img = w.apply(lam)
        if img == lam:
            continue
        tested += 1
        if not cache.height(img) < h:
            return {"name": "height_descent", "passed": False, "details": {"weight": list(lam)}}
    return {"name": "height_descent", "passed": True, "details": {"tested": tested}}


def check_trace_integrality(ctx):
    values = basis_traces(ctx)
    unit_val = trace_form(ctx, ctx.unit())
    return {
        "name": "trace_form_integral_and_unit",
        "passed": unit_val == 1,
        "details": {"unit_trace": unit_val, "basis_traces": values},
    }


def check_gram_p_power(ctx):
    disc = gram_discriminant(ctx)
    ok = is_plus_minus_p_power(disc, ctx.frob.p)
    return {
        "name": "gram_discriminant_p_power",
        "passed": ok,
        "details": {"discriminant": disc, "p": ctx.frob.p},
    }


def check_evaluation_homomorphism(ctx):
    """eval(x*y) = eval(x)*eval(y) at every point for all basis pairs."""
    tensor = structure_constants(ctx)
    pts = ctx.points()
    n = len(ctx.basis)
    cols = list(zip(*ctx.evaluations()))
    ell = pts[0].ell
    for i in range(n):
        for j in range(i, n):
            for col in cols:
                if col[i] * col[j] % ell != sum(map(mul, tensor[i][j], col)) % ell:
                    return {
                        "name": "evaluation_homomorphism",
                        "passed": False,
                        "details": {"pair": [i, j]},
                    }
    return {"name": "evaluation_homomorphism", "passed": True, "details": {"pairs": n * (n + 1) // 2}}


def _looks_like_sl2(rd):
    """The SL(2) datum as build_standard makes it: X = Z, alpha = 2, alpha^vee = 1."""
    return rd.simple_roots == ((2,),) and rd.simple_coroots == ((1,),)


def check_sl2_regression(ctx):
    """normal_form(r(4*w)) = 2*r(0) on the SL(2) datum at q = 3, confirmed by
    evaluation at every fixed point."""
    nf = normal_form(ctx, InvariantElement.r((4,)))
    expected = normal_form(ctx, InvariantElement.r((0,))).scale(2)
    ok = nf == expected
    pts = ctx.points()
    for pt in pts:
        lhs = evaluate(ctx.cache, InvariantElement.r((4,)), pt)
        rhs = 2 * evaluate(ctx.cache, InvariantElement.one(1), pt) % pt.ell
        ok = ok and lhs == rhs
    return {"name": "sl2_q3_regression", "passed": ok, "details": {"normal_form": str(nf)}}


def run_suite(ctx, seed=20240801, fast=False):
    rng = random.Random(seed)
    checks = [check_rank_identities(ctx), check_reducedness(ctx)]
    n_f = 20 if fast else 100
    n_h = 200 if fast else 1000
    checks.append(check_height_descent(ctx.cache, ctx.weyl, rng, samples=n_h))
    checks.append(check_f_invariance(ctx, rng, samples=n_f))
    checks.append(check_trace_integrality(ctx))
    if ctx.strategy == GENERIC_SC and len(ctx.basis) <= 24:
        checks.append(check_gram_p_power(ctx))
        checks.append(check_evaluation_homomorphism(ctx))
    if _looks_like_sl2(ctx.rd) and ctx.frob.q == 3:
        checks.append(check_sl2_regression(ctx))
    passed = all(c["passed"] for c in checks)
    return {"passed": passed, "checks": checks}
