"""Batched property checks for a single configuration, shared by the command
line front end and the test suite.

Each check returns a dict entry {"name", "passed", "details"}; a suite is the
list of entries plus an overall flag.  A mismatch between independently
computed numbers (basis size vs class count vs point count) is the most
important signal the tool can emit and is never downgraded to a warning.
"""

from __future__ import annotations

import random

from .balgebra import (
    BElement,
    evaluation_rank,
    gram_discriminant,
    is_plus_minus_p_power,
    normal_form,
    rank,
    trace_form,
)
from .oracles import evaluate
from .orbitring import InvariantElement


def random_dominant_weight(rd, rng, bound):
    """Random dominant weight with coordinates bounded by ``bound``."""
    from .rootdata import dominant_representative

    lam = tuple(rng.randint(-bound, bound) for _ in range(rd.rank))
    dom, _ = dominant_representative(rd, lam)
    return dom


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


def check_f_invariance(ctx, rng, samples=100, bound=None):
    rd, frob = ctx.rd, ctx.frob
    if bound is None:
        bound = 2 * frob.q
    for _ in range(samples):
        lam = random_dominant_weight(rd, rng, bound)
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


def check_height_descent(cache, weyl, rng, samples=1000, bound=6):
    """ht(w*lam) < ht(lam) for dominant lam with nonzero derived part."""
    rd = cache.rd
    tested = 0
    for _ in range(samples):
        lam = random_dominant_weight(rd, rng, bound)
        h = cache.height(lam)
        if h == 0:
            continue
        if not h > 0:
            return {"name": "height_descent", "passed": False, "details": {"weight": list(lam), "why": "nonpositive height"}}
        w = rng.choice(weyl)
        img = w.apply(lam)
        if img == lam:
            continue
        tested += 1
        if not cache.height(img) < h:
            return {"name": "height_descent", "passed": False, "details": {"weight": list(lam)}}
    return {"name": "height_descent", "passed": True, "details": {"tested": tested}}


def check_trace_integrality(ctx):
    values = []
    for i in range(len(ctx.basis)):
        values.append(trace_form(ctx, BElement({i: 1}, ctx.ctx_id)))
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


def check_evaluation_homomorphism(ctx, limit=64):
    """eval(x*y) = eval(x)*eval(y) at every point for all basis pairs."""
    tensor = ctx.structure_constants(limit=limit)
    pts = ctx.points()
    n = len(ctx.basis)
    evals = ctx.evaluations()
    ell = pts[0].ell
    for i in range(n):
        for j in range(i, n):
            for pidx, pt in enumerate(pts):
                lhs = evals[i][pidx] * evals[j][pidx] % ell
                rhs = sum(tensor[i][j][k] * evals[k][pidx] for k in range(n)) % ell
                if lhs != rhs:
                    return {
                        "name": "evaluation_homomorphism",
                        "passed": False,
                        "details": {"pair": [i, j]},
                    }
    return {"name": "evaluation_homomorphism", "passed": True, "details": {"pairs": n * (n + 1) // 2}}


def check_sl2_regression(ctx):
    """normal_form(r(4*w)) = 2*r(0) in the rank-one case at q = 3, confirmed by
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
    if ctx.strategy == "GenericSC" and len(ctx.basis) <= 24:
        checks.append(check_gram_p_power(ctx))
        checks.append(check_evaluation_homomorphism(ctx))
    if ctx.rd.label.startswith("SL(2)") and ctx.frob.q == 3:
        checks.append(check_sl2_regression(ctx))
    passed = all(c["passed"] for c in checks)
    return {"passed": passed, "checks": checks}
