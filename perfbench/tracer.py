"""Run one dualalg CLI command with spans recorded at its layer boundaries.

Usage: python3 perfbench/tracer.py SUMMARY.json CLI-ARG...

Before `dualalg.cli.main` is called, every binding of each traced function
across the `dualalg.*` modules is replaced by a wrapper (this catches the
`from .x import f` copies), and `OrbitCache.orbit`/`height` and
`BContext.cover` are patched on their classes.  The per-call hot helpers
`RootDatum.pair`/`is_dominant` are not wrapped.  Spans are kept in memory;
when the command ends their per-name totals and the counts taken at the same
boundaries are written to SUMMARY.json.  The command's stdout and exit code
are the CLI's own.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

import dualalg
import dualalg.cli
from dualalg import balgebra, intlinalg, oracles, orbitring, rootdata, verification

TRACED = [
    (rootdata, "weyl_group"),
    (intlinalg, "snf"),
    (intlinalg, "det"),
    (intlinalg, "in_image"),
    (intlinalg, "kernel_basis"),
    (intlinalg, "reduce_mod_lattice"),
    (orbitring, "multiply"),
    (balgebra, "normal_form"),
    (balgebra, "trace_form"),
    (balgebra, "reducedness_certificate"),
    (balgebra, "evaluation_rank"),
    (balgebra, "gram_discriminant"),
    (balgebra, "structure_constants"),
    (oracles, "sector_divisors"),
    (oracles, "class_count"),
    (oracles, "enumerate_points"),
    (oracles, "evaluate"),
]

# run_suite's checks, traced as verification.<name without check_>
CHECKS = [
    "check_rank_identities",
    "check_reducedness",
    "check_height_descent",
    "check_f_invariance",
    "check_trace_integrality",
    "check_gram_p_power",
    "check_evaluation_homomorphism",
]


class Tracer:
    """Spans as parallel lists (name, start, end, parent, outermost)."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.outer = []
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.generic_contexts = {}

    def call(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.outer.append(not self.active[name])
        self.active[name] += 1
        self.stack.append(idx)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self.stack.pop()
            self.active[name] -= 1

    def wrap(self, name, fn, before=None, after=None):
        call = self.call

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            out = call(name, fn, args, kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def summary(self):
        """Per name: calls, self_s (duration minus child spans) and total_s
        (duration of spans with no enclosing span of the same name)."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(self.names[i], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.outer[i]:
                row["total_s"] += dur
        return out


def _rebind(fn, wrapper):
    """Replace every module-level binding that is `fn` in dualalg.*."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dualalg" or name.startswith("dualalg.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, wrapper)


def install(tracer):
    counts = tracer.counts
    orig_orbit = orbitring.OrbitCache.orbit

    def orbit_size_sum(cache, x):
        if isinstance(cache, rootdata.RootDatum):
            cache = orbitring.OrbitCache(cache)
        return sum(len(orig_orbit(cache, lam)) for lam in x.coeffs)

    def multiply_after(out, cache, a, b):
        if a.is_zero() or b.is_zero():
            return
        counts["orbitring.multiply.e_terms"] += orbit_size_sum(cache, a) * orbit_size_sum(cache, b)

    def normal_form_before(ctx, x):
        if ctx.strategy == balgebra.GENERIC_SC:
            tracer.generic_contexts[id(ctx)] = ctx
            counts["balgebra.memo.submitted"] += len(x.coeffs)
            counts["balgebra.memo.hits"] += sum(1 for lam in x.coeffs if lam in ctx.memo)

    def points_after(out, *args, **kwargs):
        counts["oracles.points"] += len(out)
        if out:
            counts["oracles.ell"] += out[0].ell

    def weyl_after(out, *args, **kwargs):
        counts["rootdata.weyl_order"] += len(out)

    hooks = {
        "multiply": {"after": multiply_after},
        "normal_form": {"before": normal_form_before},
        "enumerate_points": {"after": points_after},
        "weyl_group": {"after": weyl_after},
    }
    for mod, name in TRACED:
        fn = getattr(mod, name)
        layer = mod.__name__.rsplit(".", 1)[-1]
        _rebind(fn, tracer.wrap(f"{layer}.{name}", fn, **hooks.get(name, {})))
    for name in CHECKS:
        fn = getattr(verification, name)
        _rebind(fn, tracer.wrap("verification." + name[len("check_"):], fn))

    def orbit_before(cache, lam):
        counts["orbitring.orbit.misses"] += tuple(lam) not in cache._orbits

    orbitring.OrbitCache.orbit = tracer.wrap("orbitring.orbit", orig_orbit, before=orbit_before)
    orbitring.OrbitCache.height = tracer.wrap("orbitring.height", orbitring.OrbitCache.height)

    orig_cover = balgebra.BContext.cover

    def cover(ctx):
        if ctx._cover is not None:
            return orig_cover(ctx)
        return tracer.call("balgebra.cover.build", orig_cover, (ctx,), {})

    balgebra.BContext.cover = cover


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = tracer.call("cli.main", dualalg.cli.main, (argv,), {})
    finally:
        sys.stdout.flush()
        counts = tracer.counts
        counts["balgebra.memo_size"] = sum(len(c.memo) for c in tracer.generic_contexts.values())
        with open(summary_path, "w") as fh:
            json.dump({
                "dualalg_file": dualalg.__file__,
                "spans": tracer.summary(),
                "counts": dict(counts),
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
