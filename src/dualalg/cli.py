"""Command line front end.

Subcommands: rank, verify, oracle, points, structure, curtis.  Output is JSON
(CSV for matrix payloads on request) with a version field and a source tag on
every independently computed number.  Exit codes: 0 all checks pass, 2 a
mathematical cross-check failed (the most important signal this tool emits),
1 usage, argument or configuration error.  A math failure raised mid-computation
(NonIntegral, NonTermination, ReductionUnsolvable, CrossCheckFailed) also
exits 2 and prints {"error": {"type", "detail"}} on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .balgebra import (
    GENERIC_SC,
    SO_EVEN,
    _looks_like_so_even,
    build_context,
    so_even_claimed_rank,
    structure_constants,
)
from .curtis import (
    GL2,
    columns_in_parity_lattice,
    eside_parity_holds,
    homomorphism_check,
    nonsaturation_witness,
    phi_matrix,
    saturation_check,
)
from .errors import (
    CrossCheckFailed,
    DualalgError,
    NonIntegral,
    NonTermination,
    ReductionUnsolvable,
)
from .matrixgroups import MatrixGroupSpec, brute_force_ss_classes
from .oracles import class_count, enumerate_points
from .rootdata import FrobeniusData, build_standard, datum_from_json, prime_power_split
from .verification import check_rank_identities, run_suite

VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

# failures of the mathematics, never of the input: exit 2 like a mismatch
MATH_ERRORS = (NonIntegral, NonTermination, ReductionUnsolvable, CrossCheckFailed)


def _write(text, args):
    """``text`` and a newline to the --out file, or to stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(payload, args):
    _write(json.dumps(payload, indent=2, sort_keys=True), args)


def _emit_csv(rows, args):
    _write("\n".join(",".join(str(x) for x in row) for row in rows), args)


def _build_datum(args):
    if getattr(args, "datum_file", None):
        with open(args.datum_file) as fh:
            doc = json.load(fh)
        rd, tau = datum_from_json(doc)
    else:
        if not args.group:
            raise DualalgError("need --group or --datum-file")
        rd = build_standard(args.group, args.n)
        tau = None
    p, r = _resolve_q(args)
    frob = FrobeniusData(rd, p, r, tau)
    return rd, frob


def _resolve_q(args):
    q, p, r = args.q, getattr(args, "p", None), getattr(args, "r", None)
    if q is not None:
        ps, rs = prime_power_split(q)
        if p is not None and p != ps:
            raise DualalgError(f"--p {p} inconsistent with --q {q}")
        if r is not None and r != rs:
            raise DualalgError(f"--r {r} inconsistent with --q {q}")
        return ps, rs
    if p is None or r is None:
        raise DualalgError("need --q, or both --p and --r")
    return p, r


def _strategy_for(rd):
    return SO_EVEN if _looks_like_so_even(rd) else GENERIC_SC


def cmd_rank(args):
    rd, frob = _build_datum(args)
    strategy = _strategy_for(rd)
    ctx = build_context(rd, frob, strategy)
    check = check_rank_identities(ctx)
    counts = check["details"]
    payload = {
        "version": VERSION,
        "label": rd.label,
        "q": frob.q,
        "strategy": strategy,
        "rank": {"value": counts["basis_size"], "source": "basis"},
        "class_count": {"value": counts["class_count"], "source": "formula"},
        "point_count": {"value": counts["point_count"], "source": "point_count"},
        "weyl_order": len(ctx.weyl),
    }
    if strategy == SO_EVEN:
        payload["published_box_size"] = {
            "value": so_even_claimed_rank(rd.rank, frob.q),
            "source": "published_formula",
        }
    payload["consistent"] = check["passed"]
    _emit(payload, args)
    return EXIT_OK if check["passed"] else EXIT_MISMATCH


def cmd_verify(args):
    rd, frob = _build_datum(args)
    strategy = _strategy_for(rd)
    ctx = build_context(rd, frob, strategy)
    suite = run_suite(ctx, seed=args.seed, fast=args.fast)
    payload = {
        "version": VERSION,
        "label": rd.label,
        "q": frob.q,
        "strategy": strategy,
        "passed": suite["passed"],
        "checks": suite["checks"],
    }
    _emit(payload, args)
    return EXIT_OK if suite["passed"] else EXIT_MISMATCH


def cmd_oracle(args):
    spec = MatrixGroupSpec(args.group, args.n, args.q, cap=args.cap)
    count, histogram = brute_force_ss_classes(spec)
    rd = build_standard(args.group, args.n)
    frob = FrobeniusData(rd, spec.p, spec.r)
    cc = class_count(rd, frob)
    payload = {
        "version": VERSION,
        "group": f"{args.group}({args.n}, q={args.q})",
        "ss_classes": {"value": count, "source": "brute_force"},
        "class_count": {"value": cc, "source": "formula"},
        "order_histogram": {str(k): v for k, v in histogram.items()},
        "p_regular_equals_ss": True,
        "match": count == cc,
    }
    _emit(payload, args)
    return EXIT_OK if count == cc else EXIT_MISMATCH


def cmd_points(args):
    rd, frob = _build_datum(args)
    pts = enumerate_points(rd, frob, args.ell)
    payload = {
        "version": VERSION,
        "label": rd.label,
        "q": frob.q,
        "ell": pts[0].ell if pts else None,
        "count": {"value": len(pts), "source": "point_count"},
        "points": [list(pt.values) for pt in pts],
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_structure(args):
    rd, frob = _build_datum(args)
    strategy = _strategy_for(rd)
    ctx = build_context(rd, frob, strategy)
    tensor = structure_constants(ctx, limit=args.limit)
    n = len(ctx.basis)
    quads = []
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                c = tensor[i][j][k]
                if c:
                    quads.append((i, j, k, c))
    if args.format == "csv":
        _emit_csv([("i", "j", "k", "c")] + quads, args)
    else:
        payload = {
            "version": VERSION,
            "label": rd.label,
            "q": frob.q,
            "rank": n,
            "basis_weights": [list(w) for w in ctx.basis],
            "quadruples": [list(qd) for qd in quads],
        }
        _emit(payload, args)
    return EXIT_OK


def cmd_curtis(args):
    _resolve_q(args)
    q = args.q
    head = {"version": VERSION, "group": args.group, "q": q}
    if args.check == "saturation":
        sat = saturation_check(args.group, q)
        payload = {**head, "saturated_over_Z": sat}
        if q % 2 == 1 and args.group == GL2:
            _, cert = nonsaturation_witness(q)
            payload["nonsat_witness_over_Z_1_over_p"] = (
                cert["half_integral_coeffs"]
                and cert["denominator_coprime_to_p"]
                and cert["image_integral"]
            )
        _emit(payload, args)
        return EXIT_OK if sat else EXIT_MISMATCH
    if args.check == "homomorphism":
        ok = homomorphism_check(args.group, q)
        _emit({**head, "homomorphism": ok}, args)
        return EXIT_OK if ok else EXIT_MISMATCH
    if args.check == "eside":
        if args.group != GL2:
            raise DualalgError(f"--check eside: the E-side tables are GL2 only, not {args.group}")
        ok = eside_parity_holds(q)
        _emit({**head, "eside_parity": ok}, args)
        return EXIT_OK if ok else EXIT_MISMATCH
    m1, ms = phi_matrix(args.group, q)
    if args.format == "csv":
        rows = [list(r) for r in m1.entries] + [[]] + [list(r) for r in ms.entries]
        _emit_csv(rows, args)
    else:
        _emit({
            **head,
            "split_matrix": [list(r) for r in m1.entries],
            "twisted_matrix": [list(r) for r in ms.entries],
            "columns_in_parity_lattice": columns_in_parity_lattice(args.group, q, m1, ms),
        }, args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises argument errors as DualalgError, so they exit 1 like every
    other usage error; exit 2 stays reserved for mathematical failures."""

    def error(self, message):
        raise DualalgError(f"{self.prog}: {message}")


def make_parser():
    ap = _Parser(
        prog="dualalg",
        description="Exact computations in fixed-point rings of dual tori modulo Weyl groups",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_datum_opts(sp):
        sp.add_argument("--group", choices=["Torus", "GL", "SL", "PGL", "Sp", "SO"],
                        required=False)
        sp.add_argument("--n", type=int, default=None,
                        help="family parameter (matrix size for GL/SL/PGL/Sp/SO)")
        sp.add_argument("--datum-file", default=None, help="JSON root datum file")
        sp.add_argument("--q", type=int, default=None)
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--r", type=int, default=None)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("rank", help="basis size plus the two independent counts")
    add_datum_opts(sp)
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("verify", help="full property suite for one configuration")
    add_datum_opts(sp)
    sp.add_argument("--seed", type=int, default=20240801)
    sp.add_argument("--fast", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force semisimple class count")
    sp.add_argument("--group", choices=["GL", "SL"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--cap", type=int, default=10 ** 6)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("points", help="fixed points with modular coordinates")
    add_datum_opts(sp)
    sp.add_argument("--ell", type=int, default=None)
    sp.set_defaults(func=cmd_points)

    sp = sub.add_parser("structure", help="structure constants of the basis")
    add_datum_opts(sp)
    sp.add_argument("--limit", type=int, default=64)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_structure)

    sp = sub.add_parser("curtis", help="transfer matrices and lattice checks")
    sp.add_argument("--group", choices=["GL2", "PGL2"], required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--check", choices=["saturation", "homomorphism", "eside"], default=None)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_curtis)

    return ap


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except MATH_ERRORS as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "detail": str(exc)}},
                         indent=2, sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except DualalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
