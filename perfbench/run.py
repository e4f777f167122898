"""dualalg benchmark: closed-loop CLI workloads, checked outputs, and an
outside-in per-layer trace.

Usage (from the root of a dualalg checkout):

    python3 perfbench/run.py --workload {structure,count,verify} --seed N \
        --seconds S --trace {0,1}

One client runs the workload's commands one after another, each in a fresh
`python -m dualalg.cli` process on this checkout's `src/`, with a fixed
environment.  One untimed warm-up pass comes first, so `.pyc` compilation is
not measured.  The seed fixes the command order of every pass and the
`--seed` of each pass's `verify` commands, one drawn per pass so that a
run's median covers several inputs.  Every command's exit code and output
are checked against the values recorded in `workloads.py`.

--trace 0: passes run until --seconds are used, each followed by
    SETUP_PER_PASS runs of the set-up probe.  Prints run_s (median pass wall
    time), setup_s (median probe wall time) and peak_rss_mib (median over
    passes of the largest per-command peak RSS).
--trace 1: one untraced pass, then two passes through `tracer.py`, all on
    one verify seed.  Prints the per-layer metrics (span times averaged over
    the two traced passes), and fails the run if a traced output differs
    from the untraced one or a count differs between the two traced passes.

The last line of stdout is the JSON result; a readable summary, including
fail_ratio, goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
# Set-up probes are short, so each pass is followed by more than one.
SETUP_PER_PASS = 2

# (span name, fields reported as <span>.<field>)
SPAN_METRICS = [
    ("rootdata.weyl_group", ("calls", "self_s")),
    ("intlinalg.snf", ("calls", "self_s")),
    ("intlinalg.det", ("calls", "self_s")),
    ("intlinalg.in_image", ("calls", "self_s")),
    ("intlinalg.kernel_basis", ("self_s",)),
    ("intlinalg.reduce_mod_lattice", ("self_s",)),
    ("orbitring.multiply", ("calls", "self_s", "total_s")),
    ("orbitring.orbit", ("calls", "self_s")),
    ("orbitring.height", ("calls", "self_s")),
    ("balgebra.normal_form", ("calls", "self_s")),
    ("balgebra.trace_form", ("self_s",)),
    ("balgebra.reducedness_certificate", ("self_s",)),
    ("balgebra.evaluation_rank", ("self_s",)),
    ("balgebra.gram_discriminant", ("self_s",)),
    ("balgebra.structure_constants", ("self_s",)),
    ("oracles.sector_divisors", ("calls", "self_s")),
    ("oracles.class_count", ("calls", "self_s")),
    ("oracles.enumerate_points", ("self_s",)),
    ("oracles.evaluate", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
]
CHECK_SPANS = [
    "rank_identities",
    "reducedness",
    "height_descent",
    "f_invariance",
    "trace_integrality",
    "gram_p_power",
    "evaluation_homomorphism",
]
COUNT_METRICS = [
    "rootdata.weyl_order",
    "orbitring.multiply.e_terms",
    "orbitring.orbit.misses",
    "balgebra.memo_size",
    "oracles.points",
    "oracles.ell",
]
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for span, fields in SPAN_METRICS:
        specs += [(f"{span}.{f}", UNITS[f], "lower") for f in fields]
    specs += [(f"verification.{c}.s", "s", "lower") for c in CHECK_SPANS]
    specs.append(("balgebra.cover.build_s", "s", "lower"))
    specs += [(c, "int" if c == "oracles.ell" else "count", "lower") for c in COUNT_METRICS]
    specs.append(("balgebra.memo_hit_ratio", "ratio", "higher"))
    specs.append(("oracles.sector_divisors.calls_per_cmd", "count", "lower"))
    for commands in WORKLOADS.values():
        specs += [(f"cli.{c.name}.wall_s", "s", "lower") for c in commands]
    specs.append(("cli.tracing_overhead", "ratio", "lower"))
    return specs


END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


class Fatal(Exception):
    """The benchmark cannot measure this tree; no result is printed."""


@dataclass
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mib: float
    summary: dict | None = None


def run_child(argv, root, env, tmpdir):
    """Run `python argv` to completion; peak RSS is this child's own."""
    with tempfile.TemporaryFile(dir=tmpdir) as out, tempfile.TemporaryFile(dir=tmpdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024)


def check_output(c, res):
    """None if the command behaved as recorded, else what differs."""
    if res.code != c.exit:
        tail = res.stderr.decode(errors="replace").strip()[-300:]
        return f"exit {res.code}, expected {c.exit}: {tail}"
    if c.sha256 is not None:
        got = hashlib.sha256(res.stdout).hexdigest()
        return None if got == c.sha256 else f"stdout sha256 {got}, expected {c.sha256}"
    try:
        doc = json.loads(res.stdout)
        got = {x["name"]: x["passed"] for x in doc["checks"]}
    except (ValueError, KeyError, TypeError):
        return "verify output is not the expected JSON"
    if got != dict(c.checks) or doc["passed"] != all(got.values()):
        return f"checks {got}, expected {dict(c.checks)}"
    return None


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.tmpdir = root / ".perfbench_out"
        self.tmpdir.mkdir(exist_ok=True)
        # Fixed child environment: no inherited DUALALG_WEYL_CAP or PYTHON* settings.
        self.env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(root / "src"),
            "PYTHONHASHSEED": "0",
        }
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check_source(self, path):
        src = (self.root / "src").resolve()
        if src not in Path(path).resolve().parents:
            raise Fatal(f"measured dualalg at {path}, outside {src}")

    def pass_seed(self):
        """A `verify --seed` drawn from the workload seed."""
        return self.rng.randrange(1 << 30)

    def run_pass(self, seed, traced=False, base=None):
        """One pass over the commands in seeded order: (wall_s, {name: Result}).

        Traced outputs must also equal those of the untraced pass `base`."""
        order = list(self.commands)
        self.rng.shuffle(order)
        results = {}
        start = time.perf_counter()
        for c in order:
            if traced:
                summary = self.tmpdir / f"{c.name}.trace.json"
                argv = [str(HERE / "tracer.py"), str(summary), *c.argv(seed)]
            else:
                argv = ["-m", "dualalg.cli", *c.argv(seed)]
            res = run_child(argv, self.root, self.env, self.tmpdir)
            if traced and summary.exists():
                res.summary = json.loads(summary.read_text())
                summary.unlink()
                self.check_source(res.summary["dualalg_file"])
            results[c.name] = res
        wall = time.perf_counter() - start
        for c in order:
            res = results[c.name]
            why = check_output(c, res)
            if why is None and traced:
                if res.summary is None:
                    why = "tracer wrote no summary"
                elif (res.code, res.stdout) != (base[c.name].code, base[c.name].stdout):
                    why = "output differs from the untraced run"
            self.attempted += 1
            if why:
                self.failed += 1
                self.problems.append(f"{'traced ' if traced else ''}{c.name}: {why}")
        return wall, results

    def setup_once(self):
        res = run_child([str(HERE / "setup_probe.py"), self.workload], self.root, self.env, self.tmpdir)
        if res.code != 0:
            raise Fatal("set-up probe failed: " + res.stderr.decode(errors="replace")[-300:])
        self.check_source(res.stdout.decode().strip())
        return res.wall_s

    def measure(self, seconds):
        """Passes, each with its own verify seed and followed by
        SETUP_PER_PASS set-up probes, until the next would overrun `seconds`."""
        self.run_pass(self.pass_seed())
        walls, rss, setup = [], [], []
        start = time.perf_counter()
        step = 0.0
        while not walls or time.perf_counter() - start + step <= seconds:
            step_start = time.perf_counter()
            wall, results = self.run_pass(self.pass_seed())
            walls.append(wall)
            rss.append(max(r.rss_mib for r in results.values()))
            setup += [self.setup_once() for _ in range(SETUP_PER_PASS)]
            step = time.perf_counter() - step_start
        fail_ratio = self.failed / self.attempted
        print(f"{self.workload}: {len(walls)} passes of {len(self.commands)} commands, "
              f"{len(setup)} set-up probes", file=sys.stderr)
        print(f"  run_s        {statistics.median(walls):.4f} s  (passes: "
              + ", ".join(f"{w:.3f}" for w in walls) + ")", file=sys.stderr)
        print(f"  setup_s      {statistics.median(setup):.4f} s  (probes: "
              + ", ".join(f"{s:.3f}" for s in setup) + ")", file=sys.stderr)
        print(f"  peak_rss_mib {statistics.median(rss):.2f} MiB", file=sys.stderr)
        print(f"  fail_ratio   {fail_ratio:.4f} ratio  ({self.failed} of {self.attempted} commands)",
              file=sys.stderr)
        return {
            "run_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(rss),
        }

    def trace(self):
        """Warm-up, one untraced and two traced passes, all on one verify seed."""
        seed = self.pass_seed()
        self.run_pass(seed)
        base_wall, base = self.run_pass(seed)
        traced = [self.run_pass(seed, traced=True, base=base) for _ in range(2)]
        if any(r.summary is None for _, results in traced for r in results.values()):
            return {}
        first, second = (layer_counts(results) for _, results in traced)
        if first != second:
            diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
            self.problems.append("counts differ between two traced runs: " + ", ".join(diff))
        metrics = layer_metrics([results for _, results in traced])
        for c in self.commands:
            metrics[f"cli.{c.name}.wall_s"] = base[c.name].wall_s
        metrics["cli.tracing_overhead"] = statistics.mean(w for w, _ in traced) / base_wall
        for c in self.commands:
            one = {c.name: traced[0][1][c.name]}
            print(f"  {c.name:18s} untraced {base[c.name].wall_s:7.3f} s  traced "
                  f"{one[c.name].wall_s:7.3f} s  multiply incl. "
                  f"{span_sum(one, 'orbitring.multiply', 'total_s'):7.3f} s  sector_divisors calls "
                  f"{span_sum(one, 'oracles.sector_divisors', 'calls')}", file=sys.stderr)
        return metrics


def layer_counts(results):
    """Every count of one traced pass: span calls and boundary counts."""
    out = {}
    for name, res in results.items():
        for span, row in res.summary["spans"].items():
            out[f"{name}:{span}.calls"] = row["calls"]
        for key, val in res.summary["counts"].items():
            out[f"{name}:{key}"] = val
    return out


def span_sum(results, span, field):
    """`field` of the span named `span`, summed over the commands of a pass."""
    return sum(r.summary["spans"].get(span, {}).get(field, 0) for r in results.values())


def layer_metrics(passes):
    """Per-layer metrics of a traced pass; span times are averaged over the
    traced passes, counts are taken from the first."""
    first = passes[0]

    def seconds(span, field):
        return statistics.mean(span_sum(p, span, field) for p in passes)

    metrics = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            metrics[f"{span}.{f}"] = span_sum(first, span, f) if f == "calls" else seconds(span, f)
    for c in CHECK_SPANS:
        metrics[f"verification.{c}.s"] = seconds(f"verification.{c}", "total_s")
    metrics["balgebra.cover.build_s"] = seconds("balgebra.cover.build", "total_s")
    counts = [r.summary["counts"] for r in first.values()]
    for c in COUNT_METRICS:
        metrics[c] = sum(x.get(c, 0) for x in counts)
    submitted = sum(x.get("balgebra.memo.submitted", 0) for x in counts)
    hits = sum(x.get("balgebra.memo.hits", 0) for x in counts)
    metrics["balgebra.memo_hit_ratio"] = hits / submitted if submitted else 0.0
    per_cmd = [span_sum({k: r}, "oracles.sector_divisors", "calls") for k, r in first.items()]
    per_cmd = [x for x in per_cmd if x]
    metrics["oracles.sector_divisors.calls_per_cmd"] = sum(per_cmd) / len(per_cmd) if per_cmd else 0.0
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dualalg" / "__init__.py").is_file():
        print("perfbench: no dualalg source at ./src/dualalg; run from the root of a checkout",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    try:
        if args.trace:
            specs = per_layer_specs()
            got = bench.trace()
            metrics = {name: {"value": got.get(name, 0), "unit": unit} for name, unit, _ in specs}
        else:
            got = bench.measure(args.seconds)
            metrics = {name: {"value": got[name], "unit": unit} for name, unit in END_TO_END}
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            bench.tmpdir.rmdir()
        except OSError:
            pass
    for p in bench.problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
