"""Fuzz of the CLI exit-code contract over `rank`, `points`, `structure`,
`curtis` and `oracle`.

Random groups, small n, bad q (0, 1, 4, 6, negative), --p/--r with or
without --q (consistent or not, p not prime, r < 1), random datum JSON and
argument errors (an unknown group, a non-integer n) must always make `main`
return 0, 1 or 2 with no traceback and no SystemExit: 0 and 2 print a JSON
document (the curtis tables under `--format csv` print integer rows), 1
prints an `error:` line.  DUALALG_WEYL_CAP is kept low, `structure` runs with
`--limit 8` and `oracle` with `--cap 1000`, so every example stays small; the
examples are derandomized, so a run is repeatable.
"""

import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualalg.cli import main

# "Foo" and the n value "x" are rejected by the argument parser itself
GROUPS = ["Torus", "GL", "SL", "PGL", "Sp", "SO", "Foo"]
# q = 4 is a valid prime power, kept with the bad values as the smallest r > 1
Q_VALUES = [2, 3, 5, 4, 0, 1, 6, -1, -2, -4, -7, None]
# p = 4 is not prime; r = 0 and r = -1 are below 1
P_VALUES = [None, 2, 3, 4, 0, -3]
R_VALUES = [None, 1, 2, 0, -1]
DATUM_CMDS = ("rank", "points", "structure")
KEYS = ["rank", "simple_roots", "simple_coroots", "tau", "label"]

# well-formed data: unitary GL(2), SL(2), B_2 in the lattice Z^2, a rank-0 torus
VALID_DOCS = [
    {"rank": 2, "simple_roots": [[1, -1]], "simple_coroots": [[1, -1]],
     "tau": [[0, -1], [-1, 0]], "label": "unitary-gl2"},
    {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
    {"rank": 2, "simple_roots": [[1, -1], [0, 1]], "simple_coroots": [[1, -1], [0, 2]]},
    {"rank": 0},
]

json_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                 max_size=5),
    max_leaves=12,
)


@st.composite
def shaped_docs(draw):
    """Integer data of the right shape; only rarely a valid root datum."""
    rank = draw(st.integers(-1, 3))
    width = max(rank, 0)
    k = draw(st.integers(0, 2))
    vec = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    doc = {"rank": rank, "simple_roots": draw(st.lists(vec, min_size=k, max_size=k)),
           "simple_coroots": draw(st.lists(vec, min_size=k, max_size=k))}
    if draw(st.booleans()):
        entry = st.integers(-1, 1)
        doc["tau"] = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                                   min_size=width, max_size=width))
    if draw(st.booleans()):
        doc["label"] = draw(st.text(max_size=3) | st.integers(-5, 5)
                            | st.lists(st.integers(-3, 3), max_size=2))
    return doc


datum_docs = st.sampled_from(VALID_DOCS) | shaped_docs() | json_junk


@st.composite
def argvs(draw, datum_path):
    cmd = draw(st.sampled_from(["rank", "points", "structure", "curtis", "oracle"]))
    argv = [cmd] + (["--limit", "8"] if cmd == "structure" else [])
    if cmd == "curtis":
        argv += ["--group", draw(st.sampled_from(["GL2", "PGL2", "Foo"]))]
        check = draw(st.sampled_from([None, "saturation", "homomorphism", "eside"]))
        fmt = draw(st.sampled_from([None, "json", "csv"]))
        argv += (["--check", check] if check else []) + (["--format", fmt] if fmt else [])
    elif cmd == "oracle":
        argv += ["--group", draw(st.sampled_from(["GL", "SL", "Foo"])),
                 "--n", str(draw(st.sampled_from([1, 2, 3, 4, 0, "x"]))), "--cap", "1000"]
    elif draw(st.booleans()):
        with open(datum_path, "w") as fh:
            json.dump(draw(datum_docs), fh)
        argv += ["--datum-file", datum_path]
    else:
        argv += ["--group", draw(st.sampled_from(GROUPS))]
        n = draw(st.sampled_from([2, 4, 3, 6, 1, 5, 0, -1, "x", None]))
        if n is not None:
            argv += ["--n", str(n)]
    # --p/--r in place of --q or alongside it, consistent or not
    mode = draw(st.sampled_from(["q", "pr", "both"])) if cmd in DATUM_CMDS else "q"
    if mode != "pr":
        q = draw(st.sampled_from(Q_VALUES))
        if q is not None:
            argv += ["--q", str(q)]
    if mode != "q":
        for flag, values in (("--p", P_VALUES), ("--r", R_VALUES)):
            v = draw(st.sampled_from(values))
            if v is not None:
                argv += [flag, str(v)]
    if cmd == "points" and draw(st.booleans()):
        argv += ["--ell", str(draw(st.integers(-3, 300)))]
    return argv


def parse_output(argv, text):
    """The JSON document, or the integer rows of the curtis tables in CSV."""
    if "csv" in argv and "--check" not in argv:
        return [[int(x) for x in line.split(",")] for line in text.splitlines() if line]
    return json.loads(text)


def test_rank_and_points_exit_0_1_2_without_traceback(tmp_path_factory):
    datum_path = str(tmp_path_factory.mktemp("fuzz") / "datum.json")

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(datum_path))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert "Traceback" not in err.getvalue(), argv
        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.getvalue().startswith("error: "), argv
        else:
            parse_output(argv, out.getvalue())

    with mock.patch.dict(os.environ, {"DUALALG_WEYL_CAP": "50"}):
        run()
