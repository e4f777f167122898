import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import prod

import pytest

import dualalg
from dualalg import balgebra, curtis, finitefield, intlinalg, matrixgroups, oracles, rootdata
from dualalg.cli import main
from dualalg.intlinalg import IntMatrix
from dualalg.orbitring import InvariantElement
from dualalg.rootdata import FrobeniusData, RootDatum, build_standard, weyl_group
from dualalg.verification import random_dominant_weight
from test_rootdata import reference_weyl_group


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def child_env():
    """Environment under which a child process imports the same dualalg as
    this process, installed or not."""
    src = os.path.dirname(os.path.dirname(dualalg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def patch_everywhere(monkeypatch, fn, replacement):
    """Replace every dualalg.* module binding of ``fn``, so `from .x import f`
    copies are covered as well."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dualalg" or name.startswith("dualalg.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                monkeypatch.setattr(mod, attr, replacement)


def test_rank_gl2(capsys):
    code, out = run_cli(["rank", "--group", "GL", "--n", "2", "--q", "5"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["rank"]["value"] == 20
    assert doc["class_count"]["value"] == 20
    assert doc["point_count"]["value"] == 20
    assert doc["rank"]["source"] == "basis"
    assert doc["class_count"]["source"] == "formula"
    assert doc["version"] == "1"


def test_rank_torus(capsys):
    code, out = run_cli(["rank", "--group", "Torus", "--n", "1", "--q", "4"], capsys)
    assert code == 0
    assert json.loads(out)["rank"]["value"] == 3


def test_rank_so8_exits_with_mismatch(capsys):
    # the published box (20) disagrees with the point count (16); the tool's
    # whole purpose is to surface exactly this with exit code 2
    code, out = run_cli(["rank", "--group", "SO", "--n", "8", "--q", "2"], capsys)
    doc = json.loads(out)
    assert code == 2
    assert doc["rank"]["value"] == 20
    assert doc["published_box_size"]["value"] == 20
    assert doc["class_count"]["value"] == 16
    assert doc["point_count"]["value"] == 16
    assert doc["consistent"] is False


def test_oracle_sl2(capsys):
    code, out = run_cli(["oracle", "--group", "SL", "--n", "2", "--q", "3"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["ss_classes"]["value"] == 3
    assert doc["ss_classes"]["source"] == "brute_force"
    assert doc["p_regular_equals_ss"] is True
    assert doc["match"] is True


def test_points_command(capsys):
    code, out = run_cli(["points", "--group", "SO", "--n", "8", "--q", "2"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["count"]["value"] == 16
    assert len(doc["points"]) == 16


def test_structure_csv(capsys):
    code, out = run_cli(
        ["structure", "--group", "SL", "--n", "2", "--q", "3", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,k,c"
    assert "0,0,0,1" in lines  # unit times unit


def test_curtis_saturation(capsys):
    code, out = run_cli(["curtis", "--group", "GL2", "--q", "3", "--check", "saturation"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["saturated_over_Z"] is True
    assert doc["nonsat_witness_over_Z_1_over_p"] is True


def doubled_column(m1, ms):
    # column 0 twice over: still in the parity lattice, of index 2 in its
    # saturation's parity part
    return tuple(IntMatrix([[2 * r[0], *r[1:]] for r in m.entries]) for m in (m1, ms))


def raised_central_entry(m1, ms):
    # the split entry of column 0 at the central key (1, 1) raised by 1: the
    # column leaves the parity lattice
    sidx = curtis.TorusIndexing(curtis.GL2, 3).split_keys().index((1, 1))
    entries = [list(r) for r in m1.entries]
    entries[sidx][0] += 1
    return IntMatrix(entries), ms


@pytest.mark.parametrize("change", [doubled_column, raised_central_entry])
def test_curtis_saturation_false_exits_2(change, monkeypatch, capsys):
    real = curtis.phi_matrix
    monkeypatch.setattr(curtis, "phi_matrix", lambda group, q: change(*real(group, q)))
    code, out = run_cli(["curtis", "--group", "GL2", "--q", "3", "--check", "saturation"], capsys)
    assert code == 2
    assert json.loads(out)["saturated_over_Z"] is False


def test_curtis_matrix_json(capsys):
    code, out = run_cli(["curtis", "--group", "PGL2", "--q", "3"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert len(doc["split_matrix"]) == 2  # q-1 rows
    assert len(doc["twisted_matrix"]) == 4  # q+1 rows
    assert doc["columns_in_parity_lattice"] is True


def test_curtis_eside_rejects_pgl2(capsys):
    # the E-side tables exist for GL2 alone; PGL2 is a usage error, not a
    # GL2 result printed under "group": "PGL2"
    assert main(["curtis", "--group", "PGL2", "--q", "5", "--check", "eside"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "GL2 only" in captured.err
    code, out = run_cli(["curtis", "--group", "GL2", "--q", "5", "--check", "eside"], capsys)
    assert code == 0
    assert json.loads(out)["eside_parity"] is True


CURTIS_FORMS = [[], ["--format", "csv"], ["--check", "saturation"],
                ["--check", "homomorphism"], ["--check", "eside"]]


@pytest.mark.parametrize("q", [0, 1, 6, -2])
@pytest.mark.parametrize("group", ["GL2", "PGL2"])
def test_curtis_rejects_q_that_is_no_prime_power(group, q, capsys):
    # every form checks q before it computes: no table for a field that
    # does not exist, and no ZeroDivisionError at q = 1
    for form in CURTIS_FORMS:
        assert main(["curtis", "--group", group, "--q", str(q)] + form) == 1, form
        captured = capsys.readouterr()
        assert captured.out == "", form
        assert captured.err == f"error: q = {q} is not a prime power\n", form


@pytest.mark.parametrize("cmd,q,p,r", [
    (["rank"], 3, 3, 1),
    (["points"], 3, 3, 1),
    (["structure"], 3, 3, 1),
    (["verify", "--fast"], 3, 3, 1),
    (["points"], 4, 2, 2),
])
def test_p_and_r_in_place_of_q(cmd, q, p, r, capsys):
    argv = cmd + ["--group", "GL", "--n", "2"]
    by_q = run_cli(argv + ["--q", str(q)], capsys)
    assert by_q[0] == 0
    assert run_cli(argv + ["--p", str(p), "--r", str(r)], capsys) == by_q


@pytest.mark.parametrize("opts,message", [
    (["--q", "9", "--p", "2"], "--p 2 inconsistent with --q 9"),
    (["--q", "9", "--r", "1"], "--r 1 inconsistent with --q 9"),
    (["--p", "3"], "need --q, or both --p and --r"),
    (["--p", "4", "--r", "1"], "p = 4 is not prime"),
    (["--p", "3", "--r", "0"], "r must be >= 1"),
])
def test_bad_p_and_r_exit_1(opts, message, capsys):
    code = main(["rank", "--group", "GL", "--n", "2"] + opts)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_sl2(capsys):
    code, out = run_cli(["verify", "--group", "SL", "--n", "2", "--q", "3", "--fast"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "sl2_q3_regression" in names


def test_verify_so8_reports_mismatch(capsys):
    code, out = run_cli(["verify", "--group", "SO", "--n", "8", "--q", "2", "--fast"], capsys)
    doc = json.loads(out)
    assert code == 2
    failing = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert "rank_vs_class_count_vs_points" in failing
    assert "reducedness_certificate" in failing


def test_determinism(capsys):
    _, out1 = run_cli(["points", "--group", "GL", "--n", "2", "--q", "3"], capsys)
    _, out2 = run_cli(["points", "--group", "GL", "--n", "2", "--q", "3"], capsys)
    assert out1 == out2


def test_datum_file(tmp_path, capsys):
    doc = {
        "rank": 2,
        "simple_roots": [[1, -1]],
        "simple_coroots": [[1, -1]],
        "tau": [[0, -1], [-1, 0]],
        "label": "unitary-gl2",
    }
    f = tmp_path / "datum.json"
    f.write_text(json.dumps(doc))
    code, out = run_cli(["rank", "--datum-file", str(f), "--q", "3"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["rank"]["value"] == 12  # q(q+1) for the twisted form


def test_curtis_csv_and_out_file(tmp_path, capsys):
    out = tmp_path / "phi.csv"
    code = main(["curtis", "--group", "GL2", "--q", "2", "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().splitlines()
    # (q-1)^2 split rows, a blank separator, q^2-1 twisted rows
    assert len(lines) == 1 + 1 + 3


def test_json_out_file(tmp_path, capsys):
    # --out receives exactly what stdout would have, and stdout stays empty
    args = ["rank", "--group", "GL", "--n", "2", "--q", "3"]
    code, printed = run_cli(args, capsys)
    assert code == 0
    out = tmp_path / "rank.json"
    code, rest = run_cli(args + ["--out", str(out)], capsys)
    assert code == 0 and rest == ""
    assert out.read_text() == printed
    assert json.loads(printed)["rank"]["value"] == 6


def test_structure_so8_works(capsys):
    code, out = run_cli(["structure", "--group", "SO", "--n", "8", "--q", "2"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["rank"] == 20
    # the unit row multiplies identically
    assert [0, 0, 0, 1] in doc["quadruples"]


def test_structure_determinism(capsys):
    args = ["structure", "--group", "GL", "--n", "2", "--q", "3"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_usage_errors(capsys):
    code = main(["rank", "--group", "GL", "--n", "2"])
    assert code == 1
    code = main(["rank", "--group", "GL", "--n", "2", "--q", "12"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["rank", "--group", "Foo", "--q", "2"],
    ["rank", "--group", "GL", "--n", "x", "--q", "2"],
    ["bogus"],
    [],
])
def test_argument_errors_exit_1(argv, capsys):
    # exit 2 is reserved for mathematical failures, so argparse's own exit 2
    # must not leak out of main
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: dualalg")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--help"])
    assert exc.value.code == 0
    assert "--datum-file" in capsys.readouterr().out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dualalg.cli", "rank", "--group", "SL", "--n", "2", "--q", "7"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"]["value"] == 7


def test_weyl_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("DUALALG_WEYL_CAP", "10")
    code = main(["rank", "--group", "SO", "--n", "8", "--q", "2"])
    capsys.readouterr()
    assert code == 1


def test_weyl_cap_env_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("DUALALG_WEYL_CAP", "abc")
    code = main(["rank", "--group", "GL", "--n", "2", "--q", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert "DUALALG_WEYL_CAP" in err


def test_datum_file_so_even_detected_by_structure(tmp_path, capsys):
    # a D_4 datum whose label does not start with "SO(" still takes SOEven
    rd = build_standard("SO", 8)
    doc = {
        "rank": rd.rank,
        "simple_roots": [list(a) for a in rd.simple_roots],
        "simple_coroots": [list(a) for a in rd.simple_coroots],
        "label": "D4",
    }
    f = tmp_path / "d4.json"
    f.write_text(json.dumps(doc))
    code, out = run_cli(["rank", "--datum-file", str(f), "--q", "2"], capsys)
    payload = json.loads(out)
    assert code == 2
    assert payload["strategy"] == "SOEven"
    assert payload["rank"]["value"] == 20
    assert payload["class_count"]["value"] == 16


def test_verify_sl2_check_follows_the_datum_not_the_label(tmp_path, capsys):
    # a GL(2) datum labelled as SL(2) gets no rank-one SL(2) regression check
    rd = build_standard("GL", 2)
    doc = {
        "rank": rd.rank,
        "simple_roots": [list(a) for a in rd.simple_roots],
        "simple_coroots": [list(a) for a in rd.simple_coroots],
        "label": "SL(2) as GL(2)",
    }
    f = tmp_path / "gl2.json"
    f.write_text(json.dumps(doc))
    code, out = run_cli(["verify", "--datum-file", str(f), "--q", "3"], capsys)
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "sl2_q3_regression" not in names


@pytest.mark.parametrize("command", ["rank", "structure", "verify"])
def test_datum_file_label_must_be_a_string(command, tmp_path, capsys):
    # an integer label on the SO(4) datum: the SOEven cover names itself
    # after the label, so a non-string once crashed structure and verify
    rd = build_standard("SO", 4)
    doc = {
        "rank": rd.rank,
        "simple_roots": [list(a) for a in rd.simple_roots],
        "simple_coroots": [list(a) for a in rd.simple_coroots],
        "label": 5,
    }
    f = tmp_path / "so4.json"
    f.write_text(json.dumps(doc))
    code = main([command, "--datum-file", str(f), "--q", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "label must be a string, got 5" in captured.err
    assert "Traceback" not in captured.err


def test_field_without_modulus_is_a_typed_error(monkeypatch, capsys):
    # a degree-2 modulus search over F_2 that finds nothing: GF(4) raises
    # CrossCheckFailed, which the command line reports as JSON with exit 2
    monkeypatch.setattr(finitefield.GF, "_poly_irreducible", lambda self, coeffs: False)
    code = main(["oracle", "--group", "GL", "--n", "2", "--q", "4"])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "CrossCheckFailed"
    assert "GF(4)" in error["detail"]
    assert "Traceback" not in captured.err


def test_unbounded_generator_order_is_a_typed_error(monkeypatch, capsys):
    # a Zech table built by raising the top base-p digit in place of the
    # lowest: GF(4)'s sums go wrong, no generator of GL(2, 4) returns to the
    # identity, and the inverse walk stops at the group order with exit 2
    real = finitefield.GF._build_log_tables

    def mutant(self):
        real(self)
        top = self.p ** (self.r - 1)
        self._zech = [self._log[y] if y else None
                      for y in ((x + top) % self.q for x in self._exp[:self.q - 1])]

    monkeypatch.setattr(finitefield.GF, "_build_log_tables", mutant)
    code = main(["oracle", "--group", "GL", "--n", "2", "--q", "4"])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.out)["error"]
    assert error["type"] == "CrossCheckFailed"
    assert "generator" in error["detail"] and "GF(4)" in error["detail"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["rank", "--group", "SO", "--n", "8", "--q", "2"],
    ["points", "--group", "SO", "--n", "8", "--q", "2"],
    ["verify", "--group", "GL", "--n", "2", "--q", "3", "--fast"],
])
def test_oracle_pipeline_runs_once_per_command(argv, monkeypatch, capsys):
    # one sector table per command; the class count is read off it, so the
    # module class_count (which builds its own table) is never called
    calls = Counter()
    for fn in (oracles.sector_divisors, oracles.class_count):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        patch_everywhere(monkeypatch, fn, counted)
    main(argv)
    capsys.readouterr()
    assert calls == {"sector_divisors": 1}


def count_normal_form_calls(monkeypatch):
    """Counter of snf and lattice_hnf calls made after this point."""
    calls = Counter()
    for fn in (intlinalg.snf, intlinalg.lattice_hnf):
        def counted(*args, _fn=fn):
            calls[_fn.__name__] += 1
            return _fn(*args)

        patch_everywhere(monkeypatch, fn, counted)
    return calls


def test_cover_reductions_reuse_one_factorization(monkeypatch):
    # SO(4) q=3: once the cover is built, each normal form solves against the
    # cover matrix's one SmithForm and reduces by the kernel HNF it holds; the
    # cover context's central lookups read the factorization of b0
    rd = build_standard("SO", 4)
    ctx = balgebra.build_context(rd, FrobeniusData(rd, 3, 1), balgebra.SO_EVEN)
    ctx.cover()
    calls = count_normal_form_calls(monkeypatch)
    rng = random.Random(11)
    for _ in range(20):
        lam = random_dominant_weight(ctx.cache, rng, 8)
        balgebra.normal_form(ctx, InvariantElement.r(lam))
    assert calls == {}


def test_central_rep_index_reuses_one_factorization(monkeypatch):
    # GL(3) q=3: the central lattice is spanned by (1, 1, 1), one central
    # coordinate with two representatives modulo (F - id) = 2
    rd = build_standard("GL", 3)
    ctx = balgebra.build_context(rd, FrobeniusData(rd, 3, 1), balgebra.GENERIC_SC)
    calls = count_normal_form_calls(monkeypatch)
    assert [ctx._central_rep_index((k,)) for k in range(-3, 4)] == [1, 0, 1, 0, 1, 0, 1]
    assert calls == {}


def test_context_build_takes_one_snf_of_f_minus_id_on_the_center(monkeypatch):
    # GL(3) q=3: the central representatives are read off the SmithForm of
    # F - id on X0, with no second SNF of its transform u
    rd = build_standard("GL", 3)
    frob = FrobeniusData(rd, 3, 1)
    calls = count_normal_form_calls(monkeypatch)
    balgebra.build_context(rd, frob, balgebra.GENERIC_SC)
    assert calls == {"snf": 3, "lattice_hnf": 3}


def test_each_sector_matrix_built_once(monkeypatch, capsys):
    # rank SO(8) q=2: each of the 192 sector matrices F*w - id (F = 2) is built
    # once, and neither it nor F*w comes out of an IntMatrix product
    rd = build_standard("SO", 8)
    one = IntMatrix.identity(4)
    f = one.scale(2)
    weyl = reference_weyl_group(rd, 10 ** 6)
    f_times_w = {(f * w).entries for w in weyl}
    sectors = {(f * w - one).entries for w in weyl}
    built, products = Counter(), Counter()
    real_mul = IntMatrix.__mul__

    class Counted(IntMatrix):
        # the matrices the oracle module builds
        __slots__ = ()

        @classmethod
        def of_rows(cls, rows):
            built[rows] += 1
            return super().of_rows(rows)

    def mul(self, other):
        out = real_mul(self, other)
        products[out.entries] += 1
        return out

    monkeypatch.setattr(oracles, "IntMatrix", Counted)
    monkeypatch.setattr(IntMatrix, "__mul__", mul)
    code = main(["rank", "--group", "SO", "--n", "8", "--q", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["weyl_order"] == 192
    assert len(sectors) == 192
    assert {m: built[m] for m in sectors} == dict.fromkeys(sectors, 1)
    assert not (f_times_w | sectors) & set(products)


@pytest.mark.parametrize("argv,code,calls", [
    # structure reads W only through |W| and its tables: no matrix is built
    (["structure", "--group", "SL", "--n", "4", "--q", "3"], 0, 0),
    # rank SO(8) q=2: one reflection per sector matrix F*w after F itself
    (["rank", "--group", "SO", "--n", "8", "--q", "2"], 2, 191),
], ids=["structure-SL4", "rank-SO8"])
def test_weyl_matrices_built_only_where_read(argv, code, calls, monkeypatch, capsys):
    counted = Counter()
    real = rootdata._reflect_rows

    def reflect(m, root, coroot):
        counted["reflect"] += 1
        return real(m, root, coroot)

    patch_everywhere(monkeypatch, real, reflect)
    assert main(argv) == code
    capsys.readouterr()
    assert counted["reflect"] == calls


def test_sector_snf_disagreeing_with_det_exits_2(monkeypatch, capsys):
    # the per-sector check prod(diag) = |det(F*w - id)| must fire
    real = oracles.snf

    def doubled(m):
        d, u, v = real(m)
        rows = [list(r) for r in d.entries]
        rows[-1][-1] *= 2
        return IntMatrix(rows), u, v

    monkeypatch.setattr(oracles, "snf", doubled)
    code = main(["rank", "--group", "GL", "--n", "2", "--q", "3"])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)["error"]
    assert err["type"] == "CrossCheckFailed"
    assert err["detail"].startswith("sector 0:")


def test_sector_snf_once_per_class(monkeypatch, capsys):
    # rank SO(8) q=2: one SNF for each of the 13 conjugacy classes of W(D4),
    # and still one Bareiss determinant for each of the 192 sectors
    rd = build_standard("SO", 8)
    one = IntMatrix.identity(4)
    f = one.scale(2)
    sectors = {(f * w - one).entries for w in reference_weyl_group(rd, 10 ** 6)}
    args = {"snf": Counter(), "det": Counter()}
    for name in args:
        def counted(m, _fn=getattr(oracles, name), _seen=args[name]):
            _seen[m.entries] += 1
            return _fn(m)

        # the oracle module's own bindings: other layers take SNFs and
        # determinants of matrices that may coincide with a sector matrix
        monkeypatch.setattr(oracles, name, counted)
    code = main(["rank", "--group", "SO", "--n", "8", "--q", "2"])
    capsys.readouterr()
    assert code == 2
    assert sum(args["snf"].values()) == 13
    assert set(args["snf"]) <= sectors
    assert args["det"] == dict.fromkeys(sectors, 1)


def test_corrupted_sector_conjugation_exits_2(monkeypatch, capsys):
    # a right table with w_j * s_a = s_a for every j sends every F-conjugate
    # w -> s_a*w*s_a (sigma is the identity on split SO(8)) to the identity,
    # sector 0: sector 1 would join the class of sector 0 after it was closed
    real = weyl_group

    def corrupted(rd):
        weyl = real(rd)
        weyl.right = [[row[0]] * len(weyl) for row in weyl.left]
        return weyl

    patch_everywhere(monkeypatch, real, corrupted)
    code = main(["rank", "--group", "SO", "--n", "8", "--q", "2"])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)["error"]
    assert err["type"] == "CrossCheckFailed"
    assert err["detail"].startswith("sector 1: conjugate to sector 0")
    assert "Traceback" not in captured.err


def test_orbit_key_once_per_walked_point(monkeypatch, capsys):
    # points SO(8) q=2: the orbit fusion keys each point walked on a class
    # row exactly once, and closes no orbit
    rd = build_standard("SO", 8)
    _, table, _ = oracles.sector_divisors(rd, FrobeniusData(rd, 2, 1))
    assert len(table) == 13
    walked = sum(prod(diag) for _, _, diag, _ in table)
    calls = Counter()
    real = oracles.orbit_key

    def counted(pt, lattice):
        calls["orbit_key"] += 1
        return real(pt, lattice)

    patch_everywhere(monkeypatch, real, counted)
    code = main(["points", "--group", "SO", "--n", "8", "--q", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["count"]["value"] == 16
    assert calls["orbit_key"] == walked


def _doubled_coroot_diagonal(m):
    form = intlinalg.SmithForm(m)
    form.diag = tuple(2 * d for d in form.diag)
    return form


@pytest.mark.parametrize("group,n,target,patch,detail", [
    # (2, 2) is even on all of Y, so no y in Y has (2, 2).y = 1
    ("GL", "2", (RootDatum, "central_lattice"), lambda self: [(2, 2)],
     "central functional [2, 2] cannot be lifted to Y"),
    # SL(3) has no central weight; a false one pairs nonzero with a coroot
    ("SL", "3", (RootDatum, "central_lattice"), lambda self: [(1, 0)],
     "coroot direction [1, 0] lies outside Y_ss"),
    # rootdata's one SmithForm is the coroot form; with its diagonal doubled,
    # row (1, -1) of u*C is no multiple of 2
    ("GL", "2", (rootdata, "SmithForm"), _doubled_coroot_diagonal,
     "coroot SNF row [1, -1] is not 2 times a vector of Y"),
], ids=["unliftable", "coroot-outside", "coroot-row-indivisible"])
def test_bad_alcove_lattice_exits_2(group, n, target, patch, detail, monkeypatch, capsys):
    monkeypatch.setattr(*target, patch)
    code = main(["points", "--group", group, "--n", n, "--q", "3"])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)["error"]
    assert err["type"] == "CrossCheckFailed"
    assert err["detail"].startswith(detail)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key,found", [
    (lambda pt, lattice: pt, 9),  # nothing fused: each distinct walked point
    (lambda pt, lattice: 0, 1),  # everything fused into one orbit
], ids=["too-fine", "too-coarse"])
def test_wrong_orbit_key_fails_orbit_fusion(key, found, monkeypatch, capsys):
    patch_everywhere(monkeypatch, oracles.orbit_key, key)
    code = main(["points", "--group", "SL", "--n", "3", "--q", "2"])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)["error"]
    assert err["type"] == "CrossCheckFailed"
    assert err["detail"] == f"orbit fusion found {found} orbits, class_count = 4"


def test_corrupted_homomorphism_check_exits_2_under_optimize():
    # python -O strips assert statements; the transfer check must still fire
    script = (
        "import sys\n"
        "import dualalg.curtis as curtis\n"
        "from dualalg.cli import main\n"
        "curtis.convolve = lambda mul, f, g: {}\n"
        "sys.exit(main(['curtis', '--group', 'GL2', '--q', '3', '--check', 'homomorphism']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "CrossCheckFailed"
    assert "Traceback" not in proc.stderr


def test_oracle_semisimplicity_mismatch_exits_2(monkeypatch, capsys):
    # a gcd that never returns 1 calls every minimal polynomial non-squarefree,
    # against the p-regular classes: a typed mismatch naming the element
    monkeypatch.setattr(matrixgroups, "poly_gcd", lambda field, f, g: [0, 1])
    code = main(["oracle", "--group", "GL", "--n", "2", "--q", "3"])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)["error"]
    assert err["type"] == "CrossCheckFailed"
    assert "p-regular/semisimple mismatch" in err["detail"]


def test_math_failure_exits_2_with_typed_error(monkeypatch, capsys):
    # one class too many makes the orbit-fusion cross-check in the point
    # enumeration fail: a mathematical mismatch, not a usage error
    real = oracles.sector_divisors

    def one_too_many(*args):
        l, classes, count = real(*args)
        return l, classes, count + 1

    patch_everywhere(monkeypatch, real, one_too_many)
    code = main(["rank", "--group", "GL", "--n", "2", "--q", "3"])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)["error"]
    assert err["type"] == "CrossCheckFailed"
    assert "class_count = 7" in err["detail"]
    assert captured.err == f"error: {err['detail']}\n"


def nonintegral_exit(argv, capsys):
    """Run argv, which must exit 2 with a typed NonIntegral error and no
    traceback; return the error's detail."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out)["error"]
    assert err["type"] == "NonIntegral"
    assert captured.err == f"error: {err['detail']}\n"
    assert "Traceback" not in captured.err
    return err["detail"]


def test_singular_sector_matrix_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(oracles, "det", lambda m: 0)
    detail = nonintegral_exit(["rank", "--group", "GL", "--n", "2", "--q", "3"], capsys)
    assert detail == "sector matrix is singular; q >= 2 should prevent this"


def test_sector_sum_not_divisible_exits_2(monkeypatch, capsys):
    # SL(2) q=3: sectors F - 1 = (2) and -F - 1 = (-4), sum 6 over |W| = 2.
    # The identity sector read as det 3 with SNF diagonal (3), which passes
    # its own check, makes the sum 7
    real_det, real_snf = oracles.det, oracles.snf
    identity = IntMatrix([[2]])
    monkeypatch.setattr(oracles, "det", lambda m: 3 if m == identity else real_det(m))
    monkeypatch.setattr(oracles, "snf", lambda m: ((IntMatrix([[3]]), IntMatrix([[1]]),
                                                    IntMatrix([[1]])) if m == identity
                                                   else real_snf(m)))
    detail = nonintegral_exit(["rank", "--group", "SL", "--n", "2", "--q", "3"], capsys)
    assert detail == "sector sum 7 not divisible by |W| = 2"


def test_trace_sum_not_divisible_exits_2(monkeypatch, capsys):
    # SL(2) q=3 has two classes of one sector each; the identity class
    # counted twice makes the unit's trace sum 3 over |W| = 2
    real = oracles.sector_divisors

    def doubled(*args):
        l, classes, count = real(*args)
        (i, u, diag, size), *rest = classes
        return l, [(i, u, diag, size + 1)] + rest, count

    patch_everywhere(monkeypatch, real, doubled)
    detail = nonintegral_exit(["verify", "--group", "SL", "--n", "2", "--q", "3", "--fast"],
                              capsys)
    assert detail == "trace sum 3 of basis element 0 not divisible by |W|"


def test_verify_builds_structure_tensor_once(monkeypatch, capsys):
    # the Gram check and the evaluation-homomorphism check share one tensor
    calls = Counter()
    real = balgebra.multiply_b

    def counted(ctx, x, y):
        calls["multiply_b"] += 1
        return real(ctx, x, y)

    monkeypatch.setattr(balgebra, "multiply_b", counted)
    code = main(["verify", "--group", "GL", "--n", "3", "--q", "3", "--fast"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    names = {c["name"] for c in doc["checks"]}
    assert {"gram_discriminant_p_power", "evaluation_homomorphism"} <= names
    n = doc["checks"][0]["details"]["basis_size"]
    assert calls["multiply_b"] == n * (n + 1) // 2
