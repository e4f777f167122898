import json
import subprocess
import sys
from collections import Counter

import pytest

from dualalg import oracles
from dualalg.cli import main
from dualalg.rootdata import build_standard


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


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


def test_curtis_matrix_json(capsys):
    code, out = run_cli(["curtis", "--group", "PGL2", "--q", "3"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert len(doc["split_matrix"]) == 2  # q-1 rows
    assert len(doc["twisted_matrix"]) == 4  # q+1 rows
    assert doc["columns_in_parity_lattice"] is True


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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dualalg.cli", "rank", "--group", "SL", "--n", "2", "--q", "7"],
        capture_output=True,
        text=True,
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


@pytest.mark.parametrize("argv", [
    ["rank", "--group", "SO", "--n", "8", "--q", "2"],
    ["points", "--group", "SO", "--n", "8", "--q", "2"],
    ["verify", "--group", "GL", "--n", "2", "--q", "3", "--fast"],
])
def test_oracle_pipeline_runs_once_per_command(argv, monkeypatch, capsys):
    # every dualalg.* binding of each function is replaced, so the count
    # covers `from .oracles import ...` copies as well
    calls = Counter()
    for fn in (oracles.sector_divisors, oracles.class_count):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "dualalg" or name.startswith("dualalg.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    main(argv)
    capsys.readouterr()
    assert calls == {"sector_divisors": 1, "class_count": 1}
