"""The failing branch of every check of the property suite.

Each test puts one fault into SL(2) at q = 3, where the whole suite passes,
and asserts `passed: false` with the check's documented `details`.  Where
the fault can reach through the command line, `verify` exits 2 with
`"passed": false` as well.
"""

import copy
import json
import random
from collections import Counter

import pytest

from dualalg import balgebra, verification
from dualalg.balgebra import GENERIC_SC, BContext, build_context, structure_constants
from dualalg.cli import main
from dualalg.intlinalg import IntMatrix
from dualalg.orbitring import InvariantElement, OrbitCache
from dualalg.rootdata import FrobeniusData, build_standard

VERIFY_SL2 = ["verify", "--group", "SL", "--n", "2", "--q", "3", "--fast"]


@pytest.fixture
def ctx():
    rd = build_standard("SL", 2)
    return build_context(rd, FrobeniusData(rd, 3, 1), GENERIC_SC)


def verify_fails(name, capsys):
    """Run `verify` on SL(2) at q = 3 and return the failed check `name`."""
    code = main(VERIFY_SL2)
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["passed"] is False
    (check,) = [c for c in doc["checks"] if c["name"] == name]
    assert check["passed"] is False
    return check


def test_unfaulted_suite_passes(ctx):
    assert verification.run_suite(ctx, fast=True)["passed"] is True


@pytest.mark.parametrize("height,details", [
    (1, {"weight"}),
    (-1, {"weight", "why"}),
])
def test_height_descent_fails(height, details, ctx, monkeypatch):
    # the heights of one cache passed in directly: patched for every cache,
    # they would stop the reduction before the suite ran
    cache = OrbitCache(ctx.rd)
    monkeypatch.setattr(cache, "height", lambda lam: height)
    got = verification.check_height_descent(cache, ctx.weyl, random.Random(1), samples=50)
    assert got["name"] == "height_descent"
    assert got["passed"] is False
    assert set(got["details"]) == details
    if height < 0:
        assert got["details"]["why"] == "nonpositive height"


def test_f_invariance_fails(ctx, monkeypatch, capsys):
    # F replaced by lam -> 2*lam, which B does not identify with lam
    monkeypatch.setattr(FrobeniusData, "f_apply", lambda self, lam: tuple(2 * x for x in lam))
    got = verification.check_f_invariance(ctx, random.Random(1), samples=20)
    assert got["passed"] is False
    assert len(got["details"]["weight"]) == 1
    assert set(verify_fails("f_invariance", capsys)["details"]) == {"weight"}


def test_trace_integrality_fails(ctx, monkeypatch, capsys):
    real = BContext.unit
    monkeypatch.setattr(BContext, "unit", lambda self: real(self).scale(2))
    got = verification.check_trace_integrality(ctx)
    assert got["passed"] is False
    assert got["details"]["unit_trace"] == 2
    assert verify_fails("trace_form_integral_and_unit", capsys)["details"]["unit_trace"] == 2


def test_gram_p_power_fails(ctx, monkeypatch, capsys):
    monkeypatch.setattr(verification, "gram_discriminant", lambda c: 6)
    got = verification.check_gram_p_power(ctx)
    assert got["passed"] is False
    assert got["details"] == {"discriminant": 6, "p": 3}
    assert verify_fails("gram_discriminant_p_power", capsys)["details"] == got["details"]


def test_evaluation_homomorphism_fails(ctx, monkeypatch, capsys):
    structure_constants(ctx)
    ctx._structure[0][0][0] += 1
    got = verification.check_evaluation_homomorphism(ctx)
    assert got["passed"] is False
    assert got["details"] == {"pair": [0, 0]}

    real = verification.structure_constants

    def corrupted(c):
        tensor = copy.deepcopy(real(c))
        tensor[0][0][0] += 1
        return tensor

    monkeypatch.setattr(verification, "structure_constants", corrupted)
    assert verify_fails("evaluation_homomorphism", capsys)["details"] == {"pair": [0, 0]}


def test_sl2_regression_fails(ctx, monkeypatch, capsys):
    # every normal form read as that of r(0): r(4) no longer equals 2 r(0)
    real = verification.normal_form
    monkeypatch.setattr(verification, "normal_form",
                        lambda c, x: real(c, InvariantElement.r((0,))))
    got = verification.check_sl2_regression(ctx)
    assert got["passed"] is False
    assert got["details"] == {"normal_form": str(real(ctx, InvariantElement.r((0,))))}
    verify_fails("sl2_q3_regression", capsys)


def test_suite_takes_each_basis_trace_once(monkeypatch):
    # check_trace_integrality and the Gram matrix read one list of basis
    # traces, taken in one sweep: u*to_x formed once per class row
    # and each basis orbit read once; trace_form is called for the unit alone
    rd = build_standard("GL", 3)
    c = build_context(rd, FrobeniusData(rd, 3, 1), GENERIC_SC)
    calls = []
    real = balgebra.trace_form

    def counted(ctx, x):
        calls.append(x)
        return real(ctx, x)

    maps = []
    real_mul = IntMatrix.__mul__

    def mul(self, other):
        if other is c._to_x:
            maps.append(self)
        return real_mul(self, other)

    orbit_reads = Counter()
    real_orbit = c._wcache.orbit

    def orbit(lam):
        orbit_reads[lam] += 1
        return real_orbit(lam)

    monkeypatch.setattr(balgebra, "trace_form", counted)
    monkeypatch.setattr(verification, "trace_form", counted)
    monkeypatch.setattr(IntMatrix, "__mul__", mul)
    report = verification.run_suite(c, seed=1)
    assert report["passed"] is True
    assert "gram_discriminant_p_power" in [check["name"] for check in report["checks"]]
    assert len(c.basis) == 18
    assert len(calls) == 1
    reps = [u for _, u, _, _ in c.sector_data()[1]]
    assert maps == reps
    # the sweep alone, on a context whose evaluations are already taken
    c._traces = None
    monkeypatch.setattr(c._wcache, "orbit", orbit)
    balgebra.basis_traces(c)
    assert orbit_reads == dict.fromkeys(c._wbasis, 1)
