"""Workloads of the dualalg benchmark, their expected outputs and the
rationale behind them.

Each workload is a fixed list of `dualalg` commands that one client runs one
after another (a closed loop), each in a fresh `python -m dualalg.cli`
process.  The workload seed only shuffles the order of the commands in each
pass and, for `verify`, draws the `--seed` given to the property suite.

Why these workloads
-------------------
dualalg is a single-process exact-arithmetic CLI: a user waits on one
command, and every number it prints is cross-checked.  The three workloads
stress disjoint layers, so that an optimisation of one layer has a workload
that exercises it and one that bypasses it (where no change is predicted).

* ``structure`` -- structure constants over GenericSC data (SL(4) q=3 and
  SL(3)/Sp(4) q=5 at rank 27/25/25, plus Sp(6) q=2, GL(3) q=3, Sp(4) q=3).
  Every basis-pair product goes through ``orbitring.multiply`` and the
  memoized ``balgebra`` reduction, mostly on weights near the basis box, so
  the memo is small and reused.  No oracle and no sector SNF is called.
* ``count`` -- ``rank`` and ``points``.  All of it is
  ``rootdata.weyl_group``, the sector SNFs (``sector_divisors`` twice per
  command at the seed, from ``choose_ell`` and ``validate_ell``, plus the
  Bareiss determinants of ``class_count``), and ``enumerate_points``.
  ``rank`` SO(10) q=2 is the sector-bound stress case (|W| = 1920, 32
  points, exit 2); ``points`` SO(6) q=7 is BFS-bound (|W| = 24, 343 points).
  No product and no normal form runs.
* ``verify`` -- the full property suite on GL(3) q=3, Sp(4) q=3, SL(3) q=2
  and SOEven SO(4) q=3.  Random dominant weights up to 2q need deep
  reductions, so the memo grows about ten times larger than on
  ``structure``.  It is the only workload that reaches ``oracles.evaluate``,
  ``trace_form`` over sectors, the Gram determinant, the evaluation
  homomorphism and the SOEven cover (``_SOCover`` build, then
  ``intlinalg.in_image`` / ``kernel_basis`` / ``reduce_mod_lattice``).

The SO rows of ``count`` and ``verify`` expect exit 2: the package's own
oracles refute the published even-orthogonal box size (20/117/40 against
q^n), so ``rank_vs_class_count_vs_points`` and ``reducedness_certificate``
are false there.  That is the documented defect; it stays in the workloads.

Sizes are chosen so that one pass takes about 3 to 5 s on a 2-core machine,
so that one run of ``run_seconds`` holds several passes and reports their
median.  Larger rows (``structure`` Sp(6) q=3 at ~8.5 s, ``points`` Sp(10)
q=2 at ~6 s, ``verify`` on SL(4)/Sp(6)/SO(6) q=2 and SO(4) q=5) made one
pass 12-17 s, too long for a steady median in the benchmark's time budget.

Not workloads: the ``oracle`` and ``curtis`` commands (the ``matrixgroups``,
``finitefield`` and ``curtis`` modules) are not targeted by any roadmap item,
and the Tier-1 test run is not user traffic.

Which layer metric should move which end-to-end metric
------------------------------------------------------
(per_layer metric -> end-to-end metric, workload; "none" = predicted no change)

* ``rootdata.weyl_group.self_s``, ``rootdata.weyl_order`` -> ``setup_s`` and
  ``run_s`` on ``count`` (|W| up to 1920 there); small on the other two.
* ``intlinalg.snf`` / ``det`` ``.calls`` / ``.self_s`` -> ``run_s`` on
  ``count``.  Sector-work changes predict none on ``structure``, which reaches
  ``snf`` only through ``in_image`` in the GL central-weight lookup.
* ``intlinalg.in_image`` / ``kernel_basis`` / ``reduce_mod_lattice``
  ``.self_s`` -> ``run_s`` on ``verify`` (SOEven cover solve).
* ``orbitring.multiply.calls`` / ``.self_s`` / ``.e_terms`` and
  ``orbitring.orbit.calls`` / ``.misses``, ``orbitring.height.self_s`` ->
  ``run_s`` on ``structure`` and ``verify``; none on ``count``.
  ``e_terms`` is the sum of |W lam| * |W mu| over operand pairs, the
  convolution that the single-orbit product removes.
* ``balgebra.normal_form.self_s``, ``balgebra.memo_size``,
  ``balgebra.memo_hit_ratio`` -> ``run_s`` on ``structure`` and ``verify``;
  none on ``count``.  The hit ratio counts the weights submitted to
  ``normal_form`` that are already memoized; it is about 0.9 on both
  workloads at the seed (the Gram and structure-constant products of
  ``verify`` hit too), so the deep reductions of ``verify`` show as a larger
  ``memo_size`` and ``orbit.misses`` rather than a lower hit ratio.
* ``balgebra.cover.build_s`` and ``balgebra.<trace_form |
  reducedness_certificate | evaluation_rank | gram_discriminant |
  structure_constants>.self_s`` -> ``run_s`` on ``verify``.
* ``oracles.sector_divisors.calls`` (more than one per ``rank``/``points``
  command is duplicated sector work), ``oracles.class_count.calls`` /
  ``.self_s``, ``oracles.enumerate_points.self_s``, ``oracles.points``,
  ``oracles.ell`` -> ``run_s`` on ``count``; none on ``structure``.
* ``oracles.evaluate.calls`` / ``.self_s`` -> ``run_s`` on ``verify``.
* ``verification.<check>.s`` -> ``run_s`` on ``verify``.
* ``cli.<cmd>.<config>.wall_s`` -> ``run_s`` of the command's workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    cmd: str
    group: str
    n: int
    q: int
    exit: int
    # sha256 of stdout for structure/rank/points; None for verify.
    sha256: str | None = None
    # verify: expected {check name: passed}, which does not depend on --seed.
    checks: tuple = ()

    @property
    def config(self):
        return f"{self.group}{self.n}q{self.q}"

    @property
    def name(self):
        return f"{self.cmd}.{self.config}"

    def argv(self, seed):
        args = [self.cmd, "--group", self.group, "--n", str(self.n), "--q", str(self.q)]
        if self.cmd == "verify":
            args += ["--seed", str(seed)]
        return args

    @property
    def builds_context(self):
        """`points` builds only the datum, Frobenius data and Weyl group."""
        return self.cmd != "points"


def _checks(*failing, gram=True):
    names = [
        "rank_vs_class_count_vs_points",
        "reducedness_certificate",
        "height_descent",
        "f_invariance",
        "trace_form_integral_and_unit",
    ]
    if gram:
        names += ["gram_discriminant_p_power", "evaluation_homomorphism"]
    return tuple((n, n not in failing) for n in names)


WORKLOADS = {
    "structure": (
        Command("structure", "SL", 4, 3, 0,
                "deb2da7a58ad526cca1dd5993aeec793eaf63f7f264f6cb1de889fe3832be4d5"),
        Command("structure", "Sp", 4, 5, 0,
                "44a77e02047869db2d9e5d56735cfc364b2a56cbd913b42f0d2aa178fe94c7b5"),
        Command("structure", "SL", 3, 5, 0,
                "2c771137f5aff68fbe9f2c27aa3f9cdc19422cf2762a45abe1a06514a868d287"),
        Command("structure", "Sp", 6, 2, 0,
                "c259b7325412d6c3326690f4b4eaf4da3e07df1f17589526fa0b438cc009378a"),
        Command("structure", "GL", 3, 3, 0,
                "91d94b7b68855defbf673a752317833a3c45623b59684f145ddd58f998726acc"),
        Command("structure", "Sp", 4, 3, 0,
                "e80cae3b8a9500b5978e6ae9e8451cfb7be7ecb0fd435d40c56d3fcd8fb7e919"),
    ),
    "count": (
        Command("rank", "SO", 10, 2, 2,
                "751eda62eec54bb9574b14779719755ee94476097fbcf3797992c1567deaf5ea"),
        Command("rank", "SL", 5, 3, 0,
                "221c4e005b5f827bbc7f040779fc3ab8bf5fc352ae057dac882bb575593e8dec"),
        Command("points", "Sp", 8, 2, 0,
                "c8fc57e2e06ac466002ab24f710365ee3d99c1a659c5d71c295eb20fdf835a5b"),
        Command("points", "SO", 6, 7, 0,
                "0d1e64a7f0ecb8f75591f76112db39aa6318dee92b51a3edbfdd1f2fa8eca380"),
    ),
    "verify": (
        Command("verify", "GL", 3, 3, 0, checks=_checks()),
        Command("verify", "Sp", 4, 3, 0, checks=_checks()),
        Command("verify", "SL", 3, 2, 0, checks=_checks()),
        Command("verify", "SO", 4, 3, 2, checks=_checks(
            "rank_vs_class_count_vs_points", "reducedness_certificate", gram=False)),
    ),
}
