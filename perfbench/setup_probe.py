"""Set-up work of one workload, for timing as a fresh process.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Imports dualalg and builds what the workload's commands build before their
own work starts: the root datum, the Frobenius data and, for commands that
build a context, the context (Weyl closure and basis); for `points`, the
Weyl group.  Prints `dualalg.__file__` so the caller can check which source
tree was measured.
"""

from __future__ import annotations

import sys

import dualalg
from dualalg import GENERIC_SC, SO_EVEN, FrobeniusData, build_context, build_standard, weyl_group
from dualalg.rootdata import prime_power_split

from workloads import WORKLOADS


def main():
    for c in WORKLOADS[sys.argv[1]]:
        rd = build_standard(c.group, c.n)
        frob = FrobeniusData(rd, *prime_power_split(c.q))
        if c.builds_context:
            build_context(rd, frob, SO_EVEN if c.group == "SO" else GENERIC_SC)
        else:
            weyl_group(rd)
    print(dualalg.__file__)


if __name__ == "__main__":
    main()
