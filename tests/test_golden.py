"""Golden CLI output: exit code and sha256 of stdout for a fixed command set.

The hashes pin the exact bytes each command prints, so a refactor that
claims to leave results unchanged can be checked against them.  Regenerate
a hash only when an output change is intended, and say why in CHANGES.md.
"""

import hashlib

import pytest

from dualalg.cli import main

GOLDEN = [
    (["rank", "--group", "GL", "--n", "2", "--q", "5"], 0,
     "7b40e8c8a80f82f908944003ee27948030a4c2df818b0f6a971208e9444215db"),
    (["rank", "--group", "SO", "--n", "8", "--q", "2"], 2,
     "70e1c883c7774382099c06d0095676f095c76a445143813a0beac200487ec956"),
    (["points", "--group", "SO", "--n", "8", "--q", "2"], 0,
     "d8fd0967724e45d515964802325280b2be05b2ae5a22e566ccfb7f4604d3ef0f"),
    (["points", "--group", "Sp", "--n", "4", "--q", "3"], 0,
     "c385ee202f5573e3d9d2bf787ec41341ea61af516533664e614e7e71984d40cc"),
    (["structure", "--group", "GL", "--n", "2", "--q", "3"], 0,
     "1c9531501c774fbd8ca842f237c2d68b6e626f06174d6812451470a663e1ea5a"),
    (["structure", "--group", "SO", "--n", "6", "--q", "2"], 0,
     "2ed1ad3ec933e96373d40fa7949cdb01916b4acf83466cfa98eb6937c571d6a1"),
    (["structure", "--group", "SL", "--n", "3", "--q", "3"], 0,
     "fa0d8eeed7b445df5ed7a2d0b28385f54f51a01a60a9acf5cd6986e2b87c0953"),
    (["verify", "--group", "SL", "--n", "2", "--q", "3"], 0,
     "137d4ba58262057676c352635eb292740baaff267341c8baa5c6c4ca2ac31ae0"),
    (["verify", "--group", "Sp", "--n", "4", "--q", "2", "--fast"], 0,
     "39975fe4a5ca128aa53aff24b0ae674fce5d9c10351f9f1d14ea3414131b79ef"),
    (["verify", "--group", "GL", "--n", "2", "--q", "3", "--fast"], 0,
     "95d5d919c400e6e4d7d3ac921f9bc7efebbf65de9fbdb67b7b3e2e129020ad69"),
    (["verify", "--group", "SO", "--n", "4", "--q", "3", "--fast"], 2,
     "00390cbdba2cd5167f81a5502f2bf9658a6643ad383f627dfa6ff7a032dccd9e"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(argv, code, digest, capsys):
    got = main(argv)
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
