"""Golden CLI output: exit code and sha256 of stdout for a fixed command set.

The hashes pin the exact bytes each command prints, so a refactor that
claims to leave results unchanged can be checked against them.  Regenerate
a hash only when an output change is intended, and say why in CHANGES.md.
"""

import hashlib
import os

import pytest

from dualalg.cli import main, make_parser

GOLDEN = [
    (["rank", "--group", "GL", "--n", "2", "--q", "5"], 0,
     "7b40e8c8a80f82f908944003ee27948030a4c2df818b0f6a971208e9444215db"),
    (["rank", "--group", "SO", "--n", "8", "--q", "2"], 2,
     "70e1c883c7774382099c06d0095676f095c76a445143813a0beac200487ec956"),
    (["points", "--group", "SO", "--n", "8", "--q", "2"], 0,
     "d8fd0967724e45d515964802325280b2be05b2ae5a22e566ccfb7f4604d3ef0f"),
    (["points", "--group", "Sp", "--n", "4", "--q", "3"], 0,
     "c385ee202f5573e3d9d2bf787ec41341ea61af516533664e614e7e71984d40cc"),
    (["points", "--group", "SO", "--n", "6", "--q", "7"], 0,
     "0d1e64a7f0ecb8f75591f76112db39aa6318dee92b51a3edbfdd1f2fa8eca380"),
    (["points", "--group", "Sp", "--n", "4", "--q", "3", "--ell", "241"], 0,
     "5492ff4cee30b7c109ca2b6abd89e395cea60c379b2f44096a824031d34da37f"),
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
    (["oracle", "--group", "GL", "--n", "3", "--q", "2"], 0,
     "5ed15280553dc4cf28a0a230c6e05558712dbb355ea281d09e7eb4a07c100524"),
    (["curtis", "--group", "GL2", "--q", "3", "--check", "homomorphism"], 0,
     "28b1891e21d6e367d8bf99a470b285ebd95f9fd7d90c1deba1e907843606efd4"),
    # tau != 1: the README's unitary GL(2) datum, a path relative to this file
    (["rank", "--datum-file", "data/unitary_gl2.json", "--q", "3"], 0,
     "52b53baeda06b71573ab5eadccf46156bffd6cd1cd5337625a975540d8606d95"),
    (["points", "--datum-file", "data/unitary_gl2.json", "--q", "3"], 0,
     "cac12c12c3eecfc3a2a72ad964099e1402e343ecaeeb1dbd3ba412e2e3e64cc2"),
    # |W| = 1920 sectors in 18 classes
    (["rank", "--group", "SO", "--n", "10", "--q", "2"], 2,
     "751eda62eec54bb9574b14779719755ee94476097fbcf3797992c1567deaf5ea"),
    (["points", "--group", "Sp", "--n", "8", "--q", "2"], 0,
     "c8fc57e2e06ac466002ab24f710365ee3d99c1a659c5d71c295eb20fdf835a5b"),
    # orbit keys over four cosets of Q^vee, two cosets with affine walls, and
    # a central pairing (taken before the alcove key replaced the orbit BFS)
    (["points", "--group", "PGL", "--n", "4", "--q", "3"], 0,
     "78557755b9d64045faeef5b0e0da04f108865b8cca80f024f06df0437557a0f2"),
    (["points", "--group", "SO", "--n", "8", "--q", "3"], 0,
     "8a459048e72dd038645e2f21227bfc2df93fe1d635ec40728e93404a7178abea"),
    (["points", "--group", "GL", "--n", "3", "--q", "5"], 0,
     "73a4ebb3038e38438beda735c03af8c171396ca90a4370cbd93ba1505d8e94a7"),
    # the GenericSC reduction: a central part and deep reductions, tau != 1
    # in the replacement, and every basis product (taken before the ring
    # layer's sums went through orbitring.combine)
    (["verify", "--group", "GL", "--n", "3", "--q", "3", "--seed", "5", "--fast"], 0,
     "d1826e4d915861c9e2b6a2f5aac762db4a20388af075ebf24072cd01e60020c4"),
    (["verify", "--datum-file", "data/unitary_gl2.json", "--q", "3", "--fast"], 0,
     "173d16155c0dcf797f7cce1726563b0257d98e0d75b14a16bce6f3f872d1f65c"),
    (["structure", "--group", "GL", "--n", "3", "--q", "3"], 0,
     "91d94b7b68855defbf673a752317833a3c45623b59684f145ddd58f998726acc"),
    # negative central representatives (-1, -1), (-2, -2): the unimodular
    # u = -1 of the central lattice's SNF, with tau != 1
    (["structure", "--datum-file", "data/unitary_gl2.json", "--q", "3"], 0,
     "fd1bc4d91b737bb09c8f41a4c37348304f6e029161fa8a4df2c09d8e6f4f6c3f"),
    # the GenericSC reduction in fundamental-weight coordinates (taken before
    # it left the coordinates of X): Sp(4), whose change of basis is not the
    # identity and which has no centre, and the GenericSC cover of SO(4)
    (["structure", "--group", "Sp", "--n", "4", "--q", "3"], 0,
     "e80cae3b8a9500b5978e6ae9e8451cfb7be7ecb0fd435d40c56d3fcd8fb7e919"),
    (["structure", "--group", "SO", "--n", "4", "--q", "3"], 0,
     "94a49237f4ff23192d48cc697b9b710b403788ea6d312629ffb88d8bb5e20097"),
    # SOEven products in the cover's fundamental-weight coordinates (taken
    # before they left the SO datum): the S2' band of the box, reached at odd q
    (["structure", "--group", "SO", "--n", "6", "--q", "3"], 0,
     "4ab48081c23b0a2774f939d802b9683b520a862cea10844fdc13bf6a76e8c960"),
    # the exact eliminations outside intlinalg (taken before they were
    # routed through finitefield._poly_rem, kernel_basis and powers): the
    # GF(4) modulus search and generator inverses, the F_2 parity lattice of
    # the saturation check, and the GF(81) modulus search of the E-side tables
    (["oracle", "--group", "GL", "--n", "2", "--q", "4"], 0,
     "d2ce9d224263802fa7ebd7ae2b8e84d049a5a320dc8a661e7ae0ea8afd0585dc"),
    (["curtis", "--group", "GL2", "--q", "5", "--check", "saturation"], 0,
     "9ebcf21d4886a86bd58107e642e681f3390972ee3f785d009c87595c6ded246c"),
    (["curtis", "--group", "PGL2", "--q", "4", "--check", "saturation"], 0,
     "8b94401e27324ff4e884d8e9a4e8ad355fc77f629bbf96176e661f0ece367c36"),
    (["curtis", "--group", "GL2", "--q", "9", "--check", "eside"], 0,
     "6081a4ec413a798bc7fbe33401a18e5aa4d6051c1a501b8933f7ce3af5d4e588"),
    # the default curtis tables with their parity flag, both CSV payloads,
    # the E-side at p = 2 (one coefficient per cyclotomic value) and the
    # PGL2 homomorphism check (taken before torus functions became dicts)
    (["curtis", "--group", "PGL2", "--q", "4"], 0,
     "8c00d939face8c86479f0ee1e03d8461df8d637e6c07bf9bb2d315fd1f7eba44"),
    (["curtis", "--group", "GL2", "--q", "4"], 0,
     "4065762901c1b4a08c168df93f8897a25e301395c2e47e486548ca558550bcc5"),
    (["curtis", "--group", "GL2", "--q", "3", "--format", "csv"], 0,
     "cde469051b74cbdeb0d487eda3d6abba853851f1bb9cb76832bb9647b583d723"),
    (["structure", "--group", "SL", "--n", "2", "--q", "3", "--format", "csv"], 0,
     "e6128507cbaadfc2743d21f064f10b8813953f522d83ad8319b58b5f429fad05"),
    (["curtis", "--group", "GL2", "--q", "4", "--check", "eside"], 0,
     "a31d85e6384776c361acca11bdeb5573a3fee65136b8e4e1db9087968730a99e"),
    (["curtis", "--group", "PGL2", "--q", "5", "--check", "homomorphism"], 0,
     "b01b9e77fee45bd698a3aca4cd2f96d3b35872c4e12153fafd9c6002f58ab8fe"),
    # evaluations and the trace form (taken before they left the coordinates
    # of X): Sp(4), whose change of basis is not the identity, and SO(6), whose
    # trace and evaluations run through the cover
    (["verify", "--group", "Sp", "--n", "4", "--q", "3", "--fast"], 0,
     "978dbceda715814070425b4f48e895c23b9bb7c5d381cd683dac474e3f48558a"),
    (["verify", "--group", "SO", "--n", "6", "--q", "2", "--fast"], 2,
     "952068cf4c4b404b99e7c0987e2340064aaefd41b70243c4a9667fa81ee7d99c"),
    # 3D4: the simply connected D4 with a triality tau of order 3, so that
    # sigma != sigma^-1 on the simple roots (taken before the sector matrices
    # were reflected from their parents' F*w)
    (["rank", "--datum-file", "data/triality_d4.json", "--q", "2"], 0,
     "55dd7303f254d193abecd453d9c001ce89f8b6295c6514aa91d13cd43e40dbce"),
    (["points", "--datum-file", "data/triality_d4.json", "--q", "2"], 0,
     "e409950ac17a565396ca59d72a5059305bd42207856caff95d293c112247b6e3"),
    # the height check over |W| = 192, its draws from the Weyl matrices in
    # closure order (taken before those matrices left weyl_group)
    (["verify", "--datum-file", "data/triality_d4.json", "--q", "2", "--fast"], 0,
     "1cfbc16189da3065e7aeb16ac1c0cd8f860ff1e967808c9aae122b90f58bf28e"),
    # SOEven products and reductions over |W| = 192 (taken before orbit
    # sizes came from parabolic orders and products built only the swept orbit)
    (["structure", "--group", "SO", "--n", "8", "--q", "2"], 0,
     "56b630f96d1c4b810ada7a26da1f91ab11c5b848c031c79618db0edf77905ebe"),
    (["verify", "--group", "SO", "--n", "8", "--q", "2", "--fast", "--seed", "1"], 2,
     "c2820c10524919305254db2ed0eb799fc3e542d4f4499917fac1ecb19159706d"),
    # PGL2 under every --check and --format (taken before its split keys
    # became 1-tuples): its CSV tables and the GL2-only E-side refusal
    (["curtis", "--group", "PGL2", "--q", "7", "--format", "csv"], 0,
     "131f77d85c5c8a847ad3576ec864cabb558642ada9ef03992430680113f209f3"),
    (["curtis", "--group", "PGL2", "--q", "5", "--check", "eside"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # an SOEven cover ring with q - 1 = 4 central classes, so that central
    # shifts move basis indices inside the cover (taken before the cover
    # ring was built on the SOEven context itself)
    (["verify", "--group", "SO", "--n", "4", "--q", "5", "--fast"], 2,
     "cc36d241858b0d1822c0c0a52a9f1a5a991a93dfbaba4b4d197fe0a25c551ee8"),
    # extension-field arithmetic in odd characteristic, where sub negates
    # through g^((q-1)/2), and in GF(2^10) (taken before GF(p^r) read log and
    # Zech tables in place of a q x q product table)
    (["oracle", "--group", "GL", "--n", "2", "--q", "9"], 0,
     "37bf35782f610bd60e36bafa54a9a8ab7a8f9c3d07441ae38275be6a77f5980f"),
    (["curtis", "--group", "GL2", "--q", "32", "--check", "eside"], 0,
     "74d821213192c1766f6a3395828a71b4358ce9f1db9d3fa442b2ad218ef65271"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(argv, code, digest, capsys):
    here = os.path.dirname(__file__)
    argv = [os.path.join(here, a) if prev == "--datum-file" else a
            for prev, a in zip([None] + argv, argv)]
    got = main(argv)
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _option_value(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def test_golden_covers_every_subcommand_check_and_format():
    """Every subcommand, every curtis --check value (none included) and every
    --format of each subcommand that takes one has at least one golden row;
    for curtis, under each --group choice."""
    parser = make_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    assert set(subparsers) <= {argv[0] for argv, _, _ in GOLDEN}
    checked = []
    for name, sp in subparsers.items():
        groups = [None]
        if name == "curtis":
            groups = next(a for a in sp._actions if a.dest == "group").choices
        for action in sp._actions:
            if action.dest == "format" or (name == "curtis" and action.dest == "check"):
                flag, default = action.option_strings[0], action.default
                values = set(action.choices) | {default}
                for group in groups:
                    have = {_option_value(argv, flag, default) for argv, _, _ in GOLDEN
                            if argv[0] == name
                            and group in (None, _option_value(argv, "--group", None))}
                    missing = values - have
                    assert not missing, (
                        f"{name} {flag} (group {group}): no golden row for {sorted(map(str, missing))}"
                    )
                checked.append((name, flag))
    assert {("curtis", "--check"), ("curtis", "--format"), ("structure", "--format")} <= set(checked)
