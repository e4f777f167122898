import pytest

from dualalg.errors import BadPrime, CapExceeded, CrossCheckFailed
from dualalg.matrixgroups import MatrixGroupSpec, brute_force_ss_classes
from dualalg.oracles import (
    choose_ell,
    class_count,
    enumerate_points,
    evaluate,
    sector_divisors,
    torus_fixed_count,
)
from dualalg.orbitring import InvariantElement, OrbitCache
from dualalg.rootdata import FrobeniusData, build_standard, weyl_group


def test_torus_fixed_counts():
    rd = build_standard("Torus", 1)
    frob = FrobeniusData(rd, 2, 2)
    (w,) = weyl_group(rd)
    assert torus_fixed_count(rd, frob, w) == 3
    gl = build_standard("GL", 2)
    frob = FrobeniusData(gl, 3, 1)
    ident, s = weyl_group(gl)
    assert torus_fixed_count(gl, frob, ident) == 4
    assert torus_fixed_count(gl, frob, s) == 8  # q^2 - 1


def test_class_counts():
    gl = build_standard("GL", 2)
    assert class_count(gl, FrobeniusData(gl, 2, 1)) == 2
    sl = build_standard("SL", 2)
    assert class_count(sl, FrobeniusData(sl, 3, 1)) == 3
    # even orthogonal: the twisted determinant average gives q^n
    so = build_standard("SO", 8)
    assert class_count(so, FrobeniusData(so, 2, 1)) == 16
    assert class_count(so, FrobeniusData(so, 3, 1)) == 81


def test_enumerate_points_torus():
    rd = build_standard("Torus", 1)
    frob = FrobeniusData(rd, 2, 2)
    pts = enumerate_points(rd, frob, 7)
    assert len(pts) == 3
    assert sorted(pt.values[0] for pt in pts) == [1, 2, 4]  # cube roots of 1 in F_7


def test_enumerate_points_sl2():
    rd = build_standard("SL", 2)
    frob = FrobeniusData(rd, 3, 1)
    pts = enumerate_points(rd, frob, 13)
    assert len(pts) == 3
    with pytest.raises(BadPrime):
        enumerate_points(rd, frob, 11)  # 11 != 1 mod 4
    with pytest.raises(BadPrime):
        enumerate_points(rd, frob, 3)


def test_enumerate_points_gl2():
    rd = build_standard("GL", 2)
    frob = FrobeniusData(rd, 2, 1)
    assert choose_ell(rd, frob) == 7
    pts = enumerate_points(rd, frob)
    assert len(pts) == 2


def test_enumerate_points_with_handed_in_sector_data():
    rd = build_standard("Sp", 4)
    frob = FrobeniusData(rd, 3, 1)
    weyl = weyl_group(rd)
    own = enumerate_points(rd, frob, weyl=weyl)
    given = enumerate_points(rd, frob, weyl=weyl, sectors=sector_divisors(rd, frob, weyl),
                             expected_orbits=class_count(rd, frob, weyl))
    assert [pt.values for pt in own] == [pt.values for pt in given]
    with pytest.raises(CrossCheckFailed, match="orbit fusion"):
        enumerate_points(rd, frob, weyl=weyl, expected_orbits=len(own) + 1)


def test_evaluate_unit_and_orbit_independence():
    rd = build_standard("SL", 2)
    frob = FrobeniusData(rd, 3, 1)
    cache = OrbitCache(rd)
    pts = enumerate_points(rd, frob)
    one = InvariantElement.one(1)
    for pt in pts:
        assert evaluate(cache, one, pt) == 1
        # r(4) evaluates like 2*r(0) at every fixed point
        assert evaluate(cache, InvariantElement.r((4,)), pt) == 2


def test_brute_force_matches_class_count():
    for fam, n, q, expect in [
        ("SL", 2, 3, 3),
        ("GL", 2, 2, 2),
        ("GL", 2, 3, 6),
        ("GL", 3, 2, 4),
    ]:
        count, hist = brute_force_ss_classes(MatrixGroupSpec(fam, n, q))
        assert count == expect
        rd = build_standard(fam, n)
        from dualalg.rootdata import prime_power_split

        p, r = prime_power_split(q)
        assert count == class_count(rd, FrobeniusData(rd, p, r))
        assert sum(hist.values()) == count


def test_brute_force_sl2_f3_orders():
    count, hist = brute_force_ss_classes(MatrixGroupSpec("SL", 2, 3))
    assert count == 3
    assert hist == {1: 1, 2: 1, 4: 1}


def test_group_cap():
    with pytest.raises(CapExceeded):
        brute_force_ss_classes(MatrixGroupSpec("GL", 3, 5, cap=1000))


def test_prime_mismatch():
    from dualalg.errors import PrimeMismatch

    rd = build_standard("Torus", 1)
    frob = FrobeniusData(rd, 2, 2)
    pts = enumerate_points(rd, frob, 7)
    cache = OrbitCache(rd)
    with pytest.raises(PrimeMismatch):
        evaluate(cache, InvariantElement.one(1), pts[0], ell=13)


def test_point_determinism():
    rd = build_standard("Sp", 4)
    frob = FrobeniusData(rd, 2, 1)
    a = enumerate_points(rd, frob)
    b = enumerate_points(rd, frob)
    assert [pt.values for pt in a] == [pt.values for pt in b]
