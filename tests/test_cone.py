import random
from fractions import Fraction

import pytest

from cytforge.cone import _neg1_classes, is_kahler, negative_curves
from cytforge.cyt import solve_symmetric_ansatz
from cytforge.errors import MissingAmpleWitness, MissingCurveData
from cytforge.surfaces import (
    CohClass,
    blowup_cp2,
    custom_model,
    intersect,
    parse_class,
    projective_plane,
    quadric,
)

EXPECTED_COUNTS = {2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def test_neg1_counts():
    for k, count in EXPECTED_COUNTS.items():
        assert len(negative_curves(blowup_cp2(k))) == count, k


def test_neg1_defining_equations():
    for k in (2, 5, 8):
        m = blowup_cp2(k)
        for curve in negative_curves(m):
            assert intersect(m, curve, curve) == -1
            assert intersect(m, curve, m.c1) == 1


def test_neg1_reenumeration_stable():
    # raising the degree bound must not add classes
    for k in EXPECTED_COUNTS:
        assert _neg1_classes(k, 6) == _neg1_classes(k, 8)


def test_general_2_explicit():
    m = blowup_cp2(2)
    curves = {c.coeffs for c in negative_curves(m)}
    assert curves == {(0, 1, 0), (0, 0, 1), (1, -1, -1)}


def test_on_cubic_curves():
    m10 = blowup_cp2(10)
    curves = negative_curves(m10)
    assert m10.c1 in curves  # the transformed cubic joins at k = 10
    assert len(curves) == 10 + 45 + 1
    m9 = blowup_cp2(9)
    assert m9.c1 not in negative_curves(m9)
    assert len(negative_curves(m9)) == 9 + 36


def test_quadric_and_plane_have_no_negative_curves():
    assert negative_curves(quadric()) == []
    assert negative_curves(projective_plane()) == []


def test_missing_curve_data():
    m = custom_model("nolist", [[1]], [2])
    with pytest.raises(MissingCurveData):
        negative_curves(m)


def test_is_kahler_dp2():
    m = blowup_cp2(2)
    f = parse_class(m, "6H-2E1-2E2")
    cert = is_kahler(m, f)
    assert cert.verdict
    assert cert.self_intersection == 28
    assert sorted(c.value for c in cert.curve_checks) == [2, 2, 2]
    assert cert.ample_value == 14
    assert cert.witness_source == "model"

    bad = is_kahler(m, parse_class(m, "E1"))
    assert not bad.verdict and bad.self_intersection == -1


def test_is_kahler_quadric_rulings():
    q = quadric()
    f = CohClass((Fraction(1, 2), Fraction(1, 2)))
    cert = is_kahler(q, f)
    assert cert.verdict
    assert [c.value for c in cert.curve_checks] == [Fraction(1, 2), Fraction(1, 2)]
    assert not is_kahler(q, parse_class(q, "C")).verdict  # null ruling
    assert not is_kahler(q, parse_class(q, "C-D")).verdict


def test_is_kahler_ansatz_class():
    sol = solve_symmetric_ansatz(9)
    cert = sol.cone
    assert cert.verdict and cert.self_intersection == 4
    assert intersect(blowup_cp2(9), sol.kahler_class, blowup_cp2(9).c1) == 4


def test_scale_invariance_of_verdict():
    m = blowup_cp2(3)
    rng = random.Random(2)
    for _ in range(50):
        f = CohClass.of([rng.randint(-4, 9)] + [rng.randint(-4, 4) for _ in range(3)])
        base = is_kahler(m, f).verdict
        for s in (2, Fraction(1, 3), Fraction(7, 5)):
            assert is_kahler(m, s * f).verdict == base


def test_cone_convexity_on_samples():
    m = blowup_cp2(4)
    rng = random.Random(9)
    kahler_classes = []
    while len(kahler_classes) < 12:
        f = CohClass.of([rng.randint(1, 9)] + [rng.randint(-3, 0) for _ in range(4)])
        if is_kahler(m, f).verdict:
            kahler_classes.append(f)
    for i, f1 in enumerate(kahler_classes):
        for f2 in kahler_classes[i:]:
            assert is_kahler(m, f1 + f2).verdict


def test_user_witness_recorded():
    m = blowup_cp2(2)
    f = parse_class(m, "6H-2E1-2E2")
    cert = is_kahler(m, f, witness=parse_class(m, "5H-E1-E2"))
    assert cert.witness_source == "user" and cert.verdict


def test_missing_witness_on_custom_model():
    m = custom_model("bare", [[1]], [2], curves=[])
    with pytest.raises(MissingAmpleWitness):
        is_kahler(m, parse_class(m, "[1]"))


def test_anticanonical_ray_flag():
    m = blowup_cp2(3)
    assert is_kahler(m, 2 * m.c1).anticanonical_ray
    assert not is_kahler(m, parse_class(m, "5H-E1-E2-E3")).anticanonical_ray


def test_pairing_table_models_have_no_cone_check():
    from cytforge.errors import CytForgeError
    from cytforge.surfaces import kummer_model, parse_class

    model = kummer_model()
    with pytest.raises(CytForgeError, match="cone checks need a full lattice model"):
        is_kahler(model, parse_class(model, "C1"))
