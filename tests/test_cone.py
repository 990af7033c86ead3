import gc
import random
import weakref
from fractions import Fraction

import property_suites
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytforge import cone
from cytforge.cone import is_kahler, negative_curves
from cytforge.cyt import solve_symmetric_ansatz
from cytforge.errors import CytForgeError, InvariantViolation, MissingAmpleWitness, MissingCurveData, RankMismatch
from cytforge.scalars import quadratic
from cytforge.surfaces import (
    CohClass,
    _neg1_classes,
    blowup_cp2,
    builtin_model,
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


def test_on_cubic_cone_check_sees_the_conic():
    m = blowup_cp2(5, "on_cubic")
    f = parse_class(m, "10H-21/5E1-21/5E2-21/5E3-21/5E4-21/5E5")
    conic = parse_class(m, "2H-E1-E2-E3-E4-E5")
    assert intersect(m, conic, conic) == -1 and intersect(m, f, conic) == -1
    assert not is_kahler(m, f).verdict


def test_quadric_and_plane_have_no_negative_curves():
    assert negative_curves(quadric()) == []
    assert negative_curves(projective_plane()) == []
    q = quadric()  # the cone check pairs with the two null rulings instead
    cert = is_kahler(q, parse_class(q, "C+D"))
    assert [c.coeffs for c in cert.curves] == [(1, 0), (0, 1)] and cert.curve_signs == (1, 1)


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


def test_cone_kernel_matches_the_per_curve_reference():
    property_suites.check_cone_kernel()


def _count_calls(monkeypatch):
    """Count cone.intersect calls and CurveCheck objects built."""
    counts = {"intersect": 0, "checks": 0}
    curve_check = cone.CurveCheck

    def counted_intersect(*args):
        counts["intersect"] += 1
        return intersect(*args)

    def counted_check(*args):
        counts["checks"] += 1
        return curve_check(*args)

    monkeypatch.setattr(cone, "intersect", counted_intersect)
    monkeypatch.setattr(cone, "CurveCheck", counted_check)
    return counts


def test_a_verdict_renders_no_curve_checks(monkeypatch):
    counts = _count_calls(monkeypatch)
    m = blowup_cp2(3)
    curves = len(negative_curves(m))
    cert = is_kahler(m, m.c1)
    assert cert.verdict
    assert counts == {"intersect": 2, "checks": 0}  # Q(F,F) and the ample witness
    checks = cert.curve_checks
    assert counts == {"intersect": 2 + curves, "checks": curves}
    assert cert.curve_checks is checks
    assert counts["intersect"] == 1 + curves + 1  # what the span tracer counts
    assert [c.value for c in checks] == [1] * curves


def test_an_irrational_class_renders_its_checks_on_read(monkeypatch):
    sol = solve_symmetric_ansatz(9)
    counts = _count_calls(monkeypatch)
    m = blowup_cp2(9)
    cert = is_kahler(m, sol.kahler_class)
    curves = len(negative_curves(m))
    assert cert.verdict
    assert counts == {"intersect": 2, "checks": 0}  # Q(F,F) and the ample witness
    assert [c.sign for c in cert.curve_checks] == [1] * curves
    assert counts == {"intersect": 1 + curves + 1, "checks": curves}


def test_verify_cyt_rechecks_the_ansatz_class_from_the_memo(monkeypatch):
    from cytforge.cyt import BundleSpec, verify_cyt

    computed = []
    row_signs = cone._row_signs
    monkeypatch.setattr(cone, "_row_signs", lambda *args: computed.append(args[1] is not None) or row_signs(*args))
    for k in (9, 12):
        m = blowup_cp2(k, "on_cubic")
        m.cone_rows[1].clear()
        sol = solve_symmetric_ansatz(k)
        f = sol.kahler_class
        bundle = BundleSpec(m, (sol.omega1, sol.omega2))
        for g in (f, CohClass(f.coeffs), Fraction(5, 3) * f):  # the class, a copy, a positive multiple
            assert verify_cyt(bundle, g).cone.curve_signs == sol.cone.curve_signs
    assert computed == [True, True]  # one surd sign vector per model


def test_a_corrupted_row_fails_the_rendered_cross_check(monkeypatch):
    m = blowup_cp2(3)
    rows, _ = m.cone_rows
    flipped = (tuple(-g for g in rows[0]),) + rows[1:]
    monkeypatch.setitem(m.__dict__, "cone_rows", (flipped, {}))  # the model's store, with a fresh memo
    cert = is_kahler(m, m.c1)
    assert not cert.verdict
    with pytest.raises(InvariantViolation, match="integer row gave the sign -1"):
        cert.curve_checks


def test_a_curve_of_the_wrong_rank_still_raises():
    # a model file may list a curve with too few coefficients
    m = custom_model("short", [[1, 0], [0, -1]], [3, -1], curves=[[0]], ample_witness=[2, -1])
    with pytest.raises(RankMismatch, match="classes of rank 2/1 on a rank-2 model"):
        is_kahler(m, parse_class(m, "[2,-1]"))


def test_a_custom_model_is_freed_after_its_cone_check():
    m = custom_model("freed", [[1, 0], [0, -1]], [3, -1], curves=[[0, 1]], ample_witness=[2, -1])
    assert is_kahler(m, parse_class(m, "[2,-1]")).verdict
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None  # the curve store lives on the model, not in a cache keyed on it


@pytest.mark.parametrize("spec", ["blowup_cp2(2)", "blowup_cp2(8)", "blowup_cp2(9,on_cubic)", "blowup_cp2(10,on_cubic)"])
def test_negative_curves_are_the_objects_the_cone_check_pairs_with(spec):
    m = builtin_model(spec)
    curves = negative_curves(m)
    cert = is_kahler(m, 2 * m.ample_witness)
    assert len(cert.curves) == len(curves) and all(a is b for a, b in zip(cert.curves, curves))
    assert negative_curves(m) == curves and all(a is b for a, b in zip(negative_curves(m), curves))


@pytest.mark.parametrize("curve", [[Fraction(1, 2), 1], [quadratic(1, 1, 3), 1]], ids=["fraction", "sqrt3"])
def test_a_non_integral_curve_is_rejected(curve):
    m = custom_model("frac", [[1, 0], [0, -1]], [3, -1], curves=[[0, 1], curve], ample_witness=[2, -1])
    for check in (lambda: is_kahler(m, parse_class(m, "[2,-1]")), lambda: negative_curves(m)):
        with pytest.raises(CytForgeError, match="is not integral"):
            check()


_CURVE_CHECK_MODELS = (
    *(blowup_cp2(k) for k in range(1, 9)),
    *(blowup_cp2(k, "on_cubic") for k in range(9, 13)),
    quadric(),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_curve_check_values_equal_intersect_per_curve(data):
    """Each rendered value equals intersect(model, F, C) in value and type
    (int, Fraction or QuadraticNumber), and a plain reference dot in value,
    for rational classes and classes in Q(sqrt(d))."""
    model = data.draw(st.sampled_from(_CURVE_CHECK_MODELS))
    d = data.draw(st.sampled_from((None, 2, 3, 5, 7)))
    if d is None:
        f = data.draw(property_suites.classes(model.rank))
    else:
        f = property_suites._surd_class(data.draw, model, d)
    cert = is_kahler(model, f)
    assert [c.curve for c in cert.curve_checks] == list(cert.curves)
    for check in cert.curve_checks:
        value = intersect(model, f, check.curve)
        assert (check.value, type(check.value)) == (value, type(value))
        assert check.value == property_suites._reference_intersect(model, f, check.curve)
        assert type(check.value) is property_suites._pairing_type(f, check.curve, check.value)
