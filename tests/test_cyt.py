import random
from fractions import Fraction

import pytest

import property_suites
from cytforge import cyt
from cytforge.cone import is_kahler

from cytforge.cyt import (
    BundleSpec,
    balanced_check,
    c1_bundle_triviality,
    primitive_route_check,
    solve_scale,
    solve_symmetric_ansatz,
    verify_cyt,
)
from cytforge.errors import InvalidBundle, InvalidPosition, InvariantViolation, NotPositiveRay, RankMismatch
from cytforge.scalars import exact_sign, quadratic
from cytforge.surfaces import (
    CohClass,
    blowup_cp2,
    custom_model,
    intersect,
    kummer_model,
    parse_class,
    projective_plane,
    quadric,
)

HALF = Fraction(1, 2)


def quadric_bundle():
    q = quadric()
    return q, BundleSpec(q, (parse_class(q, "C"), parse_class(q, "D")))


def dp2_bundle():
    m = blowup_cp2(2)
    return m, BundleSpec(m, (parse_class(m, "3H-E1-E2"), parse_class(m, "H-2E1-E2")))


def test_bundle_validation():
    q = quadric()
    with pytest.raises(InvalidBundle):
        BundleSpec(q, (parse_class(q, "C"),))
    with pytest.raises(InvalidBundle):
        BundleSpec(q, (parse_class(q, "1/2C"), parse_class(q, "D")))
    with pytest.raises(InvalidBundle):
        BundleSpec(q, ())
    # zero classes are allowed
    BundleSpec(q, (parse_class(q, "C"), CohClass.zero(2)))


def test_lambda_trace_examples():
    q = quadric()
    f = CohClass((HALF, HALF))
    assert verify_cyt(BundleSpec(q, (parse_class(q, "C"), CohClass.zero(2))), f).lambdas == (2, 0)
    m5 = blowup_cp2(5)
    # the trace of F against itself is the dimension
    assert verify_cyt(BundleSpec(m5, (parse_class(m5, "E1-E2"), m5.c1)), m5.c1).lambdas == (0, 2)
    null = verify_cyt(BundleSpec(q, (parse_class(q, "C"), CohClass.zero(2))), parse_class(q, "C"))
    assert null.reason == "null_class" and null.lambdas == ()


def test_cyt_defect_quadric():
    q, bundle = quadric_bundle()
    assert verify_cyt(bundle, CohClass((HALF, HALF))).defect.is_zero()


def test_cyt_defect_dp2():
    m, bundle = dp2_bundle()
    w1 = parse_class(m, "3H-E1-E2")
    assert verify_cyt(bundle, 2 * w1).defect.is_zero()
    # at the unscaled class the defect is -w1: the condition is scale-sensitive
    assert verify_cyt(bundle, w1).defect == -w1


def test_verify_cyt_constructions_and_double_scale():
    q, qb = quadric_bundle()
    f_q = CohClass((HALF, HALF))
    m2, b2 = dp2_bundle()
    f_2 = 2 * parse_class(m2, "3H-E1-E2")

    cases = [(qb, f_q), (b2, f_2)]
    for k in range(3, 9):
        m = blowup_cp2(k)
        cases.append((BundleSpec(m, (m.c1, parse_class(m, "E1-E2"))), 2 * m.c1))
    for k in range(9, 13):
        sol = solve_symmetric_ansatz(k)
        cases.append((BundleSpec(blowup_cp2(k), (sol.omega1, sol.omega2)), sol.kahler_class))
    plane = projective_plane()
    cases.append((BundleSpec(plane, (parse_class(plane, "H"), CohClass.zero(1))), Fraction(2, 3) * parse_class(plane, "H")))

    for bundle, f in cases:
        assert verify_cyt(bundle, f).verdict, (bundle.base.name, f)
        assert not verify_cyt(bundle, 2 * f).verdict, bundle.base.name


def test_verify_cyt_failure_reason():
    m = blowup_cp2(2)
    bundle = BundleSpec(m, (parse_class(m, "E1"), parse_class(m, "E2")))
    cert = verify_cyt(bundle, parse_class(m, "6H-2E1-2E2"))
    assert not cert.verdict and cert.reason == "defect_nonzero"
    assert not cert.defect.coeffs[0] == 0  # H-component survives
    null = verify_cyt(bundle, parse_class(m, "H-E1"))
    assert not null.verdict and null.reason == "null_class"


def test_verify_cyt_reasons_after_a_zero_defect():
    # the rulings with F = (C + D)/2: both traces are 2, so the defect is zero
    q = quadric()
    f = Fraction(1, 2) * parse_class(q, "C+D")
    twin = property_suites.scalar_twin(q)  # a pairing table carries no cone data
    cert = verify_cyt(BundleSpec(twin, (parse_class(q, "C"), parse_class(q, "D"))), f)
    assert cert.defect_zero and cert.cone is None
    assert not cert.verdict and cert.reason == "no_cone_data"
    # the same form with C - D declared a negative curve: F.(C - D) = 0
    m = custom_model("q", [[0, 1], [1, 0]], [2, 2], curves=[[1, -1]], ample_witness=[1, 1])
    cert = verify_cyt(BundleSpec(m, (CohClass.of([1, 0]), CohClass.of([0, 1]))), f)
    assert cert.defect_zero and not cert.cone.verdict
    assert [c.value for c in cert.cone.curve_checks] == [0]
    assert not cert.verdict and cert.reason == "not_kahler"


def test_solved_scale_flag():
    m, bundle = dp2_bundle()
    cert = verify_cyt(bundle, parse_class(m, "3H-E1-E2"))
    assert not cert.verdict and cert.solved_scale == 2


def test_solve_scale_examples():
    m, bundle = dp2_bundle()
    assert solve_scale(bundle, parse_class(m, "3H-E1-E2")) == 2

    plane = projective_plane()
    pb = BundleSpec(plane, (parse_class(plane, "H"), CohClass.zero(1)))
    assert solve_scale(pb, parse_class(plane, "H")) == Fraction(2, 3)
    # sanity: the trace at the solved scale matches the full anti-canonical class
    assert verify_cyt(pb, Fraction(2, 3) * parse_class(plane, "H")).lambdas == (3, 0)


def test_solve_scale_sign_flip_still_solves():
    # (C, -D) traces like (C, D): the traced sum is quadratic in each class,
    # so the sign flip cancels and the defect still vanishes at 1/2 the ray
    q = quadric()
    bundle = BundleSpec(q, (parse_class(q, "C"), -1 * parse_class(q, "D")))
    s = solve_scale(bundle, parse_class(q, "C+D"))
    assert s == HALF
    assert verify_cyt(bundle, s * parse_class(q, "C+D")).verdict
    # the unscaled class fails: this is the CLI exit-1 example
    assert not verify_cyt(bundle, parse_class(q, "C+D")).verdict


def test_solved_scale_is_unique_on_ray():
    # the defect vanishes at the solved scale and at no other sampled scale
    m, bundle = dp2_bundle()
    ray = parse_class(m, "3H-E1-E2")
    s = solve_scale(bundle, ray)
    assert verify_cyt(bundle, s * ray).defect.is_zero()
    for other in (Fraction(1, 2) * s, 2 * s, s + 1, Fraction(1, 3)):
        assert not verify_cyt(bundle, other * ray).defect.is_zero()


def test_solve_scale_none_and_errors():
    q = quadric()
    c = parse_class(q, "C")
    bundle = BundleSpec(q, (c, c))
    assert solve_scale(bundle, parse_class(q, "C+D")) is None  # 2C not a multiple of c1
    with pytest.raises(NotPositiveRay):
        solve_scale(bundle, c)  # null ray
    flat = custom_model("flat", [[0, 1], [1, 0]], [0, 0], curves=[], ample_witness=[1, 1])
    fb = BundleSpec(flat, (parse_class(flat, "[1,-1]"), CohClass.zero(2)))
    assert solve_scale(fb, parse_class(flat, "[1,1]")) is None  # zero sum, c1 = 0


def test_ansatz_k9_exact():
    sol = solve_symmetric_ansatz(9)
    assert sol.n == quadratic(38, -20, 3)
    assert sol.n_first4 == quadratic(10, -5, 3)
    assert sol.n_rest == quadratic(14, -8, 3)
    m = blowup_cp2(9)
    f = sol.kahler_class
    assert intersect(m, f, f) == 4
    assert intersect(m, sol.omega1, f) == 2
    assert intersect(m, sol.omega2, f) == 2
    assert sol.omega1 + sol.omega2 == m.c1


def test_ansatz_inequalities():
    for k in range(9, 14):
        sol = solve_symmetric_ansatz(k)
        assert exact_sign(sol.n - 3) == 1
        for ni in (sol.n_first4, sol.n_rest):
            assert exact_sign(ni) == 1
            for nj in (sol.n_first4, sol.n_rest):
                assert exact_sign(sol.n - ni - nj) == 1


def test_ansatz_out_of_range():
    assert solve_symmetric_ansatz(8) is None
    assert solve_symmetric_ansatz(1) is None
    for k in (0, -3, 201):
        with pytest.raises(InvalidPosition, match=rf"^1 <= k <= 200 required, got k={k}$"):
            solve_symmetric_ansatz(k)


def test_c1_bundle_triviality():
    m, bundle = dp2_bundle()
    assert c1_bundle_triviality(bundle)
    q, qb = quadric_bundle()
    assert c1_bundle_triviality(qb)
    assert c1_bundle_triviality(
        BundleSpec(q, (parse_class(q, "C"), -1 * parse_class(q, "D")))
    )
    m2 = blowup_cp2(2)
    assert not c1_bundle_triviality(BundleSpec(m2, (parse_class(m2, "H"), parse_class(m2, "E1"))))


def test_balanced_check():
    km = kummer_model((1, 1, 1, 1))
    bundle = BundleSpec(km, (parse_class(km, "C1-C2"), parse_class(km, "C3-C4")))
    assert balanced_check(bundle, parse_class(km, "F"))

    q, qb = quadric_bundle()
    assert not balanced_check(qb, CohClass((HALF, HALF)))

    m = blowup_cp2(2)
    zb = BundleSpec(m, (CohClass.zero(3), CohClass.zero(3)))
    assert balanced_check(zb, 2 * m.c1)


def test_traced_sum_matches_the_scalar_loop():
    property_suites.check_traced_sum()


def test_rational_traces_come_from_one_integer_row(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return intersect(*args)

    monkeypatch.setattr(cyt, "intersect", counted)
    m, bundle = dp2_bundle()
    f = Fraction(2, 3) * m.c1
    assert verify_cyt(bundle, 3 * f).defect.is_zero()
    assert not balanced_check(bundle, f)
    assert not calls
    # a pairing table still pairs class by class
    km = kummer_model((1, 1, 1, 1))
    assert balanced_check(BundleSpec(km, (parse_class(km, "C1-C2"), parse_class(km, "C3-C4"))), parse_class(km, "F"))
    assert len(calls) == 2


def test_primitive_route():
    m5 = blowup_cp2(5)
    b5 = BundleSpec(m5, (m5.c1, parse_class(m5, "E1-E2")))
    assert primitive_route_check(b5, m5.c1)
    assert primitive_route_check(b5, 2 * m5.c1)  # ray property, not scale

    sol = solve_symmetric_ansatz(9)
    b9 = BundleSpec(blowup_cp2(9), (sol.omega1, sol.omega2))
    assert not primitive_route_check(b9, sol.kahler_class)

    q, qb = quadric_bundle()
    assert not primitive_route_check(qb, parse_class(q, "C+D"))


def test_lambda_scale_covariance():
    rng = random.Random(31)
    m = blowup_cp2(3)
    scales = [Fraction(1, 2), 2, Fraction(7, 5), Fraction(3, 11)]
    for _ in range(100):
        w = CohClass.of([rng.randint(-5, 5) for _ in range(4)])
        f = CohClass.of([rng.randint(1, 8)] + [rng.randint(-2, 0) for _ in range(3)])
        if intersect(m, f, f) == 0:
            continue
        bundle = BundleSpec(m, (w, CohClass.zero(4)))
        base = verify_cyt(bundle, f).lambdas[0]
        for s in scales:
            assert verify_cyt(bundle, s * f).lambdas == (base / s, 0)


def test_ansatz_pairing_check_is_explicit(monkeypatch):
    import cytforge.cyt as cyt_module
    from cytforge.errors import InvariantViolation

    monkeypatch.setattr(cyt_module, "intersect", lambda model, x, y: 0)
    with pytest.raises(InvariantViolation):
        solve_symmetric_ansatz(9)


def test_the_section_4_4_ansatz_holds_for_k_9_to_60():
    """For every k in 9..60 the ansatz root n lies in (3, 22/5), the class
    pairs as (4, 2, 2) with itself and the curvatures, and both the cone
    check and the CYT recheck pass: the sweep behind the all-k family."""
    for k in range(9, 61):
        sol = solve_symmetric_ansatz(k)
        assert sol is not None, k
        assert exact_sign(sol.n - 3) == 1 and exact_sign(Fraction(22, 5) - sol.n) == 1, k
        m, f = blowup_cp2(k, "on_cubic"), sol.kahler_class
        assert (intersect(m, f, f), intersect(m, sol.omega1, f), intersect(m, sol.omega2, f)) == (4, 2, 2), k
        assert sol.cone.verdict, k
        cert = verify_cyt(BundleSpec(m, (sol.omega1, sol.omega2)), f)
        assert cert.verdict and cert.reason is None, k


def test_trace_readers_match_the_class_by_class_reference():
    property_suites.check_trace_readers()


def test_kahler_class_of_the_wrong_rank_is_rejected():
    # the integer row would otherwise pair a truncated vector
    m, bundle = dp2_bundle()
    for f in (CohClass.of([3, -1]), CohClass.of([1, 1, 0, 5])):
        for check in (verify_cyt, solve_scale, balanced_check, primitive_route_check):
            with pytest.raises(RankMismatch, match=f"classes of rank {f.rank}/{f.rank} on a rank-3 model"):
                check(bundle, f)


def test_a_verdict_renders_no_fraction_and_a_read_renders_once(monkeypatch):
    m, bundle = dp2_bundle()
    renders = []

    def counted(name):
        func = vars(cyt._Traces)[name].func
        return property(lambda self: renders.append(name) or func(self))

    for name in ("lambdas", "traced"):
        monkeypatch.setattr(cyt._Traces, name, counted(name))
    cert = verify_cyt(bundle, 2 * m.c1)
    assert cert.verdict and cert.defect_zero and cert.solved_scale is None
    assert renders == []
    assert cert.lambdas == (1, 0) and cert.defect.is_zero()
    assert cert.lambdas == (1, 0) and cert.defect.is_zero()
    assert renders == ["lambdas", "traced"]
    scaled = verify_cyt(bundle, m.c1)  # solves only at twice this class
    assert not scaled.defect_zero and scaled.solved_scale == 2 and len(renders) == 2


def test_a_wrong_rendered_defect_fails_the_read(monkeypatch):
    m, bundle = dp2_bundle()
    solved, scaled = verify_cyt(bundle, 2 * m.c1), verify_cyt(bundle, m.c1)
    assert solved.defect_zero and not scaled.defect_zero
    monkeypatch.setattr(cyt._Traces, "traced", property(lambda self: CohClass.zero(3)))
    with pytest.raises(InvariantViolation, match="against defect_zero=True"):
        solved.defect
    monkeypatch.setattr(cyt._Traces, "traced", property(lambda self: self.bundle.base.c1))
    with pytest.raises(InvariantViolation, match="against defect_zero=False"):
        scaled.defect


def test_a_handed_cone_certificate_stands_in_only_for_its_own_class(monkeypatch):
    m, bundle = dp2_bundle()
    f = 2 * m.c1
    cone = is_kahler(m, f)
    calls = []
    monkeypatch.setattr(cyt, "is_kahler", lambda *args: calls.append(args) or is_kahler(*args))
    handed = cyt.cyt_certificate(bundle, f, cone)
    assert calls == [] and handed.cone is cone and handed.verdict
    assert handed == verify_cyt(bundle, f) and len(calls) == 1
    # an equal class that is another object, and the class on another model of the same rank
    foreign = [is_kahler(m, CohClass.of(list(f.coeffs))), is_kahler(blowup_cp2(2, "on_cubic"), f)]
    null = parse_class(m, "H-E1")  # checked before the null class is found
    for cone, g in [(foreign[0], f), (foreign[1], f), (is_kahler(m, null), CohClass.of([1, -1, 0]))]:
        with pytest.raises(InvariantViolation, match="^a cone certificate handed in is not the one of this class"):
            cyt.cyt_certificate(bundle, g, cone)
    # a class the defect test passes keeps its handed cone's failing verdict
    q = custom_model("q", [[0, 1], [1, 0]], [2, 2], curves=[[1, -1]], ample_witness=[1, 1])
    g = Fraction(1, 2) * CohClass.of([1, 1])
    cert = cyt.cyt_certificate(BundleSpec(q, (CohClass.of([1, 0]), CohClass.of([0, 1]))), g, is_kahler(q, g))
    assert cert.defect_zero and not cert.verdict and cert.reason == "not_kahler"
