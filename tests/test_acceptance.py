"""Acceptance suite: one test per criterion, each printing a PASS or FAIL
line and enforcing its stated exactness and runtime budget.

All comparisons are exact (integer / rational / quadratic-field equality);
no tolerances are involved anywhere.  Runtime budgets are wall-clock upper
bounds on this machine class and generous by an order of magnitude.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from cytforge.cone import negative_curves
from cytforge.cyt import (
    BundleSpec,
    balanced_check,
    primitive_route_check,
    solve_scale,
    solve_symmetric_ansatz,
    verify_cyt,
)
from cytforge.scalars import exact_sign, quadratic
from cytforge.search import SearchQuery, search
from cytforge.skt import verify_skt
from cytforge.surfaces import (
    CohClass,
    _neg1_classes,
    blowup_cp2,
    divisibility_index,
    intersect,
    kummer_model,
    parse_class,
    projective_plane,
    quadric,
)
from cytforge.topology import topology_certificate

import property_suites

HALF = Fraction(1, 2)


@contextmanager
def criterion(number: int, description: str, budget: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s): {description}")


def test_criterion_01_quadric_cyt_and_skt():
    with criterion(1, "quadric bundle is CYT (traces 2,2; zero defect) and strong", 1.0):
        q = quadric()
        bundle = BundleSpec(q, (parse_class(q, "C"), parse_class(q, "D")))
        f = CohClass((HALF, HALF))
        cert = verify_cyt(bundle, f)
        assert cert.verdict
        assert cert.lambdas == (2, 2)
        assert cert.defect.is_zero()
        skt = verify_skt(bundle)
        assert skt.total == 0 and skt.verdict


def test_criterion_02_two_point_blowup():
    with criterion(2, "two-point blow-up: scale 2, cone (28,2,2,2), label and witnesses", 1.0):
        m = blowup_cp2(2)
        w1, w2 = parse_class(m, "3H-E1-E2"), parse_class(m, "H-2E1-E2")
        bundle = BundleSpec(m, (w1, w2))
        assert solve_scale(bundle, w1) == 2
        f = parse_class(m, "6H-2E1-2E2")
        cert = verify_cyt(bundle, f)
        assert cert.verdict
        assert cert.cone.self_intersection == 28
        assert [c.value for c in cert.cone.curve_checks] == [2, 2, 2]
        topo = topology_certificate(bundle)
        assert topo.diffeo_label == "1(S²×S⁴) # 2(S³×S³)"
        alpha, beta = parse_class(m, "H+E1-3E2"), parse_class(m, "E1-E2")
        assert [intersect(m, w, alpha) for w in (w1, w2)] == [1, 0]
        assert [intersect(m, w, beta) for w in (w1, w2)] == [0, 1]
        assert topo.alpha is not None and topo.beta is not None


def test_criterion_03_einstein_route_k3_to_8():
    with criterion(3, "Einstein route for k = 3..8 with witnesses and labels", 6.0):
        for k in range(3, 9):
            m = blowup_cp2(k)
            w1, w2 = m.c1, parse_class(m, "E1-E2")
            bundle = BundleSpec(m, (w1, w2))
            assert primitive_route_check(bundle, w1)
            assert verify_cyt(bundle, 2 * w1).verdict
            alpha = parse_class(m, f"E{k}")
            beta = parse_class(m, f"E1-E{k}")
            assert [intersect(m, w, alpha) for w in (w1, w2)] == [1, 0]
            assert intersect(m, w1, beta) == 0 and abs(intersect(m, w2, beta)) == 1
            assert topology_certificate(bundle).diffeo_label == f"{k - 1}(S²×S⁴) # {k}(S³×S³)"


def test_criterion_04_symmetric_ansatz_k9_to_12():
    with criterion(4, "symmetric ansatz k = 9..12; k = 9 root is exactly 38-20*sqrt(3)", 4.0):
        for k in range(9, 13):
            sol = solve_symmetric_ansatz(k)
            m = blowup_cp2(k)
            assert exact_sign(sol.n - 3) == 1
            f = sol.kahler_class
            assert intersect(m, f, f) == 4
            assert intersect(m, sol.omega1, f) == 2
            assert intersect(m, sol.omega2, f) == 2
            assert exact_sign(sol.n_first4) == 1 and exact_sign(sol.n_rest) == 1
            for ni in (sol.n_first4, sol.n_rest):
                for nj in (sol.n_first4, sol.n_rest):
                    assert exact_sign(sol.n - ni - nj) == 1
            assert intersect(m, f, m.c1) == 4
            assert sol.cone.verdict
            if k >= 10:
                assert m.c1 in negative_curves(m)  # the cubic's transform is checked
                assert exact_sign(intersect(m, f, m.c1)) == 1
        assert solve_symmetric_ansatz(9).n == quadratic(38, -20, 3)


def test_criterion_05_curve_enumeration():
    with criterion(5, "(-1)-class counts 3,6,10,16,27,56,240 stable under a larger bound", 30.0):
        expected = {2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
        for k, count in expected.items():
            assert len(negative_curves(blowup_cp2(k))) == count
            assert _neg1_classes(k, 6) == _neg1_classes(k, 8)


def test_criterion_06_spectral_tables():
    with criterion(6, "rank tables, Betti numbers and zero Euler characteristic", 5.0):
        bundles = [BundleSpec(quadric(), (parse_class(quadric(), "C"), parse_class(quadric(), "D")))]
        m2 = blowup_cp2(2)
        bundles.append(BundleSpec(m2, (parse_class(m2, "3H-E1-E2"), parse_class(m2, "H-2E1-E2"))))
        for k in range(3, 9):
            m = blowup_cp2(k)
            bundles.append(BundleSpec(m, (m.c1, parse_class(m, "E1-E2"))))
        for k in range(9, 13):
            sol = solve_symmetric_ansatz(k)
            bundles.append(BundleSpec(blowup_cp2(k), (sol.omega1, sol.omega2)))
        for bundle in bundles:
            cert = topology_certificate(bundle)
            assert cert.diffeo_label != "unclassified"
            b = bundle.base.rank
            tables = cert.tables
            assert tables.e2 == ((1, 0, b, 0, 1), (2, 0, 2 * b, 0, 2), (1, 0, b, 0, 1))
            assert tables.e3 == (
                (1, 0, b - 2, 0, 0),
                (0, 0, 2 * b - 2, 0, 0),
                (0, 0, b - 2, 0, 1),
            )
            assert tables.betti[2] == b - 2 and tables.betti[3] == 2 * b - 2
            assert sum((-1) ** i * x for i, x in enumerate(tables.betti)) == 0


def test_criterion_07_kummer():
    with criterion(7, "Kummer fragment: balanced, not strong (total -8)", 1.0):
        km = kummer_model((1, 1, 1, 1))
        bundle = BundleSpec(km, (parse_class(km, "C1-C2"), parse_class(km, "C3-C4")))
        assert balanced_check(bundle, parse_class(km, "F"))
        skt = verify_skt(bundle)
        assert skt.total == -8 and not skt.verdict


def test_criterion_08_maximal_root():
    with criterion(8, "anti-canonical roots 3/2/1 and the plane bundle solving at 2/3", 1.0):
        plane = projective_plane()
        assert divisibility_index(plane.c1) == 3
        assert divisibility_index(quadric().c1) == 2
        for k in range(1, 9):
            m = blowup_cp2(k)
            assert divisibility_index(m.c1) == 1
        bundle = BundleSpec(plane, (parse_class(plane, "H"), CohClass.zero(1)))
        scale = solve_scale(bundle, parse_class(plane, "H"))
        assert scale == Fraction(2, 3)
        assert verify_cyt(bundle, scale * parse_class(plane, "H")).verdict


def test_criterion_09_property_suites():
    with criterion(9, "property suites, each at or above a thousand cases", 60.0):
        counts = {
            "field_axioms": property_suites.run_field_axioms(1000),
            "sign_oracle": property_suites.run_sign_oracle(10000),
            "snf_oracle": property_suites.run_snf_oracle(1000),
            "integer_solve": property_suites.run_integer_solve_oracle(1000),
            "lambda_covariance": property_suites.run_lambda_covariance(1000),
            "hodge": property_suites.run_hodge_suite(1000),
            "search_determinism": property_suites.run_search_determinism_and_reverify(),
        }
        for name, n in counts.items():
            assert n >= 1000, (name, n)
        print(f"  criterion 9 case counts: {counts}")


def test_criterion_10_search_finds_construction():
    with criterion(10, "bound-3 search over the two-point blow-up recovers the construction", 10.0):
        m = blowup_cp2(2)
        query = SearchQuery(model=m, coeff_bound=3, filters=frozenset({"cyt", "topology"}))
        records, stats = search(query, threads=4)
        key = property_suites.reference_key(m, (3, -1, -1), (1, -2, -1))
        hits = [r for r in records if r.canonical_key == key]
        assert hits, "the two-point pair must appear (as its dedup representative)"
        assert hits[0].kahler_class() == 2 * m.c1
        assert stats.exhausted
