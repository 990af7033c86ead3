import random
from fractions import Fraction

import pytest

from cytforge.cyt import BundleSpec
from cytforge.errors import NotKahler
from cytforge.scalars import exact_sign
from cytforge.skt import hodge_obstruction, verify_skt
from cytforge.surfaces import (
    CohClass,
    blowup_cp2,
    intersect,
    kummer_model,
    parse_class,
    quadric,
)

HALF = Fraction(1, 2)


def test_verify_skt_quadric():
    q = quadric()
    report = verify_skt(BundleSpec(q, (parse_class(q, "C"), parse_class(q, "D"))))
    assert report.per_class_squares == (0, 0)
    assert report.total == 0 and report.verdict


def test_verify_skt_dp2():
    m = blowup_cp2(2)
    report = verify_skt(
        BundleSpec(m, (parse_class(m, "3H-E1-E2"), parse_class(m, "H-2E1-E2")))
    )
    assert report.per_class_squares == (7, -4)
    assert report.total == 3 and not report.verdict


def test_verify_skt_kummer():
    km = kummer_model((1, 1, 1, 1))
    report = verify_skt(BundleSpec(km, (parse_class(km, "C1-C2"), parse_class(km, "C3-C4"))))
    assert report.per_class_squares == (-4, -4)
    assert report.total == -8 and not report.verdict


def test_hodge_decomposition_quadric():
    q = quadric()
    f = CohClass((HALF, HALF))
    bundle = BundleSpec(q, (parse_class(q, "C"), parse_class(q, "D")))
    report = hodge_obstruction(bundle, f)
    row = report.hodge[0]
    assert row.trace_coefficient == 1
    assert row.primitive_part == CohClass((HALF, -HALF))
    assert row.primitive_square == -HALF
    assert report.all_primitive_obstruction is False


def test_hodge_trace_part_of_f_itself():
    m = blowup_cp2(2)
    f = 2 * m.c1
    bundle = BundleSpec(m, (2 * m.c1, CohClass.zero(3)))
    report = hodge_obstruction(bundle, f)
    assert report.hodge[0].primitive_part.is_zero()
    assert report.hodge[0].primitive_square == 0


def test_hodge_primitive_class():
    m = blowup_cp2(5)
    f = 2 * m.c1
    w = parse_class(m, "E1-E2")
    report = hodge_obstruction(BundleSpec(m, (w, w)), f)
    assert report.hodge[0].trace_coefficient == 0
    assert report.hodge[0].primitive_square == -2
    assert report.all_primitive_obstruction is True
    assert exact_sign(report.total) == -1  # hence never strong on this base


def test_hodge_report_extends_the_skt_report():
    m = blowup_cp2(3)
    f = 2 * m.c1
    zero, trace_free = CohClass.zero(4), parse_class(m, "E1-E2")
    cases = [
        ((trace_free, parse_class(m, "H")), False),  # H has a trace
        ((zero, zero), False),  # nothing nonzero to obstruct
        ((trace_free, zero), True),
    ]
    for ws, obstructed in cases:
        bundle = BundleSpec(m, ws)
        report, skt = hodge_obstruction(bundle, f), verify_skt(bundle)
        assert report.all_primitive_obstruction is obstructed
        assert (report.per_class_squares, report.total, report.verdict) == (
            skt.per_class_squares,
            skt.total,
            skt.verdict,
        )


def test_hodge_requires_kahler():
    m = blowup_cp2(2)
    bundle = BundleSpec(m, (parse_class(m, "E1"), parse_class(m, "E2")))
    with pytest.raises(NotKahler):
        hodge_obstruction(bundle, parse_class(m, "E1"))


def test_pythagoras_and_negativity_random():
    rng = random.Random(17)
    checked = 0
    for _ in range(300):
        k = rng.randint(2, 8)
        m = blowup_cp2(k)
        f = CohClass.of([k + 1] + [-1] * k)  # ample, hence Kaehler
        w = CohClass.of([rng.randint(-4, 4) for _ in range(k + 1)])
        if w.is_zero():
            continue
        bundle = BundleSpec(m, (w, w))
        report = hodge_obstruction(bundle, f)
        row = report.hodge[0]
        ff = Fraction(intersect(m, f, f))
        wf = Fraction(intersect(m, w, f))
        assert intersect(m, row.primitive_part, f) == 0
        assert intersect(m, w, w) == wf * wf / ff + row.primitive_square
        if not row.primitive_part.is_zero():
            assert exact_sign(row.primitive_square) == -1
        checked += 1
    assert checked > 250
