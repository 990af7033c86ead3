"""Runnable reproduction targets, one per worked construction, compared
against frozen expected certificates.

Expected values ship as JSON under ``cytforge/data/golden`` and were computed
by an independent symbolic recomputation (see ``tools/gen_golden.py``), never
typed in by hand.  A reproduction run recomputes everything through the
library pipeline and diffs against the frozen values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Optional

from .cyt import (
    BundleSpec,
    balanced_check,
    primitive_route_check,
    solve_scale,
    solve_symmetric_ansatz,
    verify_cyt,
)
from .scalars import exact_sign, format_scalar
from .skt import verify_skt
from .surfaces import (
    CohClass,
    blowup_cp2,
    divisibility_index,
    intersect,
    kummer_model,
    parse_class,
    projective_plane,
    quadric,
)
from .topology import topology_certificate


def _golden_name(section: str, k: Optional[int]) -> str:
    stem = section.replace(".", "_")
    if section[0].isdigit():
        stem = f"section_{stem}"
    return f"{stem}_k{k}.json" if k is not None else f"{stem}.json"


def load_golden(section: str, k: Optional[int] = None) -> dict:
    name = _golden_name(section, k)
    ref = resources.files("cytforge").joinpath("data", "golden", name)
    if not ref.is_file():
        raise FileNotFoundError(f"no frozen expected data for {section}"
                                + (f" k={k}" if k is not None else ""))
    return json.loads(ref.read_text(encoding="utf-8"))


def _pairings(model, classes, against) -> list[str]:
    return [format_scalar(intersect(model, w, against)) for w in classes]


def compute_4_1() -> dict:
    model = quadric()
    c = parse_class(model, "C")
    d = parse_class(model, "D")
    bundle = BundleSpec(model, (c, d))
    f = CohClass((Fraction(1, 2), Fraction(1, 2)))
    cyt = verify_cyt(bundle, f)
    skt = verify_skt(bundle)
    topo = topology_certificate(bundle)
    return {
        "kahler": f.serialize(),
        "lambdas": [format_scalar(x) for x in cyt.lambdas],
        "defect": cyt.defect.serialize(),
        "cyt_verdict": cyt.verdict,
        "skt_total": format_scalar(skt.total),
        "skt_verdict": skt.verdict,
        "diffeo_label": topo.diffeo_label,
        "betti": list(topo.tables.betti),
    }


def compute_4_2() -> dict:
    model = blowup_cp2(2)
    w1 = parse_class(model, "3H-E1-E2")
    w2 = parse_class(model, "H-2E1-E2")
    bundle = BundleSpec(model, (w1, w2))
    scale = solve_scale(bundle, w1)
    f = scale * w1
    cyt = verify_cyt(bundle, f)
    topo = topology_certificate(bundle)
    alpha = parse_class(model, "H+E1-3E2")
    beta = parse_class(model, "E1-E2")
    return {
        "scale": format_scalar(scale),
        "kahler": f.serialize(),
        "cone_self": format_scalar(cyt.cone.self_intersection),
        "curve_values": [format_scalar(c.value) for c in cyt.cone.curve_checks],
        "cyt_verdict": cyt.verdict,
        "diffeo_label": topo.diffeo_label,
        "witness_alpha_pairings": _pairings(model, (w1, w2), alpha),
        "witness_beta_pairings": _pairings(model, (w1, w2), beta),
        "solver_witnesses_found": topo.alpha is not None and topo.beta is not None,
        "betti": list(topo.tables.betti),
    }


def compute_4_3(k: int) -> dict:
    model = blowup_cp2(k)
    w1 = model.c1
    w2 = parse_class(model, "E1-E2")
    bundle = BundleSpec(model, (w1, w2))
    f = 2 * w1
    cyt = verify_cyt(bundle, f)
    topo = topology_certificate(bundle)
    alpha = parse_class(model, f"E{k}")
    beta = parse_class(model, f"E1-E{k}")
    return {
        "primitive_route": primitive_route_check(bundle, w1),
        "lambdas": [format_scalar(x) for x in cyt.lambdas],
        "cyt_verdict": cyt.verdict,
        "diffeo_label": topo.diffeo_label,
        "witness_alpha_pairings": _pairings(model, (w1, w2), alpha),
        "witness_beta_pairings": _pairings(model, (w1, w2), beta),
        "betti": list(topo.tables.betti),
    }


def compute_4_4(k: int) -> dict:
    model = blowup_cp2(k, "on_cubic")
    sol = solve_symmetric_ansatz(k)
    if sol is None:
        return {"solution_found": False}
    bundle = BundleSpec(model, (sol.omega1, sol.omega2))
    cyt = verify_cyt(bundle, sol.kahler_class)
    topo = topology_certificate(bundle)
    alpha = parse_class(model, f"E{k}")
    beta = parse_class(model, "H-E5-E6-E7-E8")
    f = sol.kahler_class
    return {
        "solution_found": True,
        "n": format_scalar(sol.n),
        "n_first4": format_scalar(sol.n_first4),
        "n_rest": format_scalar(sol.n_rest),
        "q_ff": format_scalar(intersect(model, f, f)),
        "q_w1_f": format_scalar(intersect(model, sol.omega1, f)),
        "q_w2_f": format_scalar(intersect(model, sol.omega2, f)),
        "n_minus_3_positive": exact_sign(sol.n - 3) == 1,
        "cone_verdict": sol.cone.verdict,
        "cyt_verdict": cyt.verdict,
        "diffeo_label": topo.diffeo_label,
        "witness_alpha_pairings": _pairings(model, (sol.omega1, sol.omega2), alpha),
        "witness_beta_pairings": _pairings(model, (sol.omega1, sol.omega2), beta),
    }


def compute_5() -> dict:
    model = quadric()
    bundle = BundleSpec(model, (parse_class(model, "C"), parse_class(model, "D")))
    skt = verify_skt(bundle)
    return {
        "per_class_squares": [format_scalar(q) for q in skt.per_class_squares],
        "skt_total": format_scalar(skt.total),
        "skt_verdict": skt.verdict,
    }


def compute_6_1() -> dict:
    model = kummer_model((1, 1, 1, 1))
    w1 = parse_class(model, "C1-C2")
    w2 = parse_class(model, "C3-C4")
    bundle = BundleSpec(model, (w1, w2))
    f = parse_class(model, "F")
    skt = verify_skt(bundle)
    return {
        "balanced": balanced_check(bundle, f),
        "skt_total": format_scalar(skt.total),
        "skt_verdict": skt.verdict,
    }


def compute_maxroot() -> dict:
    plane = projective_plane()
    quad = quadric()
    bundle = BundleSpec(plane, (parse_class(plane, "H"), parse_class(plane, "0")))
    scale = solve_scale(bundle, parse_class(plane, "H"))
    cyt = verify_cyt(bundle, scale * parse_class(plane, "H"))
    return {
        "root_cp2": divisibility_index(plane.c1),
        "root_quadric": divisibility_index(quad.c1),
        "root_blowups": [divisibility_index(blowup_cp2(k).c1) for k in range(1, 9)],
        "scale": format_scalar(scale),
        "cyt_verdict": cyt.verdict,
    }


# section -> the k range its target needs, or None when it takes no k.  The
# target is compute_<section>, looked up by name when it runs, so a rebound
# module attribute (a test patch, a tracer) is the one called.
_K_RANGES = {
    "4.1": None,
    "4.2": None,
    "4.3": "3..8",
    "4.4": "9..12",
    "5": None,
    "6.1": None,
    "maxroot": None,
}
SECTIONS = tuple(_K_RANGES)


def _check(section: str, k: Optional[int]) -> None:
    if section not in _K_RANGES:
        raise ValueError(f"unknown section {section!r}; choose from {SECTIONS}")
    if _K_RANGES[section] is None:
        if k is not None:
            raise ValueError(f"section {section} takes no k")
    elif k is None:
        raise ValueError(f"section {section} needs k ({_K_RANGES[section]})")


def compute(section: str, k: Optional[int] = None) -> dict:
    _check(section, k)
    target = globals()["compute_" + section.replace(".", "_")]
    return target() if _K_RANGES[section] is None else target(k)


def diff_against(expected: dict, actual: dict) -> list[str]:
    diffs = []
    for key, want in expected.items():
        if key not in actual:
            diffs.append(f"{key}: missing from run")
        elif actual[key] != want:
            diffs.append(f"{key}: expected {want!r}, got {actual[key]!r}")
    return diffs


def reproduce_paper(section: str, k: Optional[int] = None) -> dict:
    """Run a target and compare with its frozen certificate.  Returns
    {"section", "k", "computed", "expected", "diffs"}, where diffs lists
    every value that disagrees.  The golden is loaded before the target
    runs, so a missing one costs nothing."""
    _check(section, k)
    golden = load_golden(section, k)
    computed = compute(section, k)
    diffs = diff_against(golden["expected"], computed)
    return {
        "section": section,
        "k": k,
        "computed": computed,
        "expected": golden["expected"],
        "diffs": diffs,
    }
