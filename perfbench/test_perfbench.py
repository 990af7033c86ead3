"""Tests for the benchmark's own helpers.  Run from the repository root with
PYTHONPATH=src python -m pytest perfbench/test_perfbench.py"""

import importlib
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib import (  # noqa: E402
    CERTIFY_MODELS,
    OP_KINDS,
    PASSING_PER_CELL,
    RANDOM_PER_CELL,
    Spans,
    ample_class,
    blowup_c1,
    blowup_gram,
    boundary_class,
    cyt_defect,
    generate_ops,
    median,
    orbit_key,
    pair,
    percentile,
    self_times,
)


# -- orbit canonicaliser ----------------------------------------------------

PAIR_GROUP = [(swap, s1, s2) for swap in (False, True) for s1 in (1, -1) for s2 in (1, -1)]


def orbit_key_brute(w1, w2):
    """The smallest image of the pair under every element of S_k x O(2, Z)."""
    k = len(w1) - 1
    best = None
    for perm in itertools.permutations(range(1, k + 1)):
        for swap, s1, s2 in PAIR_GROUP:
            x, y = (w2, w1) if swap else (w1, w2)
            x = [s1 * v for v in x]
            y = [s2 * v for v in y]
            key = (x[0], y[0]) + tuple(c for i in perm for c in (x[i], y[i]))
            if best is None or key < best:
                best = key
    return best


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_orbit_key_matches_brute_force_over_the_group(k):
    rng = random.Random(k)
    for _ in range(60):
        w1 = [rng.randint(-2, 2) for _ in range(k + 1)]
        w2 = [rng.randint(-2, 2) for _ in range(k + 1)]
        assert orbit_key(w1, w2) == orbit_key_brute(w1, w2)


def test_orbit_key_is_constant_on_orbits_and_separates_them():
    w1, w2 = (3, -1, -1, 0), (1, -2, 0, 1)
    key = orbit_key(w1, w2)
    for perm in itertools.permutations(range(1, 4)):
        x = (w1[0],) + tuple(w1[i] for i in perm)
        y = (w2[0],) + tuple(w2[i] for i in perm)
        for a, b in ((x, y), (y, x)):
            assert orbit_key(tuple(-v for v in a), b) == key
            assert orbit_key(a, tuple(-v for v in b)) == key
    # moving a coordinate of one class only leaves the orbit
    assert orbit_key((3, -1, 0, -1), w2) != key


# -- statistics -----------------------------------------------------------


def test_median_and_percentile_selection():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    values = list(range(1, 11))
    random.Random(0).shuffle(values)
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 91) == 10
    assert percentile(values, 100) == 10
    assert percentile([7.5], 90) == 7.5
    with pytest.raises(ValueError):
        percentile([], 90)
    with pytest.raises(ValueError):
        percentile([1], 0)
    with pytest.raises(ValueError):
        median([])


# -- spans ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_direct_children():
    spans = Spans()
    root = spans.add("root", -1, 0, 100)
    a = spans.add("a", root, 10, 40)
    spans.add("leaf", a, 15, 20)
    spans.add("b", root, 30, 60)  # overlaps a: the union 10..60 counts once
    spans.add("c", root, 90, 120)  # runs past its parent: only 90..100 counts
    spans.add("root", -1, 200, 210)
    table = self_times(spans)
    assert table["root"] == (2, 110, 40 + 10)
    assert table["a"] == (1, 30, 25)
    assert table["leaf"] == (1, 5, 5)
    assert table["b"] == (1, 30, 30)
    assert table["c"] == (1, 30, 30)


def test_tracer_spans_nest_and_patch_every_binding():
    cytforge = pytest.importorskip("cytforge")
    from tracer import Tracer

    # the package attribute `search` is the function, so reach modules by name
    cone, cyt, search = (importlib.import_module(f"cytforge.{m}") for m in ("cone", "cyt", "search"))
    original = cyt.solve_scale
    tracer = Tracer()
    tracer.install()
    try:
        for owner in (cytforge, cyt, search):
            assert owner.solve_scale.__wrapped__ is original
        assert cyt.is_kahler.__wrapped__ is cone.is_kahler.__wrapped__
        assert hasattr(cone.intersect, "__wrapped__")
        model = cytforge.blowup_cp2(3)
        cytforge.is_kahler(model, model.c1)
    finally:
        tracer.uninstall()
    assert search.solve_scale is original
    assert not hasattr(cone.intersect, "__wrapped__")
    table = self_times(tracer.spans)
    calls, total, own = table["cone.is_kahler"]
    assert calls == 1 and 0 < own < total
    assert table["surfaces.intersect"][0] == 1 + len(cytforge.negative_curves(model)) + 1
    assert tracer.counters["cone.curves_checked"] == 6


# -- certify generator ----------------------------------------------------


def test_generator_is_deterministic_for_a_seed():
    assert generate_ops(7, 0) == generate_ops(7, 0)
    assert generate_ops(7, 0) != generate_ops(8, 0)
    assert generate_ops(7, 0) != generate_ops(7, 1)


def test_generator_fills_every_cell_with_passing_and_random_ops():
    ops = generate_ops(3, 0)
    cells = {}
    for op in ops:
        cell = cells.setdefault((op.k, op.kind), [0, 0])
        cell[0 if op.passing else 1] += 1
        assert all(isinstance(a, str) for a in op.argv)
        assert op.argv[-2:] == ("--format", "json")
    assert set(cells) == {(k, kind) for k in CERTIFY_MODELS for kind in OP_KINDS}
    assert all(c == [PASSING_PER_CELL, RANDOM_PER_CELL] for c in cells.values())


def test_passing_cyt_ops_zero_the_defect_at_an_ample_class():
    for op in generate_ops(11, 0):
        if op.passing and op.kind == "verify":
            gram, c1 = blowup_gram(op.k), blowup_c1(op.k)
            assert not any(cyt_defect(gram, c1, op.omegas, op.cls))
            assert all(isinstance(x, Fraction) for x in op.cls)


def test_ample_classes_pair_positively_with_the_checked_curves():
    rng = random.Random(5)
    for k in CERTIFY_MODELS:
        gram = blowup_gram(k)
        f = ample_class(rng, k)
        assert pair(gram, f, f) > 0
        assert pair(gram, f, blowup_c1(k)) > 0
        for i in range(1, k + 1):
            assert pair(gram, f, [int(j == i) for j in range(k + 1)]) > 0
        b = boundary_class(rng, k)
        assert pair(gram, b, b) > 0
        assert [pair(gram, b, [int(j == i) for j in range(k + 1)]) == 0 for i in range(1, k + 1)] == [False] * (k - 1) + [True]


def test_metric_names_match_the_benchmark_file():
    from run import END_TO_END_UNITS, per_layer_names

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
