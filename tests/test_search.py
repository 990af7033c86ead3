import contextlib
import dataclasses
import importlib
import itertools
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import property_suites
import pytest

from cytforge import forkjoin
from cytforge.catalog import VerdictFlags
from cytforge.cyt import BundleSpec, verify_cyt
from cytforge.errors import BoundTooLarge
from cytforge.intlinalg import _gf2_mask
from cytforge.search import (
    REJECT_STAGES,
    SearchQuery,
    _orbit_min,
    _pair_text,
    _permutes_exceptionals,
    resolve_threads,
    search,
)
from cytforge.skt import verify_skt
from cytforge.surfaces import CohClass, blowup_cp2, custom_model, parse_class, projective_plane, quadric
from cytforge.topology import UNCLASSIFIED, topology_certificate


# the package attribute `search` is the function, so reach the module by name
search_module = importlib.import_module("cytforge.search")


def keys_of(records):
    return [r.canonical_key for r in records]


def orbit_key(model, v1, v2, signs=True):
    """The search's key for the pair: its least image, spelled."""
    return _pair_text(*_orbit_min(v1, v2, _permutes_exceptionals(model), signs))


def test_finds_two_point_construction():
    q = SearchQuery(model=blowup_cp2(2), coeff_bound=3, filters=frozenset({"cyt", "topology"}))
    records, stats = search(q, threads=1)
    m = blowup_cp2(2)
    key = orbit_key(m, (3, -1, -1), (1, -2, -1))
    hits = [r for r in records if r.canonical_key == key]
    assert hits, "the two-point construction must be discovered"
    rec = hits[0]
    assert rec.kahler is not None
    assert rec.kahler_class() == 2 * m.c1
    assert rec.flags.topology_label == "1(S²×S⁴) # 2(S³×S³)"
    assert stats.exhausted


def test_finds_quadric_pair():
    model = quadric()
    q = SearchQuery(model=model, coeff_bound=1, filters=frozenset({"cyt", "skt"}))
    records, _ = search(q, threads=1)
    key = orbit_key(model, (1, 0), (0, 1))
    assert key in keys_of(records)


def test_skt_topology_spin_terminates():
    q = SearchQuery(
        model=blowup_cp2(2), coeff_bound=1, filters=frozenset({"skt", "topology", "spin"})
    )
    records, stats = search(q, threads=1)
    assert stats.exhausted and stats.bound == 1  # may be empty; must report exhaustion


def test_search_deterministic_and_parallel_equal():
    q = SearchQuery(model=blowup_cp2(2), coeff_bound=3, filters=frozenset({"cyt", "topology"}))
    serial_a, _ = search(q, threads=1)
    serial_b, _ = search(q, threads=1)
    parallel, _ = search(q, threads=4)
    assert [r.to_line() for r in serial_a] == [r.to_line() for r in serial_b]
    assert [r.to_line() for r in serial_a] == [r.to_line() for r in parallel]


def test_records_reverify():
    q = SearchQuery(model=blowup_cp2(2), coeff_bound=3, filters=frozenset({"cyt", "topology"}))
    records, _ = search(q, threads=1)
    assert records
    m = blowup_cp2(2)
    for rec in records:
        bundle = BundleSpec(m, (CohClass.of(rec.omega1), CohClass.of(rec.omega2)))
        assert verify_cyt(bundle, rec.kahler_class()).verdict == rec.flags.cyt
        assert topology_certificate(bundle).diffeo_label == rec.flags.topology_label


def test_emission_is_lexicographic():
    q = SearchQuery(model=quadric(), coeff_bound=1, filters=frozenset({"skt"}))
    records, _ = search(q, threads=1)
    pairs = [(r.omega1, r.omega2) for r in records]
    assert pairs == sorted(pairs)


def test_canonical_form_orbits():
    m3 = blowup_cp2(3)
    c1, e1_e2, e2_e3 = (3, -1, -1, -1), (0, 1, -1, 0), (0, 0, 1, -1)

    def neg(v):
        return tuple(-c for c in v)

    for signs in (False, True):
        a = orbit_key(m3, c1, e1_e2, signs)
        assert a == orbit_key(m3, c1, e2_e3, signs) == orbit_key(m3, e2_e3, c1, signs)
        q = quadric()
        assert orbit_key(q, (1, 0), (0, 1), signs) == orbit_key(q, (0, 1), (1, 0), signs)  # (C, D) and (D, C)
        assert a != orbit_key(m3, (1, 0, 0, 0), (0, 1, 0, 0), signs)  # (H, E1)
        # a fiber sign change moves the pair into the orbit only with the signs
        flipped = {orbit_key(m3, neg(c1), e1_e2, signs), orbit_key(m3, neg(c1), neg(e2_e3), signs)}
        assert flipped == {a} if signs else a not in flipped
    assert orbit_key(m3, c1, e1_e2) == "-3,1,1,1|0,-1,0,1"


def test_canonical_form_is_orbit_minimum():
    """Column-sorting must agree with brute-force minimization over the group,
    which is the swap alone when some permutation of E1..E3 moves the Gram
    matrix or c1, times the fiber sign changes when signs is set."""
    import random

    rng = random.Random(77)
    m3 = blowup_cp2(3)
    models = [
        (m3, list(itertools.permutations(range(1, 4)))),
        (custom_model("m", NON_INVARIANT_GRAM, [3, -1, -1, -1]), [(1, 2, 3)]),
        (custom_model("c1", m3.gram, [3, -1, -1, 0]), [(1, 2, 3)]),
    ]
    for m, perms in models:
        for _ in range(60):
            v1 = tuple(rng.randint(-2, 2) for _ in range(4))
            v2 = tuple(rng.randint(-2, 2) for _ in range(4))
            for signs in (False, True):
                key = orbit_key(m, v1, v2, signs)
                best = None
                for perm in perms:
                    for a, b in ((v1, v2), (v2, v1)):
                        for s1, s2 in ((1, 1), (-1, 1), (1, -1), (-1, -1)) if signs else ((1, 1),):
                            pa = (s1 * a[0],) + tuple(s1 * a[i] for i in perm)
                            pb = (s2 * b[0],) + tuple(s2 * b[i] for i in perm)
                            cand = pa + pb
                            if best is None or cand < best:
                                best = cand
                half = len(best) // 2
                oracle = ",".join(map(str, best[:half])) + "|" + ",".join(map(str, best[half:]))
                assert key == oracle == property_suites.reference_key(m, v1, v2, signs)


def test_labels_found_for_small_k():
    for k in range(2, 6):
        model = blowup_cp2(k)
        q = SearchQuery(model=model, coeff_bound=3, filters=frozenset({"cyt", "topology", "spin"}))
        records, _ = search(q)
        assert records, f"no records for k={k}"
        want = f"{k - 1}(S²×S⁴) # {k}(S³×S³)"
        assert all(r.flags.topology_label == want for r in records), k


def test_bound_guards():
    with pytest.raises(BoundTooLarge):
        SearchQuery(model=blowup_cp2(8), coeff_bound=7, filters=frozenset({"cyt"}))
    # one cap on every model, checked before any table is built
    assert SearchQuery(model=quadric(), coeff_bound=search_module.MAX_COEFF_BOUND, filters=frozenset({"skt"}))
    for model in (quadric(), blowup_cp2(3)):
        with pytest.raises(BoundTooLarge, match=r"^coeff_bound <= 1000 required$"):
            SearchQuery(model=model, coeff_bound=search_module.MAX_COEFF_BOUND + 1, filters=frozenset({"cyt"}))
    with pytest.raises(BoundTooLarge):
        # unfiltered enumeration on a rank-6 model explodes and is refused
        search(SearchQuery(model=blowup_cp2(5), coeff_bound=3, filters=frozenset({"spin"})))
    with pytest.raises(ValueError):
        SearchQuery(model=quadric(), coeff_bound=0, filters=frozenset())
    with pytest.raises(ValueError):
        from cytforge.surfaces import kummer_model
        SearchQuery(model=kummer_model(), coeff_bound=1, filters=frozenset({"skt"}))
    with pytest.raises(ValueError):
        SearchQuery(model=quadric(), coeff_bound=1, filters=frozenset({"bogus"}))


@pytest.mark.parametrize("threads", [1, 2])
def test_a_large_modulus_ray_keeps_its_catalog(tmp_path, threads):
    # on blowup_cp2(4), 1000000H-E1-E2-E3-E4 has m = Q(c1,R) = 2 999 996; the
    # walk solves each q2 from one coordinate, so no table of size m is built.
    # The catalog is the one the search wrote when it tabled the roots mod m
    import hashlib

    from cytforge.catalog import append_records

    model = blowup_cp2(4)
    ray = parse_class(model, "1000000H-E1-E2-E3-E4")
    assert search_module._RayData("ray", model, ray, 3).m == 2_999_996
    query = SearchQuery(model=model, coeff_bound=3, filters=frozenset({"cyt", "topology"}), ray=ray)
    records, stats = search(query, threads=threads)
    path = tmp_path / "catalog.jsonl"
    append_records(str(path), records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "70b1e5b67e96b704174e32ccd2c0048f47f0bb59752067a385323c535bdf697c"
    )
    assert (stats.pairs_evaluated, stats.pairs_skipped, stats.records_emitted) == (91, 23, 42)
    assert stats.cyt_routes == ("ray", "anticanonical_ray")


def test_limit_and_threads_env(monkeypatch):
    q = SearchQuery(model=quadric(), coeff_bound=1, filters=frozenset({"skt"}), limit=3)
    records, stats = search(q, threads=1)
    assert len(records) == 3 and not stats.exhausted
    records, stats = search(dataclasses.replace(q, limit=0), threads=1)
    assert records == [] and not stats.exhausted
    with pytest.raises(ValueError):
        dataclasses.replace(q, limit=-1)
    monkeypatch.setenv("CYT_FORGE_THREADS", "2")
    assert resolve_threads(8) == 2
    assert resolve_threads(1) == 1
    monkeypatch.delenv("CYT_FORGE_THREADS")
    assert resolve_threads(3) == 3


def test_skt_records_verify():
    model = blowup_cp2(2)
    q = SearchQuery(model=model, coeff_bound=1, filters=frozenset({"skt"}))
    records, _ = search(q, threads=1)
    assert records
    for rec in records[:50]:
        bundle = BundleSpec(model, (CohClass.of(rec.omega1), CohClass.of(rec.omega2)))
        assert verify_skt(bundle).verdict


def test_record_must_stand_on_full_certificate(monkeypatch):
    from cytforge.errors import InvariantViolation

    monkeypatch.setattr(search_module, "cyt_certificate", lambda bundle, f, cone: SimpleNamespace(verdict=False))
    q = SearchQuery(model=blowup_cp2(2), coeff_bound=3, filters=frozenset({"cyt"}))
    with pytest.raises(InvariantViolation):
        search(q, threads=1)


def test_a_recheck_handed_another_classs_cone_certificate_raises(monkeypatch):
    from cytforge.cone import is_kahler
    from cytforge.errors import InvariantViolation

    source = search_module._RayData.source
    q = SearchQuery(model=blowup_cp2(3), coeff_bound=2, filters=frozenset({"cyt"}))
    assert search(q, threads=1)[0]
    # the source's class rebuilt as another object, and the class on another model
    strangers = (
        lambda rd, f: is_kahler(rd.model, CohClass.of(list(f.coeffs))),
        lambda rd, f: is_kahler(blowup_cp2(3, "on_cubic"), f),
    )
    for stranger in strangers:
        def foreign(rd, lam, stranger=stranger):
            f, route, scale, cone = source(rd, lam)
            return f, route, scale, stranger(rd, f)

        monkeypatch.setattr(search_module._RayData, "source", foreign)
        with pytest.raises(InvariantViolation, match="^a cone certificate handed in is not the one of this class"):
            search(q, threads=1)


def test_the_ansatz_source_carries_its_own_cone_certificate():
    for k in (9, 10, 11, 12):
        model = blowup_cp2(k, "on_cubic")
        plan = search_module._Plan(SearchQuery(model=model, coeff_bound=4, filters=frozenset({"cyt"})))
        kahler, route, scale, cone = plan.ansatz_source
        assert (route, scale, cone.verdict) == ("ansatz", None, True), k
        property_suites.check_carried_cone(model, kahler, cone)


def frozen_without_and_with_signs(tmp_path, query, threads, v1, v2):
    """Check the catalog of the query written with the fiber sign variants
    off (v1, S_k x swap as before they joined) and on (v2), each against
    (sha256, (visited, skipped, records)), and the v2 one against the v1 one
    reduced by the signs; returns both record lists."""
    import hashlib

    from cytforge.catalog import append_records

    runs = []
    for group, (digest, counts) in ((property_suites.without_signs(), v1), (contextlib.nullcontext(), v2)):
        with group:
            records, stats = search(query, threads=threads)
        path = tmp_path / f"catalog-{len(runs)}.jsonl"
        path.unlink(missing_ok=True)  # append_records appends
        append_records(str(path), records)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, len(runs)
        assert (stats.pairs_evaluated, stats.pairs_skipped, stats.records_emitted) == counts, len(runs)
        runs.append(records)
    old, new = runs
    if "signs" in stats.symmetry:
        old = property_suites.sign_reduced(query.model, old)
    assert [r.to_line() for r in old] == [r.to_line() for r in new]
    return runs


# sha256 of the catalog bytes `cytforge search --out` wrote for these queries
# before search and topology moved to integer tuples (v1), and after the
# fiber signs joined the group (v2), with the (visited, skipped, records)
# of each; the digests must not move.  The counts are those of the partners
# generated in the rule's lead window: skt ones from their square and sorted
# on the runs, cyt ones from the walk
FROZEN_CATALOGS = (
    (
        frozenset({"cyt", "topology", "spin"}),
        ("4e6761a9ed00804bdec39da6b6964f3f304b6501e263610872b928edab65929f", (12, 0, 12)),
        ("d19e221cac34e4b167c29cd9aaa9e4bf1bdc3d793e8650535e948c911de6029c", (3, 0, 3)),
    ),
    (
        frozenset({"skt"}),
        ("34d834b19d45f82414c3e96b359eac0b64d2025aa540be19f6e48a6de9862b24", (961, 188, 773)),
        ("4b628ce0719b0ed80901ed9abbd9cef48116cb5a04391f9b32cc6b1707b4e67c", (319, 120, 199)),
    ),
)


@pytest.mark.parametrize("filters,v1,v2", FROZEN_CATALOGS, ids=[f"filters{i}-{c[1][0]}" for i, c in enumerate(FROZEN_CATALOGS)])
def test_catalog_bytes_frozen(tmp_path, filters, v1, v2):
    query = SearchQuery(model=blowup_cp2(3), coeff_bound=2, filters=filters)
    frozen_without_and_with_signs(tmp_path, query, 1, v1, v2)


# sha256 of the `cytforge search --out` skt catalogs for blowup_cp2(k) at
# bound 3, written when every box vector was bucketed by its square, with
# the (visited, skipped, records) of the partners generated from it
FROZEN_SKT_CATALOGS = {
    4: ("667d9af800752d40b858fb8fd9df3533b8eff304141af7f61a1377101b49861a", (8019, 2586, 5433)),
    5: ("e791e4de15629d91d4b646d40fe3bbb543a8a91ca23a5f3295c1197d84dd346e", (24931, 8880, 16051)),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("k", sorted(FROZEN_SKT_CATALOGS))
def test_skt_catalog_bytes_frozen(tmp_path, k, threads):
    import hashlib

    from cytforge.catalog import append_records

    query = SearchQuery(model=blowup_cp2(k), coeff_bound=3, filters=frozenset({"skt"}))
    records, stats = search(query, threads=threads)
    path = tmp_path / "catalog.jsonl"
    append_records(str(path), records)
    digest, counts = FROZEN_SKT_CATALOGS[k]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert (stats.pairs_evaluated, stats.pairs_skipped, stats.records_emitted) == counts


# sha256 of the `cytforge search --out` catalogs for blowup_cp2(k) at bound 3
# with cyt+topology+spin, written before the trace-free candidates were
# generated sorted (v1), and after the fiber signs joined the group (v2);
# (visited, skipped, records) with each, of the partners generated in the
# rule's lead window
FROZEN_WALL_CATALOGS = (
    (
        5,
        ("1f24e4e1b4d28f689618406d5f77ad2960b8f56ea23c8265611ac6e86722550d", (484, 26, 346)),
        ("fe9b3a4c3398f4c7787ebd34aca1b8ee9eb5d02fb16ec21b39b9feca5a643e11", (159, 38, 89)),
    ),
    (
        6,
        ("9d3d190f6972b5938e8f00ec769fe17b5aa41dedf903281fedfb5190e9e2c661", (662, 52, 526)),
        ("67ba5602a68b7dedb5ffa806991f20778fa5ac30a43bd30a8151ad135ec12e08", (210, 45, 138)),
    ),
)


@pytest.mark.parametrize(
    "k,v1,v2", FROZEN_WALL_CATALOGS, ids=[f"{c[0]}-{c[1][0]}-counts{i}" for i, c in enumerate(FROZEN_WALL_CATALOGS)]
)
def test_sorted_trace_free_catalog_bytes_frozen(tmp_path, k, v1, v2):
    filters = frozenset({"cyt", "topology", "spin"})
    query = SearchQuery(model=blowup_cp2(k), coeff_bound=3, filters=filters)
    frozen_without_and_with_signs(tmp_path, query, 2, v1, v2)


# the catalogs CI writes with `cytforge search --out` (model, bound, filters;
# the v1 and v2 digests with the counts of the partners generated in the
# rule's lead window, as its stderr line states them):
# the search wall, the spin filter without cyt and the one-shot skt catalog.
# CI checks the v2 side, serial and on 2 workers; this checks both sides
_WALL = ("cyt", "topology", "spin")
CI_CATALOGS = [
    (7, 3, _WALL, ("447db0049faab6f5622630af1a550aba36f0dc245f262e55de2562d2b1d56d8e", (1508, 106, 1238)),
     ("eefb5e7fc1680a3f746971fc549b34772cea81b296afce46d68fbd807bf42432", (492, 129, 316))),
    (8, 3, _WALL, ("8e22a89f54449fc13ccc3a034e0f19ab08f6cde5fea3db44225421076a093a7d", (1907, 180, 1604)),
     ("0af8598312fe03f9d9d9c9dc24544bb7852f4eff2e767703491b7f5bf6e472d6", (601, 148, 414))),
    (8, 4, _WALL, ("51ecb1293e007bc7be76b753735da9d5216870ee38ccf1527fbd93d4ac884dd6", (8925, 812, 6938)),
     ("0a9647b267b87a2f5588cc157fa30b08977bee3258f8f95e9bebfa27fa929c23", (2706, 634, 1760))),
    (8, 5, _WALL, ("a7ddfa24543779efa3e0f075affe9646ae516abf86177b89a7875b60c6a53ce2", (32806, 2800, 24646)),
     ("9a7bc8d9b6c72d61ed396e1447c506a2a213fe0ee95d542b6be251f5203cf693", (9676, 2094, 6213))),
    (3, 2, ("spin", "topology"), ("bb3cbee06323e5da37919e18675d951ff01664e2a0ccb4260b9f8c2d859b4745", (43875, 7100, 3376)),
     ("cec7b4747f3c1f44ba8d20928f573296a1cc21fc3560ad909629f2e5b6c6ad58", (17550, 8195, 849))),
    (4, 2, ("skt", "spin"), ("2b565f5a845426162391d340cd5446f31b78f16bfc71ff2fb6170aba76ca4946", (2416, 534, 64)),
     ("f16af4bf6b1280925e57d4ff5ea5e03540f3ccb8a8c8364576a501566b45a53e", (789, 306, 16))),
    (3, 3, ("skt",), ("3c93af7fcfa642fcf814391d00b7750da75a23845b060d6ef37b5a18a4dd085e", (5995, 862, 5133)),
     ("e53631831716964d7f2c9535f31d12ff9617a4eddb33b8ee56e64aff364c6364", (1837, 538, 1299))),
]


@pytest.mark.parametrize("k,bound,filters,v1,v2", CI_CATALOGS, ids=[f"k{c[0]}-b{c[1]}-{'+'.join(c[2])}" for c in CI_CATALOGS])
def test_ci_catalogs_without_and_with_signs(tmp_path, k, bound, filters, v1, v2):
    query = SearchQuery(model=blowup_cp2(k), coeff_bound=bound, filters=frozenset(filters))
    frozen_without_and_with_signs(tmp_path, query, 2, v1, v2)


def test_an_asymmetric_ray_routes_a_pair_by_the_first_ray_that_generates_it(tmp_path):
    # signs and swap, no permutations: unsorted w1, the unsorted
    # trace-free slice and two rays, with 936 of the box candidates generated
    # by both; those take the query's ray, the first plan ray, as the catalog
    # bytes record, with the signs (v2) and without (v1)
    from collections import Counter

    model = blowup_cp2(4)
    ray = parse_class(model, "5H-2E1-E2-E3-E4")
    q = SearchQuery(model=model, coeff_bound=3, filters=frozenset({"cyt", "topology"}), ray=ray)
    plan = search_module._Plan(q)
    assert [data.name for data in plan.rays] == ["ray", "anticanonical_ray"] and not plan.sorted_v1
    found = [[data.candidates_for(v1) for data in plan.rays] for v1 in itertools.product(range(-3, 4), repeat=5)]
    assert sum(len(on_ray.keys() & on_c1.keys()) for on_ray, on_c1 in found) == 936
    v1 = ("b22bff44122a153d6dd8669a353893af9fe9ddb3f4e71968859dbe46749f71d6", (4243, 2908, 466))
    v2 = ("dc07d720866b09b336dd8379bcd2508349561c579e822248d6ef3b60b6791a4f", (1417, 1080, 119))
    for threads in (1, 2):
        old, records = frozen_without_and_with_signs(tmp_path, q, threads, v1, v2)
        assert Counter(r.flags.cyt_route for r in old) == {"ray": 320, "anticanonical_ray": 146}
        assert Counter(r.flags.cyt_route for r in records) == {"ray": 77, "anticanonical_ray": 42}
        assert search(q, threads=threads)[1].rejected["topology"] == 218
        on_both = [[r for r in catalog if all(r.omega2 in data.candidates_for(r.omega1) for data in plan.rays)]
                   for catalog in (old, records)]
        assert len(on_both[0]) == 12 and {r.flags.cyt_route for r in on_both[0]} == {"ray"}
        # the key merges permuted pairs, and with the signs an earlier pair on one ray leads each of those keys
        assert on_both[1] == []
    with property_suites.without_signs():
        assert search(q, threads=1)[1].rejected["topology"] == 869


# -- orbit-pruned enumeration ----------------------------------------------

NON_INVARIANT_GRAM = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]]


def test_symmetry_is_read_from_the_gram_not_the_labels():
    # diag(1,-1,-1,-2) is not fixed by permuting E1..E3, so H/E labels must
    # not merge pairs that a neutral labelling keeps apart
    def run(labels, filters):
        model = custom_model("m", NON_INVARIANT_GRAM, [3, -1, -1, -1], basis_labels=labels)
        records, _ = search(SearchQuery(model=model, coeff_bound=2, filters=filters), threads=1)
        return [r.to_line() for r in records]

    for filters in (frozenset({"skt"}), frozenset({"skt", "spin"})):
        assert run(["H", "E1", "E2", "E3"], filters) == run(["a", "b", "c", "d"], filters)


def test_symmetry_predicate():
    s = search_module

    def group(q):
        return s.search_symmetry(q, s._permutes_exceptionals(q.model), s._ansatz_pair(q))

    m3 = blowup_cp2(3)
    cyt = frozenset({"cyt"})
    assert group(SearchQuery(model=m3, coeff_bound=2, filters=cyt)) == s.PERMUTE_SIGNS_AND_SWAP
    sym_ray = SearchQuery(model=m3, coeff_bound=2, filters=cyt, ray=parse_class(m3, "5H-E1-E2-E3"))
    assert group(sym_ray) == s.PERMUTE_SIGNS_AND_SWAP
    odd_ray = SearchQuery(model=m3, coeff_bound=2, filters=cyt, ray=parse_class(m3, "5H-2E1-E2-E3"))
    assert group(odd_ray) == s.SIGNS_AND_SWAP
    custom = custom_model("m", NON_INVARIANT_GRAM, [3, -1, -1, -1], basis_labels=["H", "E1", "E2", "E3"])
    assert group(SearchQuery(model=custom, coeff_bound=2, filters=cyt)) == s.SIGNS_AND_SWAP
    # the ansatz pair 4H-2(E1+..+E4)-(E5+..+E9), -H+E1+..+E4 is in the box at
    # bound 4, and neither its sign changes nor its permutations are candidates
    cubic = blowup_cp2(9, "on_cubic")
    assert group(SearchQuery(model=cubic, coeff_bound=4, filters=cyt)) == s.SWAP
    assert group(SearchQuery(model=cubic, coeff_bound=3, filters=cyt)) == s.PERMUTE_SIGNS_AND_SWAP
    assert group(SearchQuery(model=cubic, coeff_bound=4, filters=frozenset({"skt"}))) == s.PERMUTE_SIGNS_AND_SWAP
    # only the cyt and balanced filters read the ray
    for filters, want in (({"balanced"}, s.SIGNS_AND_SWAP), ({"skt", "spin", "topology"}, s.PERMUTE_SIGNS_AND_SWAP)):
        assert group(dataclasses.replace(odd_ray, filters=frozenset(filters))) == want, filters


def test_a_ray_no_filter_reads_leaves_the_search_as_it_is():
    # skt with an asymmetric ray keeps the permutations: the same catalog,
    # visited and skipped counts as the ray-less query, serial and on 2 workers
    m3 = blowup_cp2(3)
    q = SearchQuery(model=m3, coeff_bound=2, filters=frozenset({"skt"}))
    for threads in (1, 2):
        records, stats = search(q, threads=threads)
        with_ray, ray_stats = search(dataclasses.replace(q, ray=parse_class(m3, "5H-2E1-E2-E3")), threads=threads)
        assert [r.to_line() for r in with_ray] == [r.to_line() for r in records] and ray_stats == stats
        assert (stats.pairs_evaluated, stats.pairs_skipped, stats.records_emitted) == (319, 120, 199)
        assert stats.symmetry == search_module.PERMUTE_SIGNS_AND_SWAP


def test_orbit_minimum_matches_the_canonical_key():
    # the least image is the oracle's key, and the walk's sorted w1 and its
    # leads, and the rule's lead range and runs test, are necessary
    # conditions for a pair to be its own orbit minimum
    import random

    rng = random.Random(5)
    for permute, signs in itertools.product((False, True), repeat=2):
        for _ in range(1500):
            k = rng.randint(1, 5)
            v1, v2 = (tuple(rng.randint(-2, 2) for _ in range(k + 1)) for _ in "12")
            x, y = _orbit_min(v1, v2, permute, signs)
            assert _orbit_min(x, y, permute, signs) == (x, y) == _orbit_min(y, x, permute, signs)
            assert x[0] <= y[0] and (not signs or y[0] <= 0), (v1, v2)
            if permute:
                assert list(x[1:]) == sorted(x[1:])
                assert all(y[i] <= y[i + 1] for i in range(1, k) if x[i] == x[i + 1])
            # the oracle keys on a model the permutations fix, or on one whose
            # last exceptional square -2 keeps every permutation from fixing it
            diagonal = [[(1 if i == 0 else -1 - (i == k)) * (i == j) for j in range(k + 1)] for i in range(k + 1)]
            model = blowup_cp2(k) if permute else custom_model("m", diagonal, [3] + [-1] * k)
            assert _pair_text(x, y) == property_suites.reference_key(model, v1, v2, signs), (v1, v2)


@pytest.mark.parametrize(
    "model",
    [blowup_cp2(2), blowup_cp2(3), custom_model("m", NON_INVARIANT_GRAM, [3, -1, -1, -1])],
    ids=lambda m: m.name,
)
def test_the_lean_orbit_rule_is_the_least_image_test(model):
    # on every pair of a small box, for each group: the rule reads the
    # images with the pair's own leads alone, and the walk's pairs whose
    # leads do not tie, which the chunk never tests, are their own minima.
    # Two leads 0 give the most images, so those pairs span a wider box too
    bound = 1 if model.rank > 3 else 2
    box = list(itertools.product(range(-bound, bound + 1), repeat=model.rank))
    zeros = [(0, *rest) for rest in itertools.product(range(-bound - 1, bound + 2), repeat=model.rank - 1)]
    pairs = [*itertools.product(box, repeat=2), *itertools.product(zeros, repeat=2)]
    own = _permutes_exceptionals(model)
    for group in (search_module.SWAP, search_module.SIGNS_AND_SWAP, search_module.PERMUTE_SIGNS_AND_SWAP):
        permute, signs = "exceptionals" in group, "signs" in group
        for v1, v2 in pairs:
            minimal = search_module._is_orbit_min(v1, v2, permute, signs)
            assert minimal == (_orbit_min(v1, v2, permute, signs) == (v1, v2)), (group, v1, v2)
            if permute == own:
                assert minimal == (property_suites.reference_key(model, v1, v2, signs) == _pair_text(v1, v2))
            walked = (not permute or list(v1[1:]) == sorted(v1[1:])) and (not signs or v1[0] <= 0)
            windowed = v1[0] < v2[0] and (not signs or v2[0] < 0)
            runs = not permute or all(v2[i] <= v2[i + 1] for i in range(1, model.rank - 1) if v1[i] == v1[i + 1])
            if walked and windowed and runs:
                assert minimal, (group, v1, v2)


# exceptionals that permute on a Gram that is not diagonal: the skt buckets
# are the one partner source that has to test the runs of w1
PERMUTING_NON_DIAGONAL_GRAM = [[1, 1, 1, 1], [1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]]

PARTNER_CASES = [
    *[pytest.param(blowup_cp2(k), (1, 2, 3), "skt", id=f"{blowup_cp2(k).name}-1-2-3") for k in range(1, 6)],
    pytest.param(custom_model("m", NON_INVARIANT_GRAM, [3, -1, -1, -1]), (1, 2), "skt", id="m-1-2"),
    pytest.param(quadric(), (1, 2, 3), "skt", id="quadric-1-2-3-skt"),
    pytest.param(custom_model("n", PERMUTING_NON_DIAGONAL_GRAM, [3, -1, -1, -1]), (1, 2), "skt", id="n-1-2-skt"),
    *[
        pytest.param(model, (1, 2), name, id=f"{model.name}-1-2-{name or 'none'}")
        for model in (projective_plane(), blowup_cp2(1), blowup_cp2(2), blowup_cp2(3))
        for name in ("spin", "topology", None)
    ],
]


@pytest.mark.parametrize("model,bounds,name", PARTNER_CASES)
def test_skt_partners_from_their_square_are_the_bucket_filter(model, bounds, name):
    # the partners of every walked w1, with the signs and without them, are
    # the box vectors in the orbit rule's lead window, sorted on each run of
    # w1 under the permutations and, with skt, of the opposite square: the
    # plan's tails on any Gram, or its buckets for skt on a Gram that is not
    # diagonal
    filters = frozenset({name} - {None})
    skt = "skt" in filters

    def square(v):  # Q(v,v), taken as 0 without skt
        return sum(x * y for x, y in zip(v, model.gram_row(v))) if skt else 0

    pairs = unsorted = 0
    for bound in bounds:
        buckets = {}  # the box by (lead, square)
        for v in itertools.product(range(-bound, bound + 1), repeat=model.rank):
            buckets.setdefault((v[0], square(v)), []).append(v)
        for group in (property_suites.without_signs(), contextlib.nullcontext()):
            with group:
                plan = search_module._Plan(SearchQuery(model=model, coeff_bound=bound, filters=filters))
            from_buckets = skt and model._gram_diagonal is None
            assert (plan.buckets is not None, plan.tail_rows is None, plan.skt) == (from_buckets, from_buckets, False)
            top = 0 if plan.signs else bound
            for lead in range(-bound, top + 1):
                for v1 in plan.walk(lead):
                    runs = plan.runs(v1)
                    window = [v2 for a in range(lead, top + 1) for v2 in buckets.get((a, -square(v1)), [])]
                    want = [v2 for v2 in window if all(v2[i] <= v2[i + 1] for i in runs)]
                    assert plan.candidates(v1) == want, (bound, plan.symmetry, v1)
                    pairs += len(want)
                    unsorted += len(window) - len(want)
    assert pairs > 0
    # the runs cut partners wherever two or more exceptionals permute
    assert (unsorted > 0) == (model.rank > 2 and _permutes_exceptionals(model))


@pytest.mark.parametrize("bound", [1, 3])
@pytest.mark.parametrize(
    "model,ray",
    [(blowup_cp2(3), "H"), (blowup_cp2(3), "3H-E1"), (blowup_cp2(4), "2H-E2"), (blowup_cp2(3), "E1-E3")],
)
def test_perp_vectors_match_the_box_filter(model, ray, bound):
    data = search_module._RayData("ray", model, parse_class(model, ray), bound)
    w = data.w
    brute = [
        v
        for v in itertools.product(range(-bound, bound + 1), repeat=model.rank)
        if sum(a * b for a, b in zip(v, w)) == 0
    ]
    assert 0 in w
    assert data.perp_vectors() == brute


@pytest.mark.parametrize("bound", [1, 3])
@pytest.mark.parametrize(
    "model,ray",
    [
        (blowup_cp2(3), "3H-E1-E2-E3"),
        (blowup_cp2(4), "3H-E1-E2-E3-E4"),
        (blowup_cp2(5), "3H-E1-E2-E3-E4-E5"),
        (blowup_cp2(3), "5H-E1-E2-E3"),
        (blowup_cp2(4), "H"),
    ],
)
def test_sorted_perp_vectors_match_the_sorted_box_filter(model, ray, bound):
    data = search_module._RayData("ray", model, parse_class(model, ray), bound, sorted_perp=True)
    w = data.w
    brute = [
        v
        for v in itertools.product(range(-bound, bound + 1), repeat=model.rank)
        if list(v[1:]) == sorted(v[1:]) and sum(a * b for a, b in zip(v, w)) == 0
    ]
    assert len(set(w[1:])) == 1
    assert data.perp_vectors() == brute


@pytest.mark.parametrize("sorted_perp", [False, True])
@pytest.mark.parametrize(
    "model,ray,bound",
    [
        (blowup_cp2(2), "3H-E1-E2", 3),
        (blowup_cp2(2), "4H-E1-2E2", 3),
        (blowup_cp2(3), "3H-E1-E2-E3", 3),
        (blowup_cp2(3), "5H-E1-E2-E3", 3),
        (blowup_cp2(3), "3H-2E1", 2),
        (blowup_cp2(5), "3H-E1-E2-E3-E4-E5", 2),
        (blowup_cp2(8), "3H-E1-E2-E3-E4-E5-E6-E7-E8", 1),
        (quadric(), "C+2D", 3),
    ],
)
def test_candidates_match_the_ray_condition_on_the_box(model, ray, bound, sorted_perp):
    data = search_module._RayData("ray", model, parse_class(model, ray), bound, sorted_perp)
    assert data.d_pair > 0
    box = list(itertools.product(range(-bound, bound + 1), repeat=model.rank))
    reference = property_suites.box_candidates(data, box)
    for w1 in box[:: max(1, len(box) // 3000)] + sorted(data.c1_multiples):
        assert sorted(data.candidates_for(w1)) == reference(w1, sorted_perp), w1


def test_pairs_at_one_lambda_share_one_source():
    model = blowup_cp2(3)
    plan = search_module._Plan(
        SearchQuery(model=model, coeff_bound=3, filters=frozenset({"cyt"}), ray=parse_class(model, "6H-2E1-2E2-2E3"))
    )
    assert [rd.name for rd in plan.rays] == ["ray", "anticanonical_ray"]
    shared, pairs = {}, 0
    for w1 in itertools.product(range(-3, 4), repeat=model.rank):
        for w2, source in plan.candidates(w1).items():
            rd = next(rd for rd in plan.rays if w2 in rd.candidates_for(w1))
            assert source is shared.setdefault((rd.name, rd.candidates_for(w1)[w2]), source), (w1, w2)
            pairs += 1
    # every pair takes the first ray's route, and far more pairs than lambdas
    assert {name for name, _ in shared} == {"ray"} and pairs > 10 * len(shared)


def test_one_record_per_sign_orbit_of_the_unpruned_reference():
    assert property_suites.run_orbit_reduction() == 40


def test_candidates_match_the_box_on_random_rays():
    property_suites.check_candidates_for()


def test_slices_and_walks_match_the_box_on_random_rays():
    assert property_suites.run_slices() == 40


def test_walk_scales_match_solve_scale_on_random_rays():
    property_suites.check_walk_scales()


def test_windowed_candidates_are_the_full_ones_cut_to_the_window():
    property_suites.check_windowed_candidates()


@pytest.mark.parametrize("model,bound,ray", [(blowup_cp2(4), 3, "5H-2E1-E2-E3-E4"), (blowup_cp2(5), 3, None)])
def test_a_plan_generates_the_partners_of_its_lead_window(model, bound, ray):
    # the walk's w1 with the signs (leads <= 0) and without them, where the
    # window runs to b; an asymmetric ray keeps both plan rays and the
    # unsorted trace-free slice
    ray = parse_class(model, ray) if ray else None
    q = SearchQuery(model=model, coeff_bound=bound, filters=frozenset({"cyt"}), ray=ray)
    for group, top in ((contextlib.nullcontext(), 0), (property_suites.without_signs(), bound)):
        with group:
            plan = search_module._Plan(q)
        for lead in range(-bound, top + 1):
            assert plan.window(lead) == (lead, top)
            for v1 in plan.walk(lead):
                full = {}
                for rd in plan.rays:
                    for v2, lam in rd.candidates_for(v1).items():
                        full.setdefault(v2, rd.source(lam))
                cut = {v2: src for v2, src in sorted(full.items()) if lead <= v2[0] <= top}
                found = plan.candidates(v1)
                assert list(found) == list(cut) and all(found[v2] is cut[v2] for v2 in cut), (v1, top)


PRUNING_CASES = [
    (blowup_cp2(2), 3, {"cyt"}, None),
    (blowup_cp2(3), 3, {"cyt", "topology", "spin"}, None),
    (blowup_cp2(4), 2, {"cyt", "topology", "spin"}, None),
    (blowup_cp2(3), 2, {"skt"}, None),
    (blowup_cp2(4), 2, {"skt", "spin"}, None),
    (blowup_cp2(3), 3, {"cyt", "balanced"}, None),
    (quadric(), 3, {"cyt", "skt"}, None),
    (blowup_cp2(3), 2, {"cyt", "topology"}, "5H-E1-E2-E3"),
    (blowup_cp2(2), 3, {"cyt"}, "4H-E1-2E2"),
    # exceptionals that do not permute: under NO_SYMMETRY only the key merges swaps
    (custom_model("m", NON_INVARIANT_GRAM, [3, -1, -1, -1]), 2, {"skt"}, None),
]


@pytest.mark.parametrize("model,bound,filters,ray", PRUNING_CASES)
def test_pruning_changes_no_output(monkeypatch, model, bound, filters, ray):
    # the unpruned reference and the swap alone key without the signs, so
    # their catalogs are reduced by them; the signs without the permutations
    # key like the search, and the key merges what the orbit rule kept
    q = SearchQuery(
        model=model,
        coeff_bound=bound,
        filters=frozenset(filters),
        ray=parse_class(model, ray) if ray else None,
    )
    records, stats = search(q, threads=1)
    lines = [r.to_line() for r in records]
    assert "signs" in stats.symmetry
    for group in (search_module.SIGNS_AND_SWAP, search_module.SWAP, search_module.NO_SYMMETRY):
        monkeypatch.setattr(search_module, "search_symmetry", lambda *args, group=group: group)
        unpruned, unpruned_stats = search(q, threads=1)
        if group != search_module.SIGNS_AND_SWAP:
            assert len({r.canonical_key for r in unpruned}) == len(unpruned) >= len(records), group
            unpruned = property_suites.sign_reduced(model, unpruned)
        assert [r.to_line() for r in unpruned] == lines, group
        assert unpruned_stats.pairs_evaluated >= stats.pairs_evaluated
        assert unpruned_stats.symmetry == group
    # the unpruned reference visits every box partner, the search fewer
    assert unpruned_stats.pairs_evaluated > stats.pairs_evaluated


def test_orbit_minima_spell_their_own_key(monkeypatch):
    s = search_module
    calls = []  # (function name, permute) of every orbit rule test and spelled key
    keys = []  # (model, pair, key, signs) of every evaluated pair
    evaluate = s._Plan.evaluate

    def counted(name):
        fn = getattr(s, name)
        return lambda v1, v2, permute, signs: calls.append((name, permute)) or fn(v1, v2, permute, signs)

    def recorded(self, v1, v2, key, source):
        keys.append((self.query.model, (v1, v2), key, self.signs))
        return evaluate(self, v1, v2, key, source)

    for name in ("_orbit_min", "_is_orbit_min"):
        monkeypatch.setattr(s, name, counted(name))
    monkeypatch.setattr(s._Plan, "evaluate", recorded)
    custom = custom_model("m", NON_INVARIANT_GRAM, [3, -1, -1, -1])
    m3 = blowup_cp2(3)
    skt, cyt = frozenset({"skt"}), frozenset({"cyt"})
    cases = [
        (SearchQuery(model=m3, coeff_bound=2, filters=skt), s.PERMUTE_SIGNS_AND_SWAP, True),
        (SearchQuery(model=custom, coeff_bound=2, filters=skt), s.SIGNS_AND_SWAP, True),
        # no permutations on a model whose exceptionals permute: the key sorts what the orbit rule did not
        (SearchQuery(model=m3, coeff_bound=2, filters=cyt, ray=parse_class(m3, "5H-2E1-E2-E3")), s.SIGNS_AND_SWAP, False),
    ]
    for q, group, own in cases:
        assert s.search_symmetry(q, s._permutes_exceptionals(q.model), s._ansatz_pair(q)) == group
        calls.clear()
        keys.clear()
        records, stats = search(q, threads=1)
        assert records and stats.symmetry == group
        assert keys and all(key == property_suites.reference_key(m, *pair) for m, pair, key, _ in keys)
        if own:  # no least image is spelled: the rule tests pairs with tied leads alone
            assert all(key == _pair_text(*pair) for _, pair, key, _ in keys), q.model.name
            assert set(calls) == {("_is_orbit_min", "exceptionals" in group)}
        else:  # the rule's calls leave the permutations out, the key's sort them
            assert ("_orbit_min", True) in calls and set(calls) <= {("_is_orbit_min", False), ("_orbit_min", True)}
    # the unpruned reference writes the key of every pair it evaluates, without the signs
    monkeypatch.setattr(s, "search_symmetry", lambda *args: s.NO_SYMMETRY)
    for q, _, _ in cases:
        calls.clear()
        keys.clear()
        _, stats = search(q, threads=1)
        assert keys and [name for name, _ in calls] == ["_orbit_min"] * stats.pairs_evaluated  # one key per visited pair
        assert all(key == property_suites.reference_key(m, *pair, signs) for m, pair, key, signs in keys)
        assert not any(signs for _, _, _, signs in keys)


# -- one plan per query ------------------------------------------------------


def test_limit_cuts_records_not_counts():
    q = SearchQuery(model=quadric(), coeff_bound=1, filters=frozenset({"skt"}))
    with property_suites.without_signs():
        assert len(search(q, threads=1)[0]) == 19
    full, full_stats = search(q, threads=1)
    assert len(full) == 7 and full_stats.exhausted
    exact, stats = search(dataclasses.replace(q, limit=7), threads=1)
    assert exact == full and stats.exhausted
    cut, stats = search(dataclasses.replace(q, limit=6), threads=1)
    assert cut == full[:6] and stats.records_emitted == 6 and not stats.exhausted
    # every chunk runs, so the visited and skipped counts do not depend on the limit
    q = SearchQuery(model=blowup_cp2(3), coeff_bound=2, filters=frozenset({"skt"}))
    _, full_stats = search(q, threads=1)
    for threads in (1, 2):
        records, stats = search(dataclasses.replace(q, limit=2), threads=threads)
        assert len(records) == 2 and not stats.exhausted
        assert (stats.pairs_evaluated, stats.pairs_skipped) == (
            full_stats.pairs_evaluated,
            full_stats.pairs_skipped,
        )


@pytest.mark.parametrize(
    "model,bound,filters,ray",
    [
        (blowup_cp2(3), 3, {"cyt", "topology"}, "3H-2E1"),
        (blowup_cp2(2), 3, {"cyt", "balanced"}, "4H-E1-2E2"),
        (blowup_cp2(3), 2, {"skt"}, None),
    ],
)
def test_serial_equals_two_workers(monkeypatch, model, bound, filters, ray):
    q = SearchQuery(
        model=model,
        coeff_bound=bound,
        filters=frozenset(filters),
        ray=parse_class(model, ray) if ray else None,
    )
    for group in (None, search_module.NO_SYMMETRY):
        if group is not None:
            # unpruned, permuted and swapped pairs land in other chunks and
            # only the merge removes them
            monkeypatch.setattr(search_module, "search_symmetry", lambda *args, group=group: group)
        serial, serial_stats = search(q, threads=1)
        parallel, parallel_stats = search(q, threads=2)
        assert [r.to_line() for r in parallel] == [r.to_line() for r in serial], group
        assert parallel_stats == serial_stats


@pytest.mark.parametrize("claims", [forkjoin._CLAIMS, 2])
@pytest.mark.parametrize(
    "model,bound,filters",
    [
        (blowup_cp2(3), 2, {"cyt", "topology", "spin"}),
        (blowup_cp2(3), 2, {"skt", "spin"}),
    ],
)
def test_serial_and_forked_searches_are_byte_identical(monkeypatch, model, bound, filters, claims):
    # leads -2..0: four workers are more than the leads, and two claims
    # hand out runs of two leads and one
    monkeypatch.delenv("CYT_FORGE_THREADS", raising=False)
    monkeypatch.setattr(forkjoin, "_CLAIMS", claims)
    q = SearchQuery(model=model, coeff_bound=bound, filters=frozenset(filters))
    serial, serial_stats = search(q, threads=1)
    assert serial and serial_stats.chunks == 3
    for threads in (2, 3, 4):
        messages = []
        records, stats = search(q, threads=threads, progress=messages.append)
        assert messages == [f"3 chunks done on {min(threads, 3)} workers"]
        assert [r.to_line() for r in records] == [r.to_line() for r in serial], threads
        assert stats == serial_stats, threads


@pytest.mark.parametrize("claims", [forkjoin._CLAIMS, 3])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_fork_join_works_every_lead_once(tmp_path, monkeypatch, workers, claims):
    # every call appends its lead to one file, from whichever process made
    # it; three claims hand out runs of three, three and one of the 7 leads
    monkeypatch.setattr(forkjoin, "_CLAIMS", claims)
    calls = tmp_path / "calls"
    log = os.open(calls, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def work(lead):
        os.write(log, f"{lead}\n".encode())
        return -lead

    leads = list(range(-3, 4))
    try:
        assert forkjoin.fork_join(work, leads, workers) == [-lead for lead in leads]
    finally:
        os.close(log)
    assert sorted(map(int, calls.read_text().split())) == leads


def test_a_search_forks_one_child_per_extra_worker(monkeypatch):
    monkeypatch.delenv("CYT_FORGE_THREADS", raising=False)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    q = SearchQuery(model=blowup_cp2(3), coeff_bound=2, filters=frozenset({"cyt"}))
    expected = search(q, threads=1)
    assert forks == []
    for threads, children in ((2, 1), (3, 2), (4, 2)):
        forks.clear()
        assert search(q, threads=threads) == expected
        assert forks == [os.getpid()] * children, threads
    # without os.fork the search takes the serial path
    monkeypatch.delattr(os, "fork")
    messages = []
    assert search(q, threads=2, progress=messages.append) == expected
    assert messages == ["chunk 1/3 done", "chunk 2/3 done", "chunk 3/3 done"]


def test_a_worker_exception_reaches_the_caller_and_every_worker_is_reaped(monkeypatch):
    from cytforge.errors import InvariantViolation

    class Unpicklable(Exception):  # a local class: pickle cannot find it by name
        pass

    parent = os.getpid()
    chunk = search_module._Plan.chunk

    def slow_caller(plan, lead):
        if os.getpid() == parent:
            time.sleep(0.3)  # so the forked worker claims a lead
        return chunk(plan, lead)

    monkeypatch.setattr(search_module._Plan, "chunk", slow_caller)
    # leads -3..0, and the first two hold records: the worker rechecks one
    q = SearchQuery(model=blowup_cp2(3), coeff_bound=3, filters=frozenset({"cyt"}))
    assert search(q, threads=1)[1].chunk_records[:2] == (24, 6)
    monkeypatch.setattr(
        search_module, "cyt_certificate", lambda bundle, f, cone: SimpleNamespace(verdict=os.getpid() == parent)
    )
    with pytest.raises(InvariantViolation, match=r"^search record \S+ on blowup_cp2\(3,general\) does not stand on the full cyt certificate$"):
        search(q, threads=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    def unpicklable(plan, lead):
        if os.getpid() != parent:
            raise Unpicklable(f"lead {lead}")
        return slow_caller(plan, lead)

    monkeypatch.setattr(search_module._Plan, "chunk", unpicklable)
    with pytest.raises(RuntimeError, match=r"(?s)^Traceback .*Unpicklable: lead -[23]\n$"):
        search(q, threads=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    def caller_fails(plan, lead):
        if os.getpid() == parent:
            time.sleep(0.3)
            raise InvariantViolation(f"caller at lead {lead}")
        time.sleep(60)
        return chunk(plan, lead)

    # the caller's own error kills the worker still busy, and reaps it
    monkeypatch.setattr(search_module._Plan, "chunk", caller_fails)
    start = time.monotonic()
    with pytest.raises(InvariantViolation, match=r"^caller at lead -[23]$"):
        search(q, threads=2)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a 2-worker search whose forked worker is killed by SIGKILL on lead 0; the
# worker waits before its first claim, and the caller sleeps in its first
# chunk, so the worker claims the other two leads
KILLED_WORKER = """
import importlib, os, signal, time
from cytforge.surfaces import blowup_cp2
search = importlib.import_module("cytforge.search")
parent, chunk, fork = os.getpid(), search._Plan.chunk, os.fork

def fork_then_wait():
    pid = fork()
    if not pid:
        time.sleep(0.2)
    return pid

def dying(plan, lead):
    if os.getpid() == parent:
        time.sleep(0.5)
    elif lead == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return chunk(plan, lead)

search._Plan.chunk, os.fork = dying, fork_then_wait
query = search.SearchQuery(model=blowup_cp2(3), coeff_bound=2, filters=frozenset({"cyt"}))
try:
    search.search(query, threads=2)
except Exception as exc:
    print(f"{type(exc).__name__}: {exc}")
"""


def test_a_killed_worker_fails_the_search_instead_of_hanging_it():
    src = str(Path(search_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("CYT_FORGE_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", KILLED_WORKER], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert re.fullmatch(
        r"WorkerDied: search worker \d+ was killed by SIGKILL: no chunk came back for leads -[12], 0\n", proc.stdout
    ), proc.stdout


def test_resolve_threads_counts_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.delenv("CYT_FORGE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_threads() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert resolve_threads() == 3
    monkeypatch.setenv("CYT_FORGE_THREADS", "2")
    assert resolve_threads() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_threads() == 2
    monkeypatch.delenv("CYT_FORGE_THREADS")
    assert resolve_threads() == 4


def test_plan_is_built_once_per_search(monkeypatch):
    import os

    built = []
    parent = os.getpid()
    original = search_module._Plan.__init__

    def counting_init(self, query):
        if os.getpid() != parent:
            raise RuntimeError("a forked worker rebuilt the plan")
        built.append(query)
        original(self, query)

    monkeypatch.setattr(search_module._Plan, "__init__", counting_init)
    for threads in (1, 2):
        for q in (
            SearchQuery(model=blowup_cp2(3), coeff_bound=2, filters=frozenset({"cyt", "topology"})),
            SearchQuery(model=blowup_cp2(3), coeff_bound=2, filters=frozenset({"skt"})),
        ):
            built.clear()
            search(q, threads=threads)
            assert built == [q], threads


def test_plan_keeps_only_rays_a_record_can_stand_on():
    m3 = blowup_cp2(3)

    def ray_names(model, ray=None, bound=2):
        q = SearchQuery(
            model=model,
            coeff_bound=bound,
            filters=frozenset({"cyt"}),
            ray=parse_class(model, ray) if ray else None,
        )
        return [data.name for data in search_module._Plan(q).rays]

    assert ray_names(m3) == ["anticanonical_ray"]
    assert ray_names(m3, "5H-E1-E2-E3") == ["ray", "anticanonical_ray"]
    # nef but not Kaehler: H pairs to 0 with every E_i
    assert ray_names(m3, "H") == ["anticanonical_ray"]
    # a query ray equal to c1 is not tried a second time as the anticanonical ray
    assert ray_names(m3, "3H-E1-E2-E3") == ["ray"]
    # c1^2 = 0 at nine points: no ray carries a record and no pair is visited
    m9 = blowup_cp2(9)
    assert ray_names(m9, bound=1) == []
    _, stats = search(SearchQuery(model=m9, coeff_bound=1, filters=frozenset({"cyt"})), threads=1)
    assert stats.pairs_evaluated == 0 and stats.exhausted


# sha256 of the `cytforge search --out` catalog of blowup_cp2(k, on_cubic) at
# bound 4 with cyt+topology+spin, one ansatz record each, as written before
# the fiber signs joined the group of every other search
ANSATZ_CATALOGS = {
    9: "587168a62d7b3652c9d2ac0ac3e2964964938f91748cc8f72f969f2b82d87347",
    10: "d8a82060a961ec513a240d5b1df77288da84d0dd5bf3f3578fbccaec71d2624f",
    11: "eee4ba58bb0f7eaa8cc461e9f867c23da373f1401028490af3ae9131ca167088",
    12: "1ecc198f29492dcbaa9ca9e3e4c148d52a7dbc96076281b9fd0a551a0d320388",
}


@pytest.mark.parametrize("k", [9, 10, 11, 12])
def test_a_rayless_cyt_search_visits_only_the_ansatz_vectors(k, monkeypatch, tmp_path):
    # c1^2 = 9 - k <= 0 leaves no ray, and the in-box ansatz pair drops the
    # permutations and the signs: the box at bound 4 holds 9^(k+1) unsorted
    # w1, and only the two ansatz vectors have a candidate
    model = blowup_cp2(k, "on_cubic")
    asked, calls = [], []
    candidates = search_module._Plan.candidates
    monkeypatch.setattr(search_module._Plan, "candidates", lambda plan, v1: asked.append(v1) or candidates(plan, v1))
    for name in ("solve_symmetric_ansatz", "cyt_certificate"):
        fn = getattr(search_module, name)
        monkeypatch.setattr(search_module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    q = SearchQuery(model=model, coeff_bound=4, filters=frozenset({"cyt", "topology", "spin"}))
    records, stats = search(q, threads=1)
    assert sorted(asked) == sorted(search_module._ansatz_pair(q))
    # the plan solves the ansatz once, and its record takes only the recheck;
    # the partner of the lead-4 vector is outside that lead's window
    assert calls == ["solve_symmetric_ansatz", "cyt_certificate"]
    assert (stats.pairs_evaluated, stats.pairs_skipped, stats.cyt_routes) == (1, 0, ())
    assert [(r.flags.cyt_route, r.flags.topology_label) for r in records] == [
        ("ansatz", f"{k - 1}(S²×S⁴) # {k}(S³×S³)")
    ]
    # the swap alone, so the catalog keeps the bytes it had before the signs
    digest = ANSATZ_CATALOGS[k]
    assert stats.symmetry == search_module.SWAP
    frozen_without_and_with_signs(tmp_path, q, 1, (digest, (1, 0, 1)), (digest, (1, 0, 1)))

    # two vectors are too few to share: threads=2 runs serially
    def refuse(*args, **kwargs):
        raise RuntimeError("a ray-less search forked a worker")

    monkeypatch.setattr(os, "fork", refuse)
    assert search(q, threads=2) == (records, stats)


def test_integer_filters_build_no_classes(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("skt and spin run on integer tuples")

    q = SearchQuery(model=blowup_cp2(3), coeff_bound=2, filters=frozenset({"skt", "spin"}))
    expected, _ = search(q, threads=1)
    assert expected
    monkeypatch.setattr(search_module, "BundleSpec", refuse)
    monkeypatch.setattr(CohClass, "of", staticmethod(refuse))
    records, _ = search(q, threads=1)
    assert records == expected


@pytest.mark.parametrize("ray", ["0", "E1", "E1-E2", "H-E1"])
def test_search_rejects_non_positive_rays(ray):
    from cytforge.errors import NotPositiveRay

    model = blowup_cp2(3)
    with pytest.raises(NotPositiveRay):
        SearchQuery(model=model, coeff_bound=1, filters=frozenset({"cyt"}), ray=parse_class(model, ray))


def test_search_rejects_irrational_rays():
    model = blowup_cp2(2)
    ray = parse_class(model, "[1+1*sqrt(2),0,0]")
    with pytest.raises(ValueError, match="search rays must have rational coefficients"):
        SearchQuery(model=model, coeff_bound=1, filters=frozenset({"cyt"}), ray=ray)


def test_stats_name_the_cyt_routes_kept():
    def routes(ray, filters=frozenset({"cyt"})):
        model = blowup_cp2(3)
        ray = parse_class(model, ray) if ray is not None else None
        query = SearchQuery(model=model, coeff_bound=1, filters=filters, ray=ray)
        return search(query, threads=1)[1].cyt_routes

    assert routes("H") == ("anticanonical_ray",)  # not Kaehler: Q(H,E1) = 0
    assert routes("4H-E1-E2-E3") == ("ray", "anticanonical_ray")
    assert routes("3H-E1-E2-E3") == ("ray",)  # the ray is c1 itself
    assert routes(None) == ("anticanonical_ray",)
    assert routes("H", frozenset({"skt"})) == ()


# -- searches without a cyt or skt filter ------------------------------------
#
# Without those filters every w2 of the box is a candidate and the balanced
# filter falls back to the ray, else c1.  The reference below decides each
# filter pair by pair from its definition over the whole box and keeps the
# lexicographically first pair of each canonical key.

NULL_C1 = custom_model("null_c1", [[0, 1], [1, 0]], [1, 0])  # Q(c1,c1) = 0: nothing is balanced


def _brute_stage(model, filters, v1, v2, ray=None):
    """The first filter that rejects the pair, decided from its definition,
    or its flags when every filter passes."""
    c1, gram = model.c1.as_int_vector(), model.gram
    f = ray.as_int_vector() if ray is not None else c1

    def pair(x, y):
        return sum(a * g * b for a, row in zip(x, gram) for g, b in zip(row, y))

    flags = {}
    if "skt" in filters:
        if pair(v1, v1) + pair(v2, v2):
            return "skt"
        flags["skt"] = True
    if "spin" in filters:
        # c1 is 0, v1, v2 or v1 + v2 mod 2
        if not any(
            all((c - a * x - b * y) % 2 == 0 for c, x, y in zip(c1, v1, v2)) for a in (0, 1) for b in (0, 1)
        ):
            return "spin"
        flags["spin"] = True
    if "balanced" in filters:
        # a trace against f vanishes iff the pairing with f does
        if pair(f, f) == 0 or pair(v1, f) or pair(v2, f):
            return "balanced"
        flags["balanced"] = True
    if "topology" in filters:
        label = topology_certificate(BundleSpec(model, (CohClass.of(v1), CohClass.of(v2)))).diffeo_label
        if label == UNCLASSIFIED:
            return "topology"
        flags["topology_label"] = label
    return VerdictFlags(**flags)


def _brute_records(model, bound, filters, ray=None, signs=True):
    box = list(itertools.product(range(-bound, bound + 1), repeat=model.rank))
    seen, out = set(), []
    for v1, v2 in itertools.product(box, repeat=2):
        flags = _brute_stage(model, filters, v1, v2, ray)
        if isinstance(flags, str):
            continue
        key = property_suites.reference_key(model, v1, v2, signs)
        if key not in seen:
            seen.add(key)
            out.append((v1, v2, key, flags))
    return out


# record counts at bound 1 on blowup_cp2(1), blowup_cp2(2) and the quadric,
# keyed without the fiber signs (v1) and with them (v2)
BOX_SEARCH_COUNTS = {
    ("balanced",): ((1, 4, 6), (1, 3, 3)),
    ("topology",): ((20, 94, 20), (5, 25, 5)),
    ("spin",): ((34, 124, 45), (10, 35, 15)),
    ("balanced", "spin"): ((0, 0, 6), (0, 0, 3)),
    ("skt", "spin"): ((18, 12, 19), (6, 3, 7)),
}
BOX_SEARCH_CASES = [
    (model, filters)
    for filters in [("balanced",), ("topology",), ("spin",), ("balanced", "spin"), ("skt", "spin")]
    for model in [blowup_cp2(1), blowup_cp2(2), quadric()]
] + [(NULL_C1, ("balanced",)), (NULL_C1, ("balanced", "spin"))]


@pytest.mark.parametrize("model,filters", BOX_SEARCH_CASES, ids=lambda v: "+".join(v) if isinstance(v, tuple) else v.name)
def test_box_searches_match_the_brute_force_filter(model, filters):
    wants = [_brute_records(model, 1, filters, signs=signs) for signs in (False, True)]
    q = SearchQuery(model=model, coeff_bound=1, filters=frozenset(filters))
    for threads in (1, 2):
        for group, want in zip((property_suites.without_signs(), contextlib.nullcontext()), wants):
            with group:
                records, stats = search(q, threads=threads)
            got = [(r.omega1, r.omega2, r.canonical_key, r.flags) for r in records]
            assert got == want, threads
            assert stats.exhausted and all(r.kahler is None for r in records)
    if model is NULL_C1:
        assert wants == [[], []]
    else:
        index = [blowup_cp2(1).name, blowup_cp2(2).name, quadric().name].index(model.name)
        assert tuple(len(want) for want in wants) == tuple(counts[index] for counts in BOX_SEARCH_COUNTS[filters])


def test_box_balanced_search_tests_against_the_ray():
    model = blowup_cp2(2)
    ray = parse_class(model, "2H-E1")  # Q(ray, ray) = 3
    want = _brute_records(model, 1, ("balanced",), ray)
    assert want != _brute_records(model, 1, ("balanced",))
    q = SearchQuery(model=model, coeff_bound=1, filters=frozenset({"balanced"}), ray=ray)
    for threads in (1, 2):
        records, _ = search(q, threads=threads)
        assert [(r.omega1, r.omega2, r.canonical_key, r.flags) for r in records] == want, threads


# the box cases at bound 1, and a solver case at bound 3: the solver proposes
# only pairs on the cyt locus, so cyt rejects none of them and the brute
# stages, which leave cyt out, name every reject; there 3 pairs fail both
# skt and spin and pin the order of the two stages
REJECT_CASES = BOX_SEARCH_CASES + [(blowup_cp2(3), ("cyt", "skt", "spin"))]


@pytest.mark.parametrize("model,filters", REJECT_CASES, ids=lambda v: "+".join(v) if isinstance(v, tuple) else v.name)
def test_reject_counts_match_the_brute_force_stages(monkeypatch, model, filters):
    # screen sees every pair past the orbit rule when skt or spin is a
    # filter, ahead of the key, and evaluate every pair past the key
    bound = 3 if "cyt" in filters else 1
    evaluated = []
    screen, evaluate = search_module._Plan.screen, search_module._Plan.evaluate

    def screened(plan, v1, v2, m1):
        stage = screen(plan, v1, v2, m1)
        if stage is not None:
            evaluated.append((v1, v2))
        return stage

    def recorded(plan, v1, v2, key, source):
        evaluated.append((v1, v2))
        return evaluate(plan, v1, v2, key, source)

    q = SearchQuery(model=model, coeff_bound=bound, filters=frozenset(filters))
    box = list(itertools.product(range(-bound, bound + 1), repeat=model.rank))
    # (group, pairs that fail both skt and spin in the cyt case) without the signs and with them
    for signs, group, both_failing in ((False, property_suites.without_signs(), 3), (True, contextlib.nullcontext(), 1)):
        evaluated.clear()
        with group:
            parallel = search(q, threads=2)[1]
            with monkeypatch.context() as patched:
                patched.setattr(search_module._Plan, "screen", screened)
                patched.setattr(search_module._Plan, "evaluate", recorded)
                records, serial = search(q, threads=1)
        want = dict.fromkeys(REJECT_STAGES, 0)
        for v1, v2 in evaluated:
            stage = _brute_stage(model, filters, v1, v2)
            if isinstance(stage, str):
                want[stage] += 1
        if "cyt" in filters:
            both = [pair for pair in evaluated if _brute_stage(model, ("spin",), *pair) == "spin"]
            assert want["skt"] > 0 and want["spin"] > 0 and len(both) - want["spin"] == both_failing
        else:
            # the brute side reduced by the same group: the box pairs that are
            # their own key (skt buckets hold only the partners that pass it)
            minima = [
                (v1, v2)
                for v1, v2 in itertools.product(box, repeat=2)
                if property_suites.reference_key(model, v1, v2, signs) == _pair_text(v1, v2)
                and ("skt" not in filters or _brute_stage(model, ("skt",), v1, v2) != "skt")
            ]
            assert sorted(evaluated) == minima, signs
        for stats in (serial, parallel):
            assert stats.rejected == want
            assert list(stats.rejected) == list(REJECT_STAGES)
            # every visited pair is skipped, rejected by one stage or a record
            assert sum(stats.rejected.values()) + stats.records_emitted + stats.pairs_skipped == stats.pairs_evaluated
        assert len(evaluated) == sum(want.values()) + len(records)


@pytest.mark.parametrize("model", [blowup_cp2(1), blowup_cp2(2), quadric()], ids=lambda m: m.name)
def test_the_spin_filter_is_the_topology_spin_check(model):
    # one mask test decides both; compare them on every pair of the box
    plan = search_module._Plan(SearchQuery(model=model, coeff_bound=1, filters=frozenset({"spin"})))
    box = list(itertools.product(range(-1, 2), repeat=model.rank))
    verdicts = set()
    for v1, v2 in itertools.product(box, repeat=2):
        rejected = plan.screen(v1, v2, _gf2_mask(v1)) == "spin"
        cert = topology_certificate(BundleSpec(model, (CohClass.of(v1), CohClass.of(v2))))
        assert rejected == (not cert.spin_mod2), (v1, v2)
        verdicts.add(rejected)
    # the quadric's c1 = 2C + 2D is even, so every pair there is spin
    assert verdicts == ({False} if model.name == quadric().name else {False, True})


@pytest.mark.parametrize(
    "model,filters,busy",
    [(blowup_cp2(5), ("cyt", "topology", "spin"), ("spin", "topology")), (quadric(), ("cyt", "skt"), ("skt",))],
    ids=["k5", "quadric"],
)
def test_solver_search_rejects_add_up_over_chunks(model, filters, busy):
    q = SearchQuery(model=model, coeff_bound=3, filters=frozenset(filters))
    serial, parallel = (search(q, threads=t)[1] for t in (1, 2))
    assert serial.rejected == parallel.rejected
    # the solver only proposes pairs on the cyt locus, so cyt rejects none
    assert [stage for stage, count in serial.rejected.items() if count] == list(busy)
    assert sum(serial.rejected.values()) + serial.records_emitted + serial.pairs_skipped == serial.pairs_evaluated


def test_a_verdict_search_renders_no_documents(monkeypatch):
    from collections import Counter

    from cytforge import cone, cyt, intlinalg
    from cytforge.topology import TopologyCertificate

    model = blowup_cp2(5)
    model.cone_rows[1].clear()  # a fresh sign memo for this model
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(intlinalg, "snf", counted("snf", intlinalg.snf))
    monkeypatch.setattr(intlinalg.IntegerSolver, "__init__", counted("solver", intlinalg.IntegerSolver.__init__))
    monkeypatch.setattr(cone, "_row_signs", counted("curve signs", cone._row_signs))
    renders = ((cyt._Traces, "lambdas"), (cyt._Traces, "traced"), (cyt.CytCertificate, "defect"),
               (TopologyCertificate, "_solver"))
    for cls, name in renders:
        monkeypatch.setattr(cls, name, property(counted(name, vars(cls)[name].func)))
    for module in (cyt, search_module):
        monkeypatch.setattr(module, "solve_scale", counted("solve_scale", cyt.solve_scale))
    monkeypatch.setattr(search_module, "cyt_certificate", counted("recheck", cyt.cyt_certificate))
    monkeypatch.setattr(cyt, "is_kahler", counted("is_kahler in a recheck", cyt.is_kahler))
    records, stats = search(SearchQuery(model, 3, frozenset({"cyt", "topology", "spin"})), threads=1)
    assert len(records) == 89 and stats.cyt_routes == ("anticanonical_ray",)
    # the plan's ray check computes the signs of the ray; every source's
    # class is a positive multiple of it.  The walk gives each pair its
    # scale, so solve_scale never runs, and the recheck runs once a record:
    # one per bundle up to S_k and the fiber signs, on its source's cone
    # certificate, so no recheck calls is_kahler
    assert counts == {"curve signs": 1, "recheck": 89}


def test_search_stats_count_the_w1_walked():
    # k = 5, bound 3, along c1 (d = Q(c1,c1) = 4, m = 4, c1_0 = 3): the walk
    # takes the sorted w1 whose q1 = Q(w1,c1) = 3 w1[0] + sum(w1[1:]) admits
    # a q2 != 0 on the locus read on the lead, 3 (q1^2 + q2^2) = 4 (q1 x +
    # q2 y) with x = w1[0] and y = w2[0] in the box, and 4 | q1^2 + q2^2;
    # +-c1 among them; the leads -3..3 without the signs, -3..0 with
    q = SearchQuery(blowup_cp2(5), 3, frozenset({"cyt", "topology", "spin"}))
    box = [v for v in itertools.product(range(-3, 4), repeat=6) if list(v[1:]) == sorted(v[1:])]
    partnered = {
        (q1, x)
        for q1 in range(-24, 25)
        for q2 in range(-24, 25)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if q2 and 3 * (q1 * q1 + q2 * q2) == 4 * (q1 * x + q2 * y) and (q1 * q1 + q2 * q2) % 4 == 0
    }
    walk = [v for v in box if (3 * v[0] + sum(v[1:]), v[0]) in partnered]
    assert {(3,) + (-1,) * 5, (-3,) + (1,) * 5} <= set(walk)
    for threads in (1, 2):
        with property_suites.without_signs():
            stats = search(q, threads=threads)[1]
        assert (stats.omega1_walked, stats.omega1_with_candidates) == (len(walk), 271) == (400, 271), threads
        stats = search(q, threads=threads)[1]
        walked = sum(v[0] <= 0 for v in walk)
        assert (stats.omega1_walked, stats.omega1_with_candidates) == (walked, 55) == (246, 55), threads


def test_search_stats_time_each_chunk_where_it_ran(monkeypatch):
    # the lead -1 chunk walks slowly; its time is measured inside the chunk,
    # in the worker that ran it, and the stats of equal searches compare
    # equal whatever their times
    walk = search_module._Plan.walk
    monkeypatch.setattr(search_module._Plan, "walk", lambda plan, lead: time.sleep(0.3 * (lead == -1)) or walk(plan, lead))
    q = SearchQuery(model=blowup_cp2(3), coeff_bound=2, filters=frozenset({"cyt"}))
    serial = search(q, threads=1)
    for threads in (1, 2):
        records, stats = search(q, threads=threads)
        assert (records, stats) == serial
        assert len(stats.chunk_seconds) == stats.chunks == 3, threads
        slow, fast = stats.chunk_seconds[1], stats.chunk_seconds[::2]
        assert slow >= 0.3 and all(0 <= t < 0.3 for t in fast), (threads, stats.chunk_seconds)


@pytest.mark.parametrize("threads", [1, 2])
def test_search_stats_name_the_group_and_the_records_per_chunk(monkeypatch, threads):
    m3 = blowup_cp2(3)
    cases = [
        (SearchQuery(blowup_cp2(5), 3, frozenset({"cyt", "topology", "spin"})), "exceptionals+signs+swap", (72, 17, 0, 0)),
        (SearchQuery(m3, 2, frozenset({"cyt"}), ray=parse_class(m3, "5H-2E1-E2-E3")), "signs+swap", (3, 0, 0)),
        (SearchQuery(blowup_cp2(9, "on_cubic"), 4, frozenset({"cyt"})), "swap", (0, 0, 0, 1, 0, 0, 0, 0, 0)),
    ]
    for q, group, per_chunk in cases:
        records, stats = search(q, threads=threads)
        assert (stats.symmetry, stats.chunk_records, stats.chunks) == (group, per_chunk, len(per_chunk))
        assert sum(per_chunk) == len(records)
    # the unpruned reference writes every permuted and swapped pair it keys
    # first in its chunk, and the merge keeps the first of each key
    monkeypatch.setattr(search_module, "search_symmetry", lambda *args: search_module.NO_SYMMETRY)
    records, stats = search(cases[0][0], threads=threads)
    assert stats.symmetry == "none" and len(stats.chunk_records) == 7
    assert sum(stats.chunk_records) > len(records) == 346
