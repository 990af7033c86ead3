import itertools
import random

import pytest

import property_suites
from cytforge import intlinalg, topology
from cytforge.cyt import BundleSpec, c1_bundle_triviality, solve_symmetric_ansatz
from cytforge.errors import HypothesesNotMet, InvariantViolation, WrongFiberRank
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
from cytforge.topology import UNCLASSIFIED, _minors_gcd, diffeo_label_for, topology_certificate


def dp2_bundle():
    m = blowup_cp2(2)
    return m, BundleSpec(m, (parse_class(m, "3H-E1-E2"), parse_class(m, "H-2E1-E2")))


def pairings(model, bundle, x):
    return [intersect(model, w, x) for w in bundle.curvatures]


def test_reference_witnesses_verify():
    # the witnesses recorded with each construction satisfy the four identities
    m2, b2 = dp2_bundle()
    assert pairings(m2, b2, parse_class(m2, "H+E1-3E2")) == [1, 0]
    assert pairings(m2, b2, parse_class(m2, "E1-E2")) == [0, 1]

    for k in range(3, 9):
        m = blowup_cp2(k)
        b = BundleSpec(m, (m.c1, parse_class(m, "E1-E2")))
        assert pairings(m, b, parse_class(m, f"E{k}")) == [1, 0]
        assert pairings(m, b, parse_class(m, f"E1-E{k}")) == [0, -1]

    for k in (9, 10):
        sol = solve_symmetric_ansatz(k)
        m = blowup_cp2(k)
        b = BundleSpec(m, (sol.omega1, sol.omega2))
        assert pairings(m, b, parse_class(m, f"E{k}")) == [1, 0]
        assert pairings(m, b, parse_class(m, "H-E5-E6-E7-E8")) == [0, -1]


def test_find_alpha_beta_returns_valid_witnesses():
    m, bundle = dp2_bundle()
    cert = topology_certificate(bundle)
    assert pairings(m, bundle, cert.alpha) in ([1, 0], [-1, 0])
    assert pairings(m, bundle, cert.beta) in ([0, 1], [0, -1])


def test_find_alpha_beta_none_cases():
    m = blowup_cp2(2)
    cert = topology_certificate(BundleSpec(m, (parse_class(m, "2H"), parse_class(m, "E1"))))
    assert cert.alpha is None and cert.beta is None
    with pytest.raises(WrongFiberRank):
        topology_certificate(BundleSpec(m, (m.c1, m.c1, m.c1, m.c1)))


def _box_has_witnesses(model, w1, w2, radius=6):
    """Brute-force oracle: scan the coefficient box for both witness kinds."""
    import numpy as np

    rank = model.rank
    rows = np.array(
        [[sum(model.gram[i][j] * v for i, v in enumerate(w.as_int_vector()) if v)
          for j in range(rank)] for w in (w1, w2)],
        dtype=np.int64,
    )
    has_alpha = has_beta = False
    side = range(-radius, radius + 1)
    for lead in side:  # chunk by the leading coefficient to bound memory
        rest = np.array(list(itertools.product(side, repeat=rank - 1)), dtype=np.int64)
        chunk = np.column_stack([np.full(len(rest), lead, dtype=np.int64), rest])
        values = chunk @ rows.T
        has_alpha = has_alpha or bool(np.any((np.abs(values[:, 0]) == 1) & (values[:, 1] == 0)))
        has_beta = has_beta or bool(np.any((values[:, 0] == 0) & (np.abs(values[:, 1]) == 1)))
        if has_alpha and has_beta:
            break
    return has_alpha and has_beta


def test_find_alpha_beta_matches_bounded_search():
    """Solver verdict agrees with a brute-force box search on rank <= 6 models."""
    rng = random.Random(41)
    cases = [(rng.randint(1, 3), 2) for _ in range(40)] + [(4, 2), (5, 2), (5, 1)]
    for k, spread in cases:
        m = blowup_cp2(k)
        rank = k + 1
        w1 = CohClass.of([rng.randint(-spread, spread) for _ in range(rank)])
        w2 = CohClass.of([rng.randint(-spread, spread) for _ in range(rank)])
        cert = topology_certificate(BundleSpec(m, (w1, w2)))
        alpha, beta = cert.alpha, cert.beta
        if alpha is None:
            assert beta is None and not _box_has_witnesses(m, w1, w2)
        else:
            assert abs(intersect(m, w1, alpha)) == 1 and intersect(m, w2, alpha) == 0
            assert intersect(m, w1, beta) == 0 and abs(intersect(m, w2, beta)) == 1


def test_spectral_tables_shapes():
    m, bundle = dp2_bundle()
    tables = topology_certificate(bundle).tables
    b = 3
    assert tables.e2 == ((1, 0, b, 0, 1), (2, 0, 2 * b, 0, 2), (1, 0, b, 0, 1))
    assert tables.e3 == ((1, 0, b - 2, 0, 0), (0, 0, 2 * b - 2, 0, 0), (0, 0, b - 2, 0, 1))
    assert tables.betti == (1, 0, b - 2, 2 * b - 2, b - 2, 0, 1)


def test_spectral_tables_hypotheses():
    m = blowup_cp2(2)
    no_witnesses = topology_certificate(BundleSpec(m, (parse_class(m, "2H"), parse_class(m, "E1"))))
    assert no_witnesses.alpha is None and no_witnesses.tables is None
    # dependent classes: neither witnesses nor a basis extension
    dependent = topology_certificate(BundleSpec(m, (m.c1, 2 * m.c1)))
    assert dependent.tables is None and not dependent.basis_extension


def test_betti_and_euler_consistency():
    cases = [(quadric(), ("C", "D"))]
    for k in range(2, 9):
        m = blowup_cp2(k)
        if k == 2:
            cases.append((m, ("3H-E1-E2", "H-2E1-E2")))
        else:
            cases.append((m, (None, "E1-E2")))
    for model, (w1s, w2s) in cases:
        w1 = model.c1 if w1s is None else parse_class(model, w1s)
        w2 = parse_class(model, w2s)
        tables = topology_certificate(BundleSpec(model, (w1, w2))).tables
        b = model.rank
        assert tables.betti[0] == tables.betti[6] == 1
        assert tables.betti[1] == tables.betti[5] == 0
        assert tables.betti[2] == tables.betti[4] == b - 2
        assert tables.betti[3] == 2 * b - 2
        euler = sum((-1) ** i * x for i, x in enumerate(tables.betti))
        assert euler == 0


def test_topology_certificate_labels():
    q = quadric()
    cert = topology_certificate(BundleSpec(q, (parse_class(q, "C"), parse_class(q, "D"))))
    assert cert.diffeo_label == "S³×S³"
    assert cert.tables.betti == (1, 0, 0, 2, 0, 0, 1)

    m5 = blowup_cp2(5)
    cert5 = topology_certificate(BundleSpec(m5, (m5.c1, parse_class(m5, "E1-E2"))))
    assert cert5.diffeo_label == "4(S²×S⁴) # 5(S³×S³)"
    assert cert5.basis_extension and cert5.simply_connected_surrogate
    assert cert5.spin_integral and cert5.spin_mod2


def test_topology_certificate_unclassified():
    m = blowup_cp2(2)
    cert = topology_certificate(BundleSpec(m, (parse_class(m, "2H"), parse_class(m, "E1"))))
    assert cert.diffeo_label == UNCLASSIFIED
    assert cert.pairing_snf != (1, 1)
    assert not cert.simply_connected_surrogate


def test_spin_integral_implies_mod2():
    rng = random.Random(13)
    m = blowup_cp2(3)
    for _ in range(120):
        w1 = CohClass.of([rng.randint(-2, 2) for _ in range(4)])
        w2 = CohClass.of([rng.randint(-2, 2) for _ in range(4)])
        bundle = BundleSpec(m, (w1, w2))
        cert = topology_certificate(bundle)
        if cert.spin_integral:
            assert cert.spin_mod2


def test_topology_rejects_pairing_model():
    km = kummer_model()
    bundle = BundleSpec(km, (parse_class(km, "C1-C2"), parse_class(km, "C3-C4")))
    with pytest.raises(HypothesesNotMet) as err:
        topology_certificate(bundle)
    assert err.value.hypothesis == "full_lattice_model"


@pytest.mark.parametrize("curvatures", [("C1-C2", "C3-C4"), ("F", "C1")])
def test_witnesses_and_tables_reject_pairing_models(curvatures):
    # a pairing table has no Gram rows to build the pairing matrix from
    km = kummer_model()
    bundle = BundleSpec(km, tuple(parse_class(km, c) for c in curvatures))
    with pytest.raises(HypothesesNotMet) as err:
        topology_certificate(bundle)
    assert err.value.hypothesis == "full_lattice_model"
    assert "kummer declares pairings only" in str(err.value)


def test_topology_rejects_non_simply_connected():
    m = custom_model("torus-like", [[0, 1], [1, 0]], [0, 0], curves=[], ample_witness=[1, 1],
                     simply_connected=False)
    bundle = BundleSpec(m, (parse_class(m, "[1,0]"), parse_class(m, "[0,1]")))
    with pytest.raises(HypothesesNotMet) as err:
        topology_certificate(bundle)
    assert err.value.hypothesis == "simply_connected_base"


def test_diffeo_label_format():
    assert diffeo_label_for(0) == "S³×S³"
    assert diffeo_label_for(1) == "1(S²×S⁴) # 2(S³×S³)"
    assert diffeo_label_for(8) == "8(S²×S⁴) # 9(S³×S³)"


def test_non_unimodular_gram_takes_the_general_path():
    # G = diag(2,-1,-1): W = (e1, e2) extends to a basis, but the pairing
    # matrix W G = [[2,0,0],[0,-1,0]] has invariant factors (1, 2)
    m = custom_model("diag2", [[2, 0, 0], [0, -1, 0], [0, 0, -1]], [1, 1, 1],
                     curves=[], ample_witness=[1, 0, 0], simply_connected=True)
    cert = topology_certificate(BundleSpec(m, (parse_class(m, "e1"), parse_class(m, "e2"))))
    assert not m.unimodular and cert.basis_extension
    assert cert.pairing_snf == (1, 2)
    assert not cert.simply_connected_surrogate
    assert cert.alpha is None and cert.beta is None
    assert cert.diffeo_label == UNCLASSIFIED


def _snf_extends(*classes):
    """Reference: the classes extend to a Z-basis iff the Smith normal form
    of their coefficient rows is diag(1, 1)."""
    return intlinalg.snf([c.as_int_vector() for c in classes]).diagonal == (1, 1)


def test_basis_extension_of_two_classes():
    m5, m2, p = blowup_cp2(5), blowup_cp2(2), projective_plane()
    cases = [
        (m5, "3H-E1-E2-E3-E4-E5", "E1-E2", True),
        (m2, "H", "E1", True),
        (m2, "H", "2H", False),  # linearly dependent classes never extend
        (m2, "2H", "E1", False),  # nor does a set with a divisible minor gcd
        (p, "H", "2H", False),  # two classes on a rank-1 lattice
    ]
    for model, a, b, extends in cases:
        w1, w2 = parse_class(model, a), parse_class(model, b)
        cert = topology_certificate(BundleSpec(model, (w1, w2)))
        assert cert.basis_extension == _snf_extends(w1, w2) == extends, (model.name, a, b)


FULL_BUILTIN_MODELS = (
    [projective_plane(), quadric()]
    + [blowup_cp2(k) for k in range(1, 9)]
    + [blowup_cp2(k, "on_cubic") for k in (2, 5, 9, 12)]
)
OTHER_GRAMS = (
    [[2, 0, 0], [0, -1, 0], [0, 0, -1]],  # nondegenerate, |det| = 2
    [[0, 3], [3, 2]],  # nondegenerate, |det| = 9
    [[1, 1, 0], [1, 1, 0], [0, 0, -1]],  # degenerate
)


def _degenerate_model(seed):
    """A model with Gram A^T D A for a random (n-1) x n integer A and a
    diagonal D of signs, n = 2..4: symmetric, of rank below n."""
    rng = random.Random(seed)
    n = 2 + seed % 3
    a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)]
    d = [rng.choice((1, -1)) for _ in range(n - 1)]
    gram = [[sum(a[r][i] * d[r] * a[r][j] for r in range(n - 1)) for j in range(n)] for i in range(n)]
    return custom_model(f"degenerate{seed}", gram, [1] * n, curves=[], simply_connected=True)


@pytest.mark.parametrize(
    "model",
    FULL_BUILTIN_MODELS
    + [custom_model(f"g{i}", g, [1] * len(g), curves=[], simply_connected=True)
       for i, g in enumerate(OTHER_GRAMS)]
    + [_degenerate_model(seed) for seed in range(6)],
    ids=lambda m: m.name,
)
def test_one_snf_certificate_matches_the_separate_checks(model):
    rng = random.Random(model.name)
    for _ in range(60):
        w1, w2 = (CohClass.of([rng.randint(-3, 3) for _ in range(model.rank)]) for _ in range(2))
        bundle = BundleSpec(model, (w1, w2))
        cert = topology_certificate(bundle)
        # W's own minors decide basis extension on every Gram, and the surrogate implies it
        assert cert.basis_extension == _snf_extends(w1, w2)
        assert cert.basis_extension or not cert.simply_connected_surrogate
        assert (cert.tables is not None) == cert.simply_connected_surrogate
        assert cert.spin_integral == c1_bundle_triviality(bundle)
        assert (cert.alpha is None) == (cert.beta is None) == (not cert.simply_connected_surrogate)
        if cert.alpha is not None:
            assert pairings(model, bundle, cert.alpha) == [1, 0]
            assert pairings(model, bundle, cert.beta) == [0, 1]


UNIMODULAR_MODELS = (
    [blowup_cp2(k) for k in range(1, 9)]
    + [quadric()]
    + [custom_model("skew", [[2, 1, 0], [1, 1, 0], [0, 0, -1]], [1, 1, 1], curves=[], simply_connected=True)]
)


@pytest.mark.parametrize("model", UNIMODULAR_MODELS, ids=lambda m: m.name)
def test_a_unimodular_gram_gives_w_and_p_one_minors_gcd(model, monkeypatch):
    # P = W G and W = P G^-1 are both integral, so by Cauchy-Binet each gcd
    # divides the other: basis extension is the surrogate, read with no W minors
    assert model.unimodular
    rng = random.Random(model.name)
    pairs = [[[rng.randint(-4, 4) for _ in range(model.rank)] for _ in range(2)] for _ in range(200)]
    for vectors in pairs:
        assert _minors_gcd(vectors) == _minors_gcd([model.gram_row(v) for v in vectors]), vectors
    read = []
    monkeypatch.setattr(topology, "_minors_gcd", lambda rows: read.append(rows) or _minors_gcd(rows))
    for vectors in pairs:
        w1, w2 = map(CohClass.of, vectors)
        cert = topology_certificate(BundleSpec(model, (w1, w2)))
        assert cert.basis_extension == cert.simply_connected_surrogate == _snf_extends(w1, w2), vectors
    assert len(read) == len(pairs)  # P's minors alone


def test_rendered_fields_match_the_snf_and_fraction_references():
    property_suites.check_rendered_fields()


def test_a_label_builds_no_solver_and_a_read_builds_one(monkeypatch):
    m = blowup_cp2(5)
    bundle = BundleSpec(m, (m.c1, parse_class(m, "E1-E2")))
    m.gram_factors  # spin_integral reads it: one SNF of the Gram matrix per model, not per certificate
    calls = {"snf": 0, "solver": 0}
    snf, init = intlinalg.snf, intlinalg.IntegerSolver.__init__

    def counted_snf(mat):
        calls["snf"] += 1
        return snf(mat)

    def counted_init(self, mat):
        calls["solver"] += 1
        init(self, mat)

    monkeypatch.setattr(intlinalg, "snf", counted_snf)
    monkeypatch.setattr(intlinalg.IntegerSolver, "__init__", counted_init)
    cert = topology_certificate(bundle)
    assert cert.diffeo_label == diffeo_label_for(4) and cert.simply_connected_surrogate
    assert calls == {"snf": 0, "solver": 0}
    assert cert.pairing_snf == (1, 1)
    assert calls == {"snf": 1, "solver": 1}
    assert pairings(m, bundle, cert.alpha) == [1, 0] and pairings(m, bundle, cert.beta) == [0, 1]
    assert cert.spin_integral and cert.pairing_snf == (1, 1)
    assert calls == {"snf": 1, "solver": 1}


def test_an_snf_that_disagrees_with_the_minors_fails_the_read(monkeypatch):
    m = blowup_cp2(5)
    cert = topology_certificate(BundleSpec(m, (m.c1, parse_class(m, "E1-E2"))))
    snf = intlinalg.snf
    monkeypatch.setattr(intlinalg, "snf", lambda mat: snf(mat)._replace(diagonal=(1, 2)))
    with pytest.raises(InvariantViolation, match=r"invariant factors \(1, 2\), but the gcd of its 2x2 minors is 1"):
        cert.pairing_snf
    with pytest.raises(InvariantViolation):
        cert.alpha  # every rendered field reads the checked solver


@pytest.mark.parametrize("gram", [[[1, 0, 0], [0, -1, 0], [0, 0, -1]], OTHER_GRAMS[0]], ids=["unimodular", "det2"])
def test_a_cold_model_labels_with_no_snf(monkeypatch, gram):
    # a fresh model has no cached Gram data: the label reads minors only
    m = custom_model("cold", gram, [3, -1, -1], curves=[], simply_connected=True)
    calls = []
    snf = intlinalg.snf
    monkeypatch.setattr(intlinalg, "snf", lambda mat: calls.append(mat) or snf(mat))
    certs = [topology_certificate(BundleSpec(m, (parse_class(m, "e1+e3"), parse_class(m, w)))) for w in ("e2", "2e1")]
    assert [(c.basis_extension, c.diffeo_label) for c in certs] == [(True, diffeo_label_for(1)), (False, UNCLASSIFIED)]
    assert calls == []
