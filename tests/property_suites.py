"""Bulk randomized property suites with independent oracles.

Each runner is deterministic (seeded), returns the number of cases it
exercised, and raises AssertionError on the first violation.  They back the
acceptance criterion on property coverage and are also handy to run ad hoc.
"""

from __future__ import annotations

import dataclasses
import importlib
import pickle
import random
from contextlib import contextmanager
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import Callable
from unittest.mock import patch

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cytforge.cone import is_kahler, negative_curves, positively_proportional
from cytforge.cyt import (
    BundleSpec,
    _traced_sum,
    primitive_route_check,
    solve_scale,
    solve_symmetric_ansatz,
    verify_cyt,
)
from cytforge.errors import MixedFieldError, NotKahler, NotPositiveRay, NullClass
from cytforge.intlinalg import IntegerSolver, mat_vec, snf, solve_integer_linear
from cytforge.scalars import (
    QuadraticNumber,
    exact_div,
    exact_sign,
    format_scalar,
    is_rational,
    parse_scalar,
    quadratic,
)
from cytforge.search import NO_SYMMETRY, VALID_FILTERS, SearchQuery, _Plan, _RayData, search
from cytforge.skt import hodge_obstruction, verify_skt
from cytforge.surfaces import (
    CohClass,
    PairingFunctionalModel,
    blowup_cp2,
    custom_model,
    intersect,
    parse_class,
    projective_plane,
    quadric,
)
from cytforge.topology import SpectralTables, topology_certificate

# the package attribute `search` is the function, so reach the module by name
search_module = importlib.import_module("cytforge.search")

SQUARE_FREE = (2, 3, 5, 6, 7, 10, 11, 13, 15, 114)


def _random_fraction(rng, span=60, den=25):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _random_scalar(rng, d):
    if rng.random() < 0.25:
        return Fraction(_random_fraction(rng))
    return quadratic(_random_fraction(rng), _random_fraction(rng), d)


def run_field_axioms(cases: int = 1000, seed: int = 101) -> int:
    rng = random.Random(seed)
    for _ in range(cases):
        d = rng.choice(SQUARE_FREE)
        x, y, z = (_random_scalar(rng, d) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == 0
        assert x * 1 == x and x + 0 == x
        if y != 0:
            assert (x / y) * y == x
    return cases


def run_sign_oracle(cases: int = 10000, seed: int = 102) -> int:
    import mpmath

    rng = random.Random(seed)
    with mpmath.workprec(200):
        roots = {d: mpmath.sqrt(d) for d in SQUARE_FREE}
        for _ in range(cases):
            d = rng.choice(SQUARE_FREE)
            x = _random_scalar(rng, d)
            if isinstance(x, Fraction):
                approx = mpmath.mpf(x.numerator) / x.denominator
            else:
                approx = (
                    mpmath.mpf(x.a.numerator) / x.a.denominator
                    + (mpmath.mpf(x.b.numerator) / x.b.denominator) * roots[d]
                )
            oracle = 0 if approx == 0 else (1 if approx > 0 else -1)
            assert exact_sign(x) == oracle, x
    return cases


def _bareiss_det(mat):
    n = len(mat)
    a = [row[:] for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _minors_gcd(mat, size):
    from math import gcd

    g = 0
    for rows in combinations(range(len(mat)), size):
        for cols in combinations(range(len(mat[0])), size):
            g = gcd(g, abs(_bareiss_det([[mat[i][j] for j in cols] for i in rows])))
    return g


def _invariant_factors_oracle(mat):
    factors, prev = [], 1
    for size in range(1, min(len(mat), len(mat[0])) + 1):
        g = _minors_gcd(mat, size)
        if g == 0:
            factors.append(0)
            prev = 0
        else:
            factors.append(g // prev)
            prev = g
    return tuple(factors)


def mat_mul(a, b):
    """The integer matrix product a b."""
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def run_snf_oracle(cases: int = 1000, seed: int = 103) -> int:
    rng = random.Random(seed)
    for i in range(cases):
        if i % 50 == 49:
            m, n = rng.randint(6, 8), rng.randint(6, 8)
            lo, hi = -4, 4
        else:
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            lo, hi = -9, 9
        mat = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
        s, u, v, diag = snf(mat)
        assert mat_mul(mat_mul(u, mat), v) == s
        assert abs(_bareiss_det(u)) == 1 and abs(_bareiss_det(v)) == 1
        for j in range(len(diag) - 1):
            assert diag[j] >= 0
            assert (diag[j] == 0 and diag[j + 1] == 0) or diag[j] == 0 or diag[j + 1] % diag[j] == 0
        assert diag == _invariant_factors_oracle(mat)
    return cases


def run_integer_solve_oracle(cases: int = 1000, seed: int = 104) -> int:
    import numpy as np
    from itertools import product

    rng = random.Random(seed)
    box = np.array(list(product(range(-5, 6), repeat=4)), dtype=np.int64)
    for _ in range(cases):
        mat = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        target = [rng.randint(-5, 5) for _ in range(4)]
        found = solve_integer_linear(mat, target)
        hits = (np.asarray(mat, dtype=np.int64) @ box.T).T == np.asarray(target, dtype=np.int64)
        brute_has = bool(np.any(hits.all(axis=1)))
        if found is not None:
            assert mat_vec(mat, found) == target
        if brute_has:
            assert found is not None
        if found is None:
            assert not brute_has
    return cases


def run_lambda_covariance(cases: int = 1000, seed: int = 105) -> int:
    rng = random.Random(seed)
    scales = (Fraction(1, 2), 2, Fraction(7, 5), Fraction(3, 11), 5)
    done = 0
    while done < cases:
        k = rng.randint(1, 6)
        m = blowup_cp2(k) if k <= 8 else blowup_cp2(k, "on_cubic")
        w = CohClass.of([rng.randint(-6, 6) for _ in range(k + 1)])
        f = CohClass.of([rng.randint(-6, 6) for _ in range(k + 1)])
        if intersect(m, f, f) == 0:
            continue
        bundle = BundleSpec(m, (w, CohClass.zero(k + 1)))
        base = verify_cyt(bundle, f).lambdas[0]
        s = rng.choice(scales)
        assert verify_cyt(bundle, s * f).lambdas == (base / s, 0)
        done += 1
    return done


def run_hodge_suite(cases: int = 1000, seed: int = 106) -> int:
    rng = random.Random(seed)
    done = 0
    while done < cases:
        k = rng.randint(2, 8)
        m = blowup_cp2(k)
        f = CohClass.of([k + 1] + [-1] * k)
        w = CohClass.of([rng.randint(-4, 4) for _ in range(k + 1)])
        if w.is_zero():
            continue
        report = hodge_obstruction(BundleSpec(m, (w, w)), f)
        row = report.hodge[0]
        ff = Fraction(intersect(m, f, f))
        wf = Fraction(intersect(m, w, f))
        assert intersect(m, row.primitive_part, f) == 0
        assert intersect(m, w, w) == wf * wf / ff + row.primitive_square
        if not row.primitive_part.is_zero():
            assert exact_sign(row.primitive_square) == -1
        done += 1
    return done


@lru_cache(maxsize=None)
def _reference_permutes(g: tuple, c1: tuple) -> bool:
    """Whether every transposition of the coordinates 1..k fixes g and c1."""
    rank = len(c1)

    def fixes(i: int, j: int) -> bool:
        p = [j if a == i else i if a == j else a for a in range(rank)]
        return c1[i] == c1[j] and all(g[p[a]][p[b]] == g[a][b] for a in range(rank) for b in range(rank))

    return all(fixes(i, j) for i, j in combinations(range(1, rank), 2))


def reference_key(model, v1: tuple, v2: tuple, signs: bool = True) -> str:
    """The dedup key from its definition, sharing no code with the search:
    the least of the pair's images under the swap and, with signs, the fiber
    sign changes (w1, w2) -> (+-w1, +-w2), as 'a0,a1,..|b0,b1,..', with the
    exceptional columns sorted when every transposition of the coordinates
    1..k fixes the Gram matrix and c1."""
    rank = model.rank
    permute = _reference_permutes(tuple(map(tuple, model.gram)), tuple(model.c1.coeffs))

    def canon(x: tuple, y: tuple) -> tuple:
        columns = sorted(zip(x[1:], y[1:])) if permute else list(zip(x[1:], y[1:]))
        return (x[0], *(c[0] for c in columns), y[0], *(c[1] for c in columns))

    def negated(v: tuple) -> tuple:
        return tuple(-c for c in v)

    images = [(v1, v2), (v2, v1)]
    if signs:
        images += [(x, y) for a, b in images for x, y in ((negated(a), b), (a, negated(b)), (negated(a), negated(b)))]
    best = min(canon(x, y) for x, y in images)
    return ",".join(map(str, best[:rank])) + "|" + ",".join(map(str, best[rank:]))


@contextmanager
def search_group(group: Callable[[str], str]):
    """Run the search under group(its own group): for example the unpruned
    NO_SYMMETRY reference, or the groups without the fiber signs."""
    own = search_module.search_symmetry
    with patch.object(search_module, "search_symmetry", lambda *args: group(own(*args))):
        yield


def without_signs():
    """The search as it was before the fiber signs joined its group, S_k x
    swap or the swap alone: it writes the v1 catalogs, keyed without signs."""
    return search_group(lambda group: group.replace("signs+", ""))


def sign_reduced(model, records) -> list:
    """A catalog keyed without the fiber signs, reduced by them: the first
    record of each key with the signs, under that key."""
    out, seen = [], set()
    for rec in records:
        key = reference_key(model, rec.omega1, rec.omega2)
        if key not in seen:
            seen.add(key)
            out.append(dataclasses.replace(rec, canonical_key=key))
    return out


def _reverify_record(model, rec) -> None:
    bundle = BundleSpec(model, (CohClass.of(rec.omega1), CohClass.of(rec.omega2)))
    assert rec.canonical_key == reference_key(model, rec.omega1, rec.omega2)
    if rec.flags.cyt is not None:
        assert verify_cyt(bundle, rec.kahler_class()).verdict == rec.flags.cyt
    if rec.flags.skt is not None:
        assert verify_skt(bundle).verdict == rec.flags.skt
    if rec.flags.topology_label is not None:
        assert topology_certificate(bundle).diffeo_label == rec.flags.topology_label


# models for random queries, each with rays of positive square for a cyt
# filter: symmetric ones and, where S_k is not trivial, unsymmetric ones; the
# last model's diag(1,-1,-1,-2) is fixed by no permutation, so it keeps the
# swap and the signs alone
_ORBIT_MODELS = (
    (blowup_cp2(1), (None, "[2,-1]")),
    (blowup_cp2(2), (None, "[4,-1,-1]", "[4,-1,-2]")),
    (blowup_cp2(3), (None, "[5,-1,-1,-1]", "[5,-2,-1,-1]")),
    (quadric(), (None, "[1,2]")),
    (custom_model("swap_only", [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]], [3, -1, -1, -1],
                  curves=[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ample_witness=[3, -1, -1, -1], simply_connected=True),
     (None, "[3,-1,-1,-1]")),
)


def run_orbit_reduction(cases: int = 40, seed: int = 107) -> int:
    """Random small queries emit exactly one record per orbit under the fiber
    signs of the unpruned NO_SYMMETRY reference's records: its catalog,
    keyed without the signs, reduced by them (the first record of each key
    with the signs), cut at the query's limit.  Serial and 2-worker catalogs
    are byte-identical.  Covers cyt on the box or a ray, skt, balanced, spin,
    topology, unfiltered boxes and --limit."""
    rng = random.Random(seed)
    for case in range(cases):
        model, rays = _ORBIT_MODELS[case % len(_ORBIT_MODELS)]
        filters = frozenset(rng.sample(VALID_FILTERS, rng.randint(0, 3)) + ["cyt"] * (case % 2))
        ray = rng.choice(rays) if "cyt" in filters or "balanced" in filters else None
        bound = rng.randint(2, 3) if "cyt" in filters else rng.randint(1, 2) if "skt" in filters else 1
        limit = rng.choice([None, None, rng.randint(0, 5)])
        query = SearchQuery(model, bound, filters, ray=parse_class(model, ray) if ray else None, limit=limit)
        with search_group(lambda group: NO_SYMMETRY):
            reference, _ = search(dataclasses.replace(query, limit=None), threads=1)
        want = [r.to_line() for r in sign_reduced(model, reference)]
        for threads in (1, 2):
            records, stats = search(query, threads=threads)
            assert "signs" in stats.symmetry, query
            assert [r.to_line() for r in records] == want[:limit], (query, threads)
            assert stats.exhausted == (limit is None or limit >= len(want))
    return cases


def run_search_determinism_and_reverify() -> int:
    """Two serial runs and one 4-way run per query must agree line for line;
    every record re-verifies through the certificate engines.  Covers every
    record the queries produce (exhaustive rather than sampled)."""
    queries = [
        (blowup_cp2(2), SearchQuery(model=blowup_cp2(2), coeff_bound=3,
                                    filters=frozenset({"cyt", "topology"}))),
        (blowup_cp2(2), SearchQuery(model=blowup_cp2(2), coeff_bound=2,
                                    filters=frozenset({"skt"}))),
        (quadric(), SearchQuery(model=quadric(), coeff_bound=3,
                                filters=frozenset({"skt"}))),
        (quadric(), SearchQuery(model=quadric(), coeff_bound=1,
                                filters=frozenset({"cyt", "skt"}))),
        # one record per bundle up to S_k and the fiber signs: larger
        # queries keep the record count at or above a thousand
        (blowup_cp2(3), SearchQuery(model=blowup_cp2(3), coeff_bound=2,
                                    filters=frozenset({"skt"}))),
        (blowup_cp2(5), SearchQuery(model=blowup_cp2(5), coeff_bound=3,
                                    filters=frozenset({"cyt", "topology", "spin"}))),
    ]
    cases = 0
    for model, query in queries:
        first, _ = search(query, threads=1)
        second, _ = search(query, threads=1)
        parallel, _ = search(query, threads=4)
        lines = [r.to_line() for r in first]
        assert lines == [r.to_line() for r in second]
        assert lines == [r.to_line() for r in parallel]
        for rec in first:
            _reverify_record(model, rec)
        cases += 3 * len(first)
    return cases


# -- integer pairing kernel against the scalar loop --------------------------
#
# A PairingFunctionalModel over the same Gram matrix sends intersect down the
# scalar loop, class by class, so it is the reference the cleared-denominator
# kernel on the SurfaceModel must agree with.  The traces are checked against
# a class-by-class reference written here, since _traced_sum builds the same
# traces object on both.  Hypothesis runs derandomized, so these checks are
# deterministic like the runners above.

KERNEL_SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def scalar_twin(model) -> PairingFunctionalModel:
    """The model's Gram matrix as a pairing table: same form, scalar loop."""
    return PairingFunctionalModel(model.name, model.basis_labels, model.gram, model.c1)


@st.composite
def surface_models(draw):
    """Built-in blow-ups, the plane, the quadric, and custom models with
    random symmetric, mostly non-diagonal Gram matrices."""
    kind = draw(st.sampled_from(("blowup", "plane", "quadric", "custom")))
    if kind == "blowup":
        return blowup_cp2(draw(st.integers(1, 8)))
    if kind == "plane":
        return projective_plane()
    if kind == "quadric":
        return quadric()
    rank = draw(st.integers(1, 5))
    gram = _random_gram(draw, rank)
    c1 = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    return custom_model("random", gram, c1)


def _random_gram(draw, rank: int) -> list[list[int]]:
    """A random symmetric integer matrix, mostly non-diagonal."""
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = draw(st.integers(-4, 4))
    return gram


# an int, a Fraction(x, 1) or a proper fraction, zero weighted up
_coefficients = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.integers(-6, 6).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)
_integral = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(Fraction))


def classes(rank: int, coefficients=_coefficients):
    """Classes of the given rank, the zero class among them."""
    vectors = st.lists(coefficients, min_size=rank, max_size=rank)
    return st.one_of(st.just(CohClass.zero(rank)), vectors.map(CohClass.of))


def _nonzero_classes(rank: int):
    """Rational classes of the given rank with a nonzero coefficient."""
    return st.lists(_coefficients, min_size=rank, max_size=rank).filter(any).map(CohClass.of)


def _oracle_pairing(model, x: CohClass, y: CohClass) -> Fraction:
    return sum(
        (Fraction(a) * g * Fraction(b) for a, row in zip(x.coeffs, model.gram) for g, b in zip(row, y.coeffs)),
        Fraction(0),
    )


def _quadratic_in(d: int):
    """A coefficient in Q(sqrt(d)), never rational."""
    return st.builds(quadratic, st.integers(-6, 6), st.integers(1, 6) | st.integers(-6, -1), st.just(d))


# a Q(sqrt(d)) coefficient for a random d, never rational
_quadratic = st.sampled_from(SQUARE_FREE).flatmap(_quadratic_in)


def _reference_integral(x: CohClass) -> bool:
    return all(isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1) for c in x.coeffs)


@KERNEL_SETTINGS
@given(st.data())
def check_cleared_form(data) -> None:
    """coeffs = n / d with d the least common denominator and n plain ints,
    Fraction(x, 1) included; no cleared form when a coefficient lies in
    Q(sqrt(d)).  is_integral and as_int_vector, which read the cleared form,
    agree with a per-coefficient test.  The cached scalar text is the
    Fraction text of each rational coefficient and parses back to it,
    serialize hands out a fresh list, and neither cache reaches equality,
    hashing or pickles."""
    rank = data.draw(st.integers(1, 9))
    coefficients = data.draw(st.sampled_from((_coefficients, _integral, _coefficients | _quadratic)))
    x = data.draw(classes(rank, coefficients))
    digest = hash(CohClass(x.coeffs))
    text = x.serialize()
    assert [parse_scalar(t) for t in text] == list(x.coeffs)
    assert all(t == _fraction_text(c) for t, c in zip(text, x.coeffs) if is_rational(c))
    text.append("0/1")  # a fresh list each call: the cached text stays intact
    assert x.serialize() == text[:-1]
    drawn = data.draw(st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64)))
    for value in (drawn, 0, True, False):
        assert format_scalar(value) == _fraction_text(value)
    integral = _reference_integral(x)
    assert x.is_integral() == integral
    if integral:
        vec = x.as_int_vector()
        assert vec == [int(c) for c in x.coeffs] and all(type(v) is int for v in vec)
        vec.append(0)  # a fresh list each call: the cached form stays intact
        assert x.as_int_vector() == [int(c) for c in x.coeffs]
    else:
        try:
            x.as_int_vector()
        except ValueError:
            pass
        else:
            raise AssertionError("as_int_vector accepted a non-integral class")
    _check_surd_form(x)
    if not all(is_rational(c) for c in x.coeffs):
        assert x.cleared_form is None
        _check_caches_stay_private(x, digest)
        return
    n, d = x.cleared_form
    assert d == lcm(*(Fraction(c).denominator for c in x.coeffs))
    assert all(type(v) is int for v in n)
    assert tuple(Fraction(v, d) for v in n) == x.coeffs
    _check_caches_stay_private(x, digest)


def _check_surd_form(x: CohClass) -> None:
    """coeffs = (n + m sqrt(d)) / den with int vectors n and m and den the
    least positive denominator; m and d None on a rational class, whose n
    and den are its cleared form; MixedFieldError exactly when the
    irrational coefficients lie in two fields."""
    radicands = {c.d for c in x.coeffs if isinstance(c, QuadraticNumber)}
    try:
        n, m, d, den = x.surd_form
    except MixedFieldError:
        assert len(radicands) > 1
        return
    assert len(radicands) <= 1 and all(type(v) is int for v in n + (m or ()))
    if m is None:
        assert d is None and (n, den) == x.cleared_form
        return
    assert {d} == radicands and den > 0 and gcd(den, *n, *m) == 1
    assert tuple(quadratic(Fraction(a, den), Fraction(b, den), d) for a, b in zip(n, m)) == x.coeffs


def _check_caches_stay_private(x: CohClass, digest: int) -> None:
    """With both caches filled, x equals and hashes as a bare class of its
    coefficients, and a pickle round trip carries the coefficients alone."""
    assert {"text", "cleared_form"} <= set(vars(x))
    bare = CohClass(x.coeffs)
    assert x == bare and hash(x) == hash(bare) == digest
    back = pickle.loads(pickle.dumps(x))
    assert vars(back) == {"coeffs": x.coeffs}
    assert back == x and hash(back) == digest


def _fraction_text(c) -> str:
    q = Fraction(c)
    return f"{q.numerator}/{q.denominator}"


@KERNEL_SETTINGS
@given(st.data())
def check_integer_intersect(data) -> None:
    """The kernel's x . y equals the scalar loop and a Fraction oracle, and is
    an int exactly when both cleared denominators are 1."""
    model = data.draw(surface_models())
    x, y = data.draw(classes(model.rank)), data.draw(classes(model.rank))
    value = intersect(model, x, y)
    assert value == intersect(scalar_twin(model), x, y) == _oracle_pairing(model, x, y)
    assert value == intersect(model, y, x)
    assert isinstance(value, int) == (x.cleared_form[1] * y.cleared_form[1] == 1)


@settings(KERNEL_SETTINGS, max_examples=400)  # half the draws are irrational
@given(st.data())
def check_traced_sum(data) -> None:
    """Traces, traced sum and Q(f,f) from the Gram row, and from the
    pairing table of the scalar twin, equal the class-by-class reference,
    value and type, and so do the decisions read from the numerators: the
    trace-free flags, the defect test and the ratio to c1.  f is rational or
    has Q(sqrt(d)) coefficients.  c1 is the model's, a random rational
    class, or the reference's traced sum itself, so that the defect vanishes
    against a c1 with fractional or irrational coefficients.  All raise
    NullClass when Q(f,f) = 0."""
    model = data.draw(surface_models())
    count = data.draw(st.sampled_from((2, 4)))
    ws = tuple(data.draw(classes(model.rank, _integral)) for _ in range(count))
    # the zero class only on an explicit null draw, so that most rational
    # draws get past Q(f,f) = 0 to the trace-free flags and the scale
    if data.draw(st.sampled_from((False,) * 7 + (True,))):
        f = CohClass.zero(model.rank)
    else:
        f = data.draw(_nonzero_classes(model.rank))
    if data.draw(st.booleans()):  # move f off the rational lattice
        field = _quadratic_in(data.draw(st.sampled_from(SQUARE_FREE)))
        coeffs = [data.draw(field | _coefficients) for _ in range(model.rank - 1)]
        coeffs.insert(data.draw(st.integers(0, model.rank - 1)), data.draw(field))
        f = CohClass(tuple(coeffs))
    c1 = data.draw(st.sampled_from(("model", "random", "traced")))
    if c1 == "random":
        model = custom_model("rational_c1", model.gram, data.draw(classes(model.rank)).coeffs)
    elif c1 == "traced":
        traced = _reference_traces(model, ws, f)
        if traced is not None:
            model = custom_model("traced_c1", model.gram, traced[1].coeffs)
    want = _reference_traces(model, ws, f)
    for m in (model, scalar_twin(model)):
        got = _traced_fields(BundleSpec(m, ws), f)
        assert got == want
        if got is not None:
            assert [type(v) for v in got[0] + got[1].coeffs] == [type(v) for v in want[0] + want[1].coeffs]


def _traced_fields(bundle, f):
    try:
        t = _traced_sum(bundle, f)
    except NullClass:
        return None
    return t.lambdas, t.traced, t.ff_sign(), t.trace_free, t.defect_zero(), t.scale()


def _reference_lambdas(model, ws, f) -> tuple:
    """The trace 2 Q(w,f) / Q(f,f) of each w, paired class by class on the
    scalar twin; NullClass when Q(f,f) = 0."""
    twin = scalar_twin(model)
    ff = intersect(twin, f, f)
    if ff == 0:
        raise NullClass("Q(F,F) = 0")
    return tuple(exact_div(2 * intersect(twin, w, f), ff) for w in ws)


def _reference_ratio(x, y):
    """The t with x = t*y coefficientwise, read at y's first nonzero entry;
    None when y is zero or x is not a multiple of y."""
    p = next((i for i, b in enumerate(y) if b != 0), None)
    if p is None:
        return None
    t = exact_div(x[p], y[p])
    return t if all(a == t * b for a, b in zip(x, y)) else None


def _reference_traces(model, ws, f):
    """The fields of _traced_fields, class by class: the traces on the
    scalar twin, the traced sum and the defect in CohClass arithmetic, the
    scale from the ratio of the coefficients; None when Q(f,f) = 0."""
    ff = intersect(scalar_twin(model), f, f)
    if ff == 0:
        return None
    lambdas = _reference_lambdas(model, ws, f)
    traced = CohClass.zero(model.rank)
    for lam, w in zip(lambdas, ws):
        if lam != 0:
            traced = traced + lam * w
    s = _reference_ratio(traced.coeffs, model.c1.coeffs)
    scale = s if s is not None and is_rational(s) and exact_sign(s) > 0 else None
    trace_free = tuple(lam == 0 for lam in lambdas)
    return lambdas, traced, exact_sign(ff), trace_free, (model.c1 - traced).is_zero(), scale


# -- trace readers against the class-by-class reference ----------------------
#
# solve_scale, primitive_route_check, hodge_obstruction and
# positively_proportional read Q(F,F) and the traces from _traced_sum, and
# compare rational classes on their cleared numerators.  The references below
# are the class-by-class forms: _reference_lambdas on the scalar twin, and
# _reference_ratio on the coefficients.


def _reference_proportional(x: CohClass, y: CohClass) -> bool:
    t = _reference_ratio(x.coeffs, y.coeffs) if x.rank == y.rank else None
    return t is not None and is_rational(t) and exact_sign(t) > 0


def _reference_solve_scale(model, ws, ray):
    twin = scalar_twin(model)
    if exact_sign(intersect(twin, ray, ray)) <= 0:
        raise NotPositiveRay("ray needs positive self-intersection")
    traced = CohClass.zero(model.rank)
    for lam, w in zip(_reference_lambdas(model, ws, ray), ws):
        if lam != 0:
            traced = traced + lam * w
    s = _reference_ratio(traced.coeffs, model.c1.coeffs)
    return s if s is not None and is_rational(s) and exact_sign(s) > 0 else None


def _reference_primitive(model, ws, f) -> bool:
    lambdas = _reference_lambdas(model, ws, f)
    return (
        _reference_proportional(ws[0], f)
        and all(lam == 0 for lam in lambdas[1:])
        and _reference_proportional(model.c1, f)
    )


def _reference_hodge_rows(model, ws, f):
    if not is_kahler(model, f).verdict:
        raise NotKahler("f is not certified Kaehler")
    twin = scalar_twin(model)
    ff = intersect(twin, f, f)
    rows = []
    for w in ws:
        c = exact_div(intersect(twin, w, f), ff)
        p = w - c * f if c != 0 else w
        rows.append((w, c, p, intersect(model, p, p)))
    return rows


def _outcome(fn, *args):
    """The value and its type, or the exception type and message."""
    try:
        value = fn(*args)
    except (NotKahler, NotPositiveRay, NullClass) as err:
        return type(err), str(err)
    return value, type(value)


def _hodge_rows(bundle, f):
    return [
        (r.omega, r.trace_coefficient, r.primitive_part, r.primitive_square)
        for r in hodge_obstruction(bundle, f).hodge
    ]


def _kahler_class(draw, model) -> CohClass:
    """A Kaehler class on a built-in model, with rational coefficients."""
    positive = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
    if model.name == "quadric":
        return CohClass((draw(positive), draw(positive)))
    b = [draw(positive) for _ in range(model.rank - 1)]
    a = 3 * max(b, default=1) + draw(positive)  # beats every (-1)-curve
    return CohClass.of([a] + [-x for x in b])


def _class_near(draw, model, anchors) -> CohClass:
    """A rational multiple of one of the anchors, or a random class."""
    t = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(3, 1))))
    anchor = draw(st.sampled_from(anchors + (None,)))
    return t * anchor if anchor is not None else draw(classes(model.rank))


def _curvature(draw, model, anchors) -> CohClass:
    """An integral class: random, zero, or an integer multiple of an anchor."""
    k = draw(st.sampled_from((1, 2, -1)))
    return draw(st.one_of(classes(model.rank, _integral), st.sampled_from(anchors).map(lambda a: k * a)))


@lru_cache(maxsize=None)
def _ansatz_case():
    """Blow-up at 9 points of a cubic, the ansatz pair and its Kaehler
    class, whose coefficients lie in Q(sqrt(3))."""
    sol = solve_symmetric_ansatz(9)
    return blowup_cp2(9), sol.kahler_class, (sol.omega1, sol.omega2)


@KERNEL_SETTINGS
@given(st.data())
def check_trace_readers(data) -> None:
    """solve_scale, primitive_route_check, the hodge_obstruction rows and
    positively_proportional equal the class-by-class reference, value and
    type, and raise the same errors.  Rational classes with int, Fraction(x, 1)
    and proper-fraction coefficients, zero classes, non-diagonal custom Grams
    and the Q(sqrt(3)) ansatz class are drawn."""
    if data.draw(st.integers(0, 9)) == 0:
        model, f, pair = _ansatz_case()
        anchors, rays = (model.c1, *pair), (f,)
    else:
        model = data.draw(surface_models())
        if model.curve_regime == "explicit":
            # no negative curves and f as the witness: f is Kaehler iff Q(f,f) > 0
            f = _class_near(data.draw, model, (model.c1,))
            model = custom_model("random", model.gram, model.c1.coeffs, curves=[], ample_witness=f.cleared_form[0])
        elif data.draw(st.booleans()):
            f = Fraction(2, 3) * model.c1  # c1 is ample on every built-in drawn here
        else:
            f = _kahler_class(data.draw, model)
        anchors, rays = (model.c1, CohClass(f.cleared_form[0])), (model.c1, f)
    ws = tuple(_curvature(data.draw, model, anchors) for _ in range(data.draw(st.sampled_from((2, 4)))))
    ray = _class_near(data.draw, model, rays)
    bundle = BundleSpec(model, ws)

    assert _outcome(solve_scale, bundle, ray) == _outcome(_reference_solve_scale, model, ws, ray)
    for g in (f, ray):
        assert _outcome(primitive_route_check, bundle, g) == _outcome(_reference_primitive, model, ws, g)
    if f.cleared_form is not None:  # w1 along f, w2 trace-free: only the c1 clause decides
        edge = (CohClass(f.cleared_form[0]), CohClass.zero(model.rank))
        assert _outcome(primitive_route_check, BundleSpec(model, edge), f) == _outcome(
            _reference_primitive, model, edge, f
        )
    irrational = quadratic(1, 1, 3)  # the field of the ansatz class
    pairs = ((ws[0], f), (model.c1, ray), (ray, model.c1), (f, f), (-f, f), (irrational * f, f), (0 * f, f))
    for x, y in pairs:
        assert positively_proportional(x, y) == _reference_proportional(x, y)

    got, want = _outcome(_hodge_rows, bundle, f), _outcome(_reference_hodge_rows, model, ws, f)
    assert got == want
    if got[1] is list:  # trace coefficient and primitive square, value and type
        assert [[(v, type(v)) for v in row[1::2]] for row in got[0]] == [
            [(v, type(v)) for v in row[1::2]] for row in want[0]
        ]


# -- cone verdicts from integer rows against the per-curve reference ----------
#
# is_kahler decides a rational class from integer signs against cached Gram
# rows and renders its curve checks only when they are read.  The reference
# is the per-curve loop: one intersect call and one exact_sign per curve.


def _reference_cone(model, f: CohClass, witness):
    """Every field of a cone certificate, computed curve by curve."""
    if model.curve_regime == "rulings":
        curves = [CohClass.of([1, 0]), CohClass.of([0, 1])]
    else:
        curves = negative_curves(model)
    self_int = intersect(model, f, f)
    checks = []
    for curve in curves:
        value = intersect(model, f, curve)
        checks.append((curve, value, type(value), exact_sign(value)))
    ample_witness = witness if witness is not None else model.ample_witness
    ample_value = intersect(model, f, ample_witness)
    verdict = exact_sign(self_int) > 0 and all(c[3] > 0 for c in checks) and exact_sign(ample_value) > 0
    return {
        "self": (self_int, type(self_int), exact_sign(self_int)),
        "checks": checks,
        "ample": (ample_witness, ample_value, type(ample_value), exact_sign(ample_value)),
        "source": "user" if witness is not None else "model",
        "anticanonical_ray": model.curve_regime == "enumerate_neg1" and _reference_proportional(f, model.c1),
        "verdict": verdict,
    }


def _certificate_fields(cert) -> dict:
    return {
        "self": (cert.self_intersection, type(cert.self_intersection), cert.self_sign),
        "checks": [(c.curve, c.value, type(c.value), c.sign) for c in cert.curve_checks],
        "ample": (cert.ample_witness, cert.ample_value, type(cert.ample_value), cert.ample_sign),
        "source": cert.witness_source,
        "anticanonical_ray": cert.anticanonical_ray,
        "verdict": cert.verdict,
    }


@st.composite
def cone_models(draw):
    """The plane, the quadric, blow-ups in general position and on a cubic,
    and custom models with a random, mostly non-diagonal Gram matrix, an
    explicit integral curve list and an ample witness."""
    kind = draw(st.sampled_from(("plane", "quadric", "general", "on_cubic", "custom")))
    if kind == "plane":
        return projective_plane()
    if kind == "quadric":
        return quadric()
    if kind == "general":
        return blowup_cp2(draw(st.integers(2, 8)))
    if kind == "on_cubic":
        return blowup_cp2(draw(st.integers(9, 12)), "on_cubic")
    rank = draw(st.integers(1, 5))
    gram = _random_gram(draw, rank)
    vector = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    witness, curves = draw(vector), draw(st.lists(vector, max_size=6))
    if draw(st.booleans()):  # keep the curves the witness is positive on
        curves = [c for c in curves if sum(map(mul, witness, (sum(map(mul, row, c)) for row in gram))) > 0]
    return custom_model("random", gram, draw(vector), curves=curves, ample_witness=witness)


def _cone_class(draw, model) -> CohClass:
    """A class near the cone (on a custom model a positive multiple of its
    witness), a multiple of c1 or of the witness (negative multiples
    included), or a random class, the zero class among them, with rational
    or Q(sqrt(3)) coefficients."""
    kind = draw(st.sampled_from(("kahler", "multiple", "random", "quadratic")))
    if kind == "kahler" and model.curve_regime != "explicit":
        return _kahler_class(draw, model)
    if kind == "kahler":
        return draw(st.sampled_from((Fraction(1), Fraction(2, 3), 2))) * model.ample_witness
    if kind == "multiple":
        t = draw(st.sampled_from((Fraction(1), Fraction(2, 3), Fraction(-1), Fraction(3, 1), 2, -3)))
        return t * draw(st.sampled_from((model.c1, model.ample_witness)))
    if kind == "quadratic":
        anchor = st.sampled_from((model.c1, model.ample_witness)) | classes(model.rank)
        return draw(_quadratic_in(3)) * draw(anchor)
    return draw(classes(model.rank))


@KERNEL_SETTINGS
@given(st.data())
def check_cone_kernel(data) -> None:
    """is_kahler equals the per-curve reference in every field: the verdict,
    Q(F,F) and its sign, each rendered curve check (curve, value with its
    type, sign), the ample fields and anticanonical_ray.  Classes with int,
    Fraction(x, 1), proper-fraction and Q(sqrt(3)) coefficients, zero and
    negative classes, user witnesses and the Q(sqrt(3)) ansatz class are
    drawn."""
    if data.draw(st.integers(0, 9)) == 0:
        model, f, _ = _ansatz_case()
    else:
        model = data.draw(cone_models())
        f = _cone_class(data.draw, model)
    witness = data.draw(
        st.sampled_from((None, None, 2 * model.ample_witness)) | classes(model.rank, _integral)
    )
    assert _certificate_fields(is_kahler(model, f, witness)) == _reference_cone(model, f, witness)


# -- rendered certificate fields against Fraction and SNF references ----------
#
# verify_cyt and topology_certificate decide on integers and render their
# document fields on first read.  The references build each field from its
# definition: traces and the defect in plain Fraction arithmetic over the
# Gram matrix, the invariant factors from intlinalg.snf, the witnesses and
# c1's membership in the curvature span from IntegerSolver, and the tables
# from their formula in the rank b, under the separately checked hypotheses.

NON_UNIMODULAR = custom_model(
    "diag2", [[2, 0, 0], [0, -1, 0], [0, 0, -1]], [1, 1, 1], curves=[], ample_witness=[1, 0, 0], simply_connected=True
)


@lru_cache(maxsize=None)
def _cyt_record_pairs(k: int) -> tuple:
    """The pairs of a bound-3 cyt search on the blow-up at k points: their
    defect vanishes at the solved class and not at c1 unless s = 1."""
    records, _ = search(SearchQuery(blowup_cp2(k), 3, frozenset({"cyt"})), threads=1)
    return tuple((CohClass.of(r.omega1), CohClass.of(r.omega2)) for r in records)


@st.composite
def box_bundles(draw):
    """A blow-up at 3..8 points, or the model of Gram diag(2,-1,-1), with a
    random pair from the box [-3, 3]; on a blow-up, one draw in three is a
    pair a cyt search found instead."""
    model = draw(st.sampled_from([NON_UNIMODULAR] + [blowup_cp2(k) for k in range(3, 9)]))
    if model is not NON_UNIMODULAR and draw(st.integers(0, 2)) == 0:
        return model, draw(st.sampled_from(_cyt_record_pairs(model.rank - 1)))
    box = st.lists(st.integers(-3, 3), min_size=model.rank, max_size=model.rank).map(CohClass.of)
    return model, (draw(box), draw(box))


def _reference_topology(model, ws) -> dict:
    rows = [[int(_oracle_pairing(model, w, e)) for e in _unit_classes(model.rank)] for w in ws]
    diag = snf(rows).diagonal
    solver = IntegerSolver(rows)
    alpha = beta = None
    if diag == (1, 1):
        alpha, beta = (CohClass.of(solver.solve(t)) for t in ([1, 0], [0, 1]))
    columns = [[w.coeffs[i] for w in ws] for i in range(model.rank)]
    extends = all(d == 1 for d in snf([w.as_int_vector() for w in ws]).diagonal)
    b = model.rank
    tables = SpectralTables(
        e2=((1, 0, b, 0, 1), (2, 0, 2 * b, 0, 2), (1, 0, b, 0, 1)),
        e3=((1, 0, b - 2, 0, 0), (0, 0, 2 * b - 2, 0, 0), (0, 0, b - 2, 0, 1)),
        betti=(1, 0, b - 2, 2 * b - 2, b - 2, 0, 1),
    )
    return {
        "pairing_snf": diag,
        "alpha": alpha,
        "beta": beta,
        "spin_integral": IntegerSolver(columns).solve(model.c1.as_int_vector()) is not None,
        "tables": tables if diag == (1, 1) and extends else None,
    }


def _unit_classes(rank: int) -> list[CohClass]:
    return [CohClass.of([int(i == j) for j in range(rank)]) for i in range(rank)]


def _reference_cyt(model, ws, f) -> dict:
    ff = _oracle_pairing(model, f, f)
    if ff == 0:
        return {"lambdas": (), "defect": model.c1.coeffs, "solved_scale": None}
    lambdas = tuple(2 * _oracle_pairing(model, w, f) / ff for w in ws)
    traced = [sum((lam * w.coeffs[j] for lam, w in zip(lambdas, ws)), Fraction(0)) for j in range(model.rank)]
    defect = tuple(c - t for c, t in zip(model.c1.coeffs, traced))
    scale = None
    if any(defect) and ff > 0:
        t = _reference_ratio(traced, model.c1.coeffs)
        scale = t if t is not None and t > 0 else None
    return {"lambdas": lambdas, "defect": defect, "solved_scale": scale}


def _kahler_candidates(model, ws) -> list[CohClass]:
    """c1 and a multiple of it (the anticanonical ray, Kaehler below 9
    points), the model's witness, the solved class when the ray admits one,
    and a random-looking rational class."""
    out = [model.c1, Fraction(2, 3) * model.c1, model.ample_witness]
    bundle = BundleSpec(model, ws)
    for ray in (model.c1, model.ample_witness):
        try:
            s = solve_scale(bundle, ray)
        except NotPositiveRay:
            continue
        if s is not None:
            out.append(s * ray)
    out.append(CohClass(tuple(Fraction(3 * i + 1, 2 + i) * (-1) ** i for i in range(model.rank))))
    return out


@KERNEL_SETTINGS
@given(box_bundles())
def check_rendered_fields(case) -> None:
    """Every field a topology or CYT certificate renders on read equals the
    reference, value and type: pairing_snf, alpha, beta, spin_integral and
    tables; lambdas, defect and solved_scale for each candidate class."""
    model, ws = case
    bundle = BundleSpec(model, ws)
    cert = topology_certificate(bundle)
    rendered = {name: getattr(cert, name) for name in ("pairing_snf", "alpha", "beta", "spin_integral", "tables")}
    assert rendered == _reference_topology(model, ws)
    assert cert.simply_connected_surrogate == (rendered["pairing_snf"] == (1, 1))
    for f in _kahler_candidates(model, ws):
        cyt_cert = verify_cyt(bundle, f)
        want = _reference_cyt(model, ws, f)
        assert cyt_cert.lambdas == want["lambdas"]
        assert all(type(lam) is Fraction for lam in cyt_cert.lambdas)
        assert cyt_cert.defect.coeffs == want["defect"]
        assert cyt_cert.defect_zero == (not any(want["defect"]) and cyt_cert.reason != "null_class")
        types = [Fraction if any(want["lambdas"]) else type(c) for c in model.c1.coeffs]
        assert [type(c) for c in cyt_cert.defect.coeffs] == types
        assert cyt_cert.solved_scale == want["solved_scale"]
        assert type(cyt_cert.solved_scale) in (Fraction, type(None))


# -- Q(sqrt(d)) classes on integers against the QuadraticNumber reference -----
#
# intersect, is_kahler and _traced_sum read a class with Q(sqrt(d))
# coefficients in surd form, (n + m sqrt(d)) / den, and pair it through
# integer dots against the Gram rows.  The reference is the scalar formula
# they replaced: the coefficients over 1, dotted entry by entry in
# QuadraticNumber arithmetic over the nonzero products.  Signs are checked
# against 200-bit mpmath values as well, since QuadraticNumber.sign and the
# kernel share scalars.surd_sign.


def _reference_dot(u, v):
    return sum(a * b for a, b in zip(u, v) if a and b)


@lru_cache(maxsize=4096)
def _reference_row(model, v: tuple) -> tuple:
    return tuple(_reference_dot(row, v) for row in model.gram)


def _reference_intersect(model, x: CohClass, y: CohClass):
    nx, dx = x.cleared_form or (x.coeffs, 1)
    ny, dy = y.cleared_form or (y.coeffs, 1)
    dot = _reference_dot(nx, _reference_row(model, tuple(ny)))
    return dot if dx * dy == 1 else exact_div(dot, dx * dy)


def _canonical_type(value) -> type:
    """The type of a canonical Q(sqrt(d)) pairing: a Fraction when the value
    is rational (the scalar formula gave an int when no irrational
    coefficient met a nonzero Gram entry), else a QuadraticNumber."""
    return Fraction if is_rational(value) else QuadraticNumber


def _pairing_type(x: CohClass, y: CohClass, value) -> type:
    """Two rational classes pair to an int exactly when both cleared
    denominators are 1 (as check_integer_intersect states); a pair with a
    Q(sqrt(d)) side is canonical."""
    if x.cleared_form and y.cleared_form:
        return int if x.cleared_form[1] * y.cleared_form[1] == 1 else Fraction
    return _canonical_type(value)


def _mp_sign(x) -> int:
    import mpmath

    if is_rational(x):
        return exact_sign(x)
    with mpmath.workprec(200):
        approx = mpmath.mpf(x.a.numerator) / x.a.denominator + (
            mpmath.mpf(x.b.numerator) / x.b.denominator
        ) * mpmath.sqrt(x.d)
        return 1 if approx > 0 else -1


def _fraction_in(lo: int = -40, hi: int = 40):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 12))


def _surd_in(d: int):
    """A Q(sqrt(d)) coefficient with mixed denominators, never rational."""
    nonzero = _fraction_in(1, 30) | _fraction_in(-30, -1)
    return st.builds(quadratic, _fraction_in(), nonzero, st.just(d))


def _surd_class(draw, model, d: int) -> CohClass:
    """A class with at least one Q(sqrt(d)) coefficient; the other entries
    are zero, ints or fractions, so m has zero entries."""
    coeffs = [draw(_surd_in(d) | _coefficients) for _ in range(model.rank - 1)]
    coeffs.insert(draw(st.integers(0, model.rank - 1)), draw(_surd_in(d)))
    return CohClass(tuple(coeffs))


def _ray_curves(model) -> list:
    if model.curve_regime == "rulings":
        return [CohClass.of([1, 0]), CohClass.of([0, 1])]
    return negative_curves(model)


@lru_cache(maxsize=None)
def _ansatz_bundle(k: int):
    sol = solve_symmetric_ansatz(k)
    return blowup_cp2(k, "on_cubic"), sol.kahler_class, (sol.omega1, sol.omega2)


def _reference_surd_traces(model, ws, f):
    """The fields of _traced_fields from the scalar formula: the pairings
    w . G coeffs and Q(f,f) in QuadraticNumber arithmetic, then the traces,
    the traced sum, the defect and the ratio to c1 class by class."""
    row = _reference_row(model, f.coeffs)
    ff = _reference_dot(f.coeffs, row)
    if ff == 0:
        return None
    lambdas = tuple(exact_div(2 * _reference_dot(w.coeffs, row), ff) for w in ws)
    traced = CohClass.zero(model.rank)
    for lam, w in zip(lambdas, ws):
        if lam != 0:
            traced = traced + lam * w
    s = _reference_ratio(traced.coeffs, model.c1.coeffs)
    scale = s if s is not None and is_rational(s) and exact_sign(s) > 0 else None
    trace_free = tuple(lam == 0 for lam in lambdas)
    return lambdas, traced, _mp_sign(ff), trace_free, (model.c1 - traced).is_zero(), scale


def _check_surd_cone(model, f: CohClass, witness) -> None:
    cert = is_kahler(model, f, witness)
    curves = _ray_curves(model)
    values = [_reference_intersect(model, f, c) for c in curves]
    signs = tuple(_mp_sign(v) for v in values)
    assert cert.curve_signs == signs
    assert [(c.curve, c.value, type(c.value)) for c in cert.curve_checks] == [
        (c, v, _pairing_type(f, c, v)) for c, v in zip(curves, values)
    ]
    ff = _reference_intersect(model, f, f)
    assert (cert.self_intersection, type(cert.self_intersection), cert.self_sign) == (
        ff, _pairing_type(f, f, ff), _mp_sign(ff)
    )
    witness = witness if witness is not None else model.ample_witness
    ample = _reference_intersect(model, f, witness)
    assert (cert.ample_value, type(cert.ample_value), cert.ample_sign) == (
        ample, _pairing_type(f, witness, ample), _mp_sign(ample)
    )
    assert cert.verdict == (_mp_sign(ff) > 0 and min(signs, default=1) > 0 and _mp_sign(ample) > 0)
    # a positive multiple has the same signs, and an equal class reads them from the memo
    for t in (Fraction(3, 7), 2):
        assert is_kahler(model, t * f, witness).curve_signs == signs
    assert is_kahler(model, CohClass(f.coeffs), witness).curve_signs == signs


@KERNEL_SETTINGS
@given(st.data())
def check_surd_kernel(data) -> None:
    """intersect, is_kahler and _traced_sum on classes with Q(sqrt(d))
    coefficients equal the QuadraticNumber reference: pairing values with
    their canonical type, every curve sign (also against mpmath), the
    verdict, the rendered curve checks, and the traces, defect and scale.
    Random d, mixed denominators, zero m entries, the ansatz classes for
    k = 9..12 and non-diagonal custom Grams are drawn.  A class that mixes
    two radicands raises MixedFieldError."""
    kind = data.draw(st.sampled_from(("random", "random", "random", "ansatz", "mixed")))
    if kind == "ansatz":
        model, f, ws = _ansatz_bundle(data.draw(st.integers(9, 12)))
        if data.draw(st.booleans()):
            ws = tuple(data.draw(classes(model.rank, _integral)) for _ in range(2))
    else:
        model = data.draw(cone_models())
        d = data.draw(st.sampled_from((3, 3) + SQUARE_FREE))
        f = _surd_class(data.draw, model, d)
        ws = tuple(data.draw(classes(model.rank, _integral)) for _ in range(data.draw(st.sampled_from((2, 4)))))
    witness = data.draw(st.sampled_from((None, None, 2 * model.ample_witness)) | classes(model.rank, _integral))
    if kind == "mixed" and model.rank >= 2:
        other = data.draw(st.sampled_from([e for e in SQUARE_FREE if e != d]))
        coeffs = list(f.coeffs)
        j = next(i for i, c in enumerate(coeffs) if isinstance(c, QuadraticNumber))
        coeffs[(j + 1) % model.rank] = data.draw(_surd_in(other))
        f = CohClass(tuple(coeffs))
        calls = (intersect, model, f, model.c1), (is_kahler, model, f, witness), (_traced_sum, BundleSpec(model, ws), f)
        for fn, *args in calls:
            try:
                fn(*args)
            except MixedFieldError:
                continue
            raise AssertionError(f"{f.coeffs} mixes two radicands but paired")
        return

    for y in (model.c1, witness or model.ample_witness, f, -f, ws[0]):
        want = _reference_intersect(model, f, y)
        for got in (intersect(model, f, y), intersect(model, y, f)):
            assert (got, type(got)) == (want, _pairing_type(f, y, want))

    _check_surd_cone(model, f, witness)

    got, want = _traced_fields(BundleSpec(model, ws), f), _reference_surd_traces(model, ws, f)
    assert got == want
    if got is not None:
        assert [type(v) for v in got[0] + got[1].coeffs] == [type(v) for v in want[0] + want[1].coeffs]


# -- search candidates against the box ------------------------------------
#
# Pairing 2 q1 w1 + 2 q2 w2 = s Q(R,R) c1 with R, for q_l = Q(w_l,R) and
# d = Q(c1,R) > 0, gives d (q1 w1 + q2 w2) = (q1^2 + q2^2) c1, and s > 0 needs
# q1^2 + q2^2 > 0.  The reference indexes every box w2 by (q2, d q2 w2) and
# looks the right side up, so it assumes no bound on q2.


def box_candidates(data: _RayData, box: list) -> Callable[[tuple, bool], list]:
    """The reference for data.candidates_for(w1): the box w2 on the locus,
    sorted, with only the sorted trace-free ones when sorted_perp is set."""
    w, c1, d = data.w, data.c1, data.d_pair
    by_side: dict = {}
    for w2 in box:
        q2 = sum(map(mul, w2, w))
        by_side.setdefault((q2, tuple(d * q2 * b for b in w2)), []).append(w2)
    q2s = sorted({q2 for q2, _ in by_side})

    def reference(w1: tuple, sorted_perp: bool) -> list:
        q1 = sum(map(mul, w1, w))
        return sorted(
            w2
            for q2 in q2s
            if q1 or q2
            for w2 in by_side.get((q2, tuple((q1 * q1 + q2 * q2) * c - d * q1 * a for a, c in zip(w1, c1))), [])
            if q2 or not sorted_perp or list(w2[1:]) == sorted(w2[1:])
        )

    return reference


# the largest |c1_j| sits at index 2, and e3 is a positive direction
OFF_LEAD = custom_model("off_lead", [[-1, 0, 0], [0, -1, 1], [0, 1, 2]], [1, -1, 3])

# c1_0 = 0, so the walk solves the locus on coordinate 1; c1 is nef, not
# ample (it pairs to 0 with e1), so the anchor is twice the ample witness
ZERO_LEAD = custom_model(
    "zero_lead", [[-2, 0, 0], [0, 1, 0], [0, 0, -1]], [0, 3, -1], curves=[[1, 0, 0], [0, 0, 1]], ample_witness=[-1, 3, -1]
)


@st.composite
def candidate_rays(draw):
    """A model, a rational ray R = t A + P with Q(R,R) > 0 and Q(c1,R) > 0
    near an anchor A of the model, and a bound whose box has at most 3125
    vectors."""
    model, anchor = draw(
        st.sampled_from(
            [(blowup_cp2(k), (3,) + (-1,) * k) for k in (2, 3, 4)]
            + [(quadric(), (1, 1)), (OFF_LEAD, (0, 0, 1)), (ZERO_LEAD, (-2, 6, -2))]
        )
    )
    t = draw(st.integers(1, 3))
    shift = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    ray = CohClass.of([t * a + draw(shift) for a in anchor])
    assume(_oracle_pairing(model, ray, ray) > 0 and _oracle_pairing(model, model.c1, ray) > 0)
    return model, ray, draw(st.integers(1, 2 if model.rank > 4 else 3))


@KERNEL_SETTINGS
@given(candidate_rays(), st.data())
def check_candidates_for(case, data) -> None:
    """candidates_for(w1), sorted, is the set of box w2 with (w1, w2) on the
    ray's locus, with the trace-free ones all of them or, with sorted_perp,
    those with sorted exceptional coordinates, and each w2 carries lambda =
    q1^2 + q2^2 from the reference's dot products.  Every generic w2 of the
    reference satisfies the equation the walk solves, c (q1^2 + q2^2) = d
    (q1 x + q2 y) with c = c1_j0, x = w1_j0 and y = w2_j0 on the first
    coordinate j0 with c1_j0 != 0, and the divisibility it filters by, d
    divides (q1^2 + q2^2) gcd(c1); and the box bound (q1^2 + q2^2)
    max|c1_j| <= d b (|q1| + |q2|), so |q1| + |q2| <= 2 d b / max|c1_j|."""
    model, ray, bound = case
    rays = [_RayData("ray", model, ray, bound, sorted_perp) for sorted_perp in (False, True)]
    w, c1, d = rays[0].w, rays[0].c1, rays[0].d_pair
    c_max, g = max(map(abs, c1)), gcd(*c1)
    box = list(product(range(-bound, bound + 1), repeat=model.rank))
    reference = box_candidates(rays[0], box)

    # random box w1, the c1 multiples, and every w1 partnered with one of them
    todo = data.draw(st.lists(st.sampled_from(box), min_size=1, max_size=20)) + sorted(rays[0].c1_multiples)
    seen = set()
    while todo and len(seen) < 60:
        w1 = todo.pop()
        if w1 in seen:
            continue
        seen.add(w1)
        brute = reference(w1, False)
        q1 = sum(map(mul, w1, w))
        for rd, sorted_perp in zip(rays, (False, True)):
            found = rd.candidates_for(w1)
            assert sorted(found) == reference(w1, sorted_perp), (w1, sorted_perp)
            for w2, lam in found.items():
                assert lam == q1 * q1 + sum(map(mul, w2, w)) ** 2, (w1, w2)
        for w2 in brute:
            q2 = sum(map(mul, w2, w))
            if q2:
                lam = q1 * q1 + q2 * q2
                assert lam * c_max <= d * bound * (abs(q1) + abs(q2)), (w1, w2)
                assert (abs(q1) + abs(q2)) * c_max <= 2 * d * bound, (w1, w2)
                assert lam * g % d == 0, (w1, w2)
                j0 = rays[0].j0
                assert c1[j0] and not any(c1[:j0]), c1
                assert c1[j0] * lam == d * (q1 * w1[j0] + q2 * w2[j0]), (w1, w2)
        todo.extend(brute[:8])


@KERNEL_SETTINGS
@given(candidate_rays(), st.data())
def check_windowed_candidates(case, data) -> None:
    """candidates_for(w1, (lo, hi)) is candidates_for(w1) cut to the w2 with
    lo <= w2[0] <= hi, with the same lambdas, and perp_vectors((lo, hi)) the
    trace-free list cut so, with and without sorted_perp, for the windows
    of the orbit rule, (w1[0], 0) with the signs and (w1[0], b) without, and
    a random window; with j0 > 0 (ZERO_LEAD) a term's y is not the lead."""
    model, ray, bound = case
    box = list(product(range(-bound, bound + 1), repeat=model.rank))
    leads = st.integers(-bound, bound)
    for sorted_perp in (False, True):
        rd = _RayData("ray", model, ray, bound, sorted_perp)
        w1s = data.draw(st.lists(st.sampled_from(box), min_size=1, max_size=20)) + sorted(rd.c1_multiples)
        for w1 in w1s:
            full = rd.candidates_for(w1)
            for lo, hi in ((w1[0], 0), (w1[0], bound), tuple(sorted(data.draw(st.tuples(leads, leads))))):
                cut = {w2: lam for w2, lam in full.items() if lo <= w2[0] <= hi}
                assert rd.candidates_for(w1, (lo, hi)) == cut, (w1, lo, hi, sorted_perp)
                assert rd.perp_vectors((lo, hi)) == [v for v in rd.perp_vectors() if lo <= v[0] <= hi], (lo, hi)


# the permutations do not fix it (E3 squares to -2); its curves are the Ei
UNEQUAL = custom_model(
    "unequal",
    [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2]],
    [3, -1, -1, -1],
    curves=[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    ample_witness=[3, -1, -1, -1],
)


SLICE_MODELS = [(blowup_cp2(k), (3,) + (-1,) * k) for k in (2, 3, 4, 5)] + [
    (quadric(), (1, 1)),
    (UNEQUAL, (3, -1, -1, -1)),
    (ZERO_LEAD, (-2, 6, -2)),
]


def run_slices(seed: int = 108) -> int:
    """_RayData.slice(lead, targets) against the box filter, and each lead's
    walk of a cyt plan against box_candidates, on every model of
    SLICE_MODELS at the bounds 1..3 whose box has at most 16 807 vectors
    (the walks at most 3 125), along a rational ray R = t A + P near the
    model's anchor A with Q(R,R) > 0, its exceptional coordinates shifted as
    one (symmetric) or one by one.  With and without sorted_perp, slice
    gives for each lead and value q the box vectors with that lead and
    Q(v,R) = q in lexicographic order, with sorted exceptional coordinates
    under sorted_perp; none for a value the lead misses; for a random set
    of values their sorted union; and perp_vectors is q = 0 over every
    lead.  Under the plan's own group, without the signs or unpruned, in
    turn, each walk is in lexicographic order and in the box, its tails
    sorted under the permutations, and holds every w1 of that lead with a
    candidate on one of the plan's rays."""
    rng = random.Random(seed)
    groups = (lambda own: own, lambda own: own.replace("signs+", ""), lambda own: NO_SYMMETRY)
    cases = 0
    for model, anchor in SLICE_MODELS:
        for bound, symmetric in product((1, 2, 3), (True, False)):
            size = (2 * bound + 1) ** model.rank
            if size > 16807:
                continue
            ray = CohClass.of([0] * model.rank)
            while _oracle_pairing(model, ray, ray) <= 0:
                shifts = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in anchor]
                if symmetric:
                    shifts[2:] = [shifts[1]] * (model.rank - 2)
                t = rng.randint(1, 3)
                ray = CohClass.of([t * a + p for a, p in zip(anchor, shifts)])
            box = list(product(range(-bound, bound + 1), repeat=model.rank))
            for sorted_perp in (False, True):
                _check_slice(_RayData("ray", model, ray, bound, sorted_perp), box, rng)
            if size <= 3125:
                with search_group(groups[cases % 3]):
                    plan = _Plan(SearchQuery(model=model, coeff_bound=bound, filters=frozenset({"cyt"}), ray=ray))
                _check_walk(plan, box)
            cases += 1
    return cases


def _check_slice(rd: _RayData, box: list, rng: random.Random) -> None:
    by_lead: dict = {}
    for v in box:
        if not rd.sorted_perp or list(v[1:]) == sorted(v[1:]):
            by_lead.setdefault(v[0], {}).setdefault(sum(map(mul, v, rd.w)), []).append(v)
    for lead, by_q in by_lead.items():
        for q, vs in by_q.items():
            assert rd.slice(lead, [q]) == vs, (rd.ray, lead, q, rd.sorted_perp)
        assert rd.slice(lead, [max(by_q) + 1]) == rd.slice(lead, []) == [], (rd.ray, lead, rd.sorted_perp)
        targets = sorted(rng.sample(sorted(by_q), rng.randint(1, len(by_q))))
        assert rd.slice(lead, targets) == sorted(v for q in targets for v in by_q[q]), (rd.ray, lead, targets)
    assert rd.perp_vectors() == [v for lead in sorted(by_lead) for v in by_lead[lead].get(0, [])], rd.ray


def _check_walk(plan: _Plan, box: list) -> None:
    references = [box_candidates(rd, box) for rd in plan.rays]
    for lead in range(-plan.query.coeff_bound, 1 if plan.signs else plan.query.coeff_bound + 1):
        walk = plan.walk(lead)
        within = [v for v in box if v[0] == lead and (not plan.sorted_v1 or list(v[1:]) == sorted(v[1:]))]
        assert walk == sorted(set(walk)) and set(walk) <= set(within), (plan.query, lead)
        missed = set(within) - set(walk)
        assert not any(ref(v, plan.sorted_v1) for v in missed for ref in references), (plan.query, lead)


# -- the walk's scale against solve_scale ----------------------------------
#
# The search takes a candidate's scale on the primitive ray, t = 2 (q1^2 +
# q2^2) / (r d), from the integers of the walk; solve_scale reads it from
# the traces against the ray as given.


@st.composite
def walk_rays(draw):
    """A model, a ray with Q(R,R) > 0 and Q(c1,R) > 0, a bound as in
    candidate_rays, and whether the ray is a multiple of c1 other than c1:
    a rational ray near an anchor, an integer multiple of an integral one
    (never primitive), or s * c1 with s != 1, which keeps two rays.  The
    plan checks its rays against the cone, so every model has curve data."""
    model, anchor = draw(
        st.sampled_from([(blowup_cp2(k), (3,) + (-1,) * k) for k in (1, 2, 3, 4)] + [(quadric(), (1, 1))])
    )
    kind = draw(st.sampled_from(("rational", "multiple", "c1")))
    if kind == "c1":
        s = draw(st.sampled_from([Fraction(1, 3), Fraction(3, 2), Fraction(2), Fraction(7, 3)]))
        ray = CohClass.of([s * c for c in model.c1.coeffs])
    elif kind == "multiple":
        m = draw(st.integers(2, 4))
        ray = CohClass.of([m * (a + draw(st.integers(-1, 1))) for a in anchor])
    else:
        t = draw(st.integers(1, 3))
        shift = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
        ray = CohClass.of([t * a + draw(shift) for a in anchor])
    assume(_oracle_pairing(model, ray, ray) > 0 and _oracle_pairing(model, model.c1, ray) > 0)
    return model, ray, draw(st.integers(1, 2 if model.rank > 4 else 3)), kind == "c1"


def check_carried_cone(model, kahler, cone) -> None:
    """A source's cone certificate is the one of that very class object on
    that very model, with the verdict, curve signs, Q(F,F) and ample pairing
    of a fresh is_kahler(model, kahler)."""
    fresh = is_kahler(model, kahler)
    assert cone.kahler_class is kahler and cone.model is model, kahler
    facts = (cone.verdict, cone.curve_signs, cone.self_intersection, cone.ample_value)
    assert facts == (fresh.verdict, fresh.curve_signs, fresh.self_intersection, fresh.ample_value), kahler


@KERNEL_SETTINGS
@given(walk_rays(), st.data())
def check_walk_scales(case, data) -> None:
    """Every candidate pair of an unpruned cyt plan, which generates every
    box partner, the parallel branch's included, comes from the first plan
    ray on which solve_scale finds a scale s: its source is that ray's memo
    entry at the pair's lambda, and holds the class s * R, built here from
    the ray's coefficients, with its cleared form, the route, the scale
    text format_scalar(s), which the record takes, and the cone certificate
    of that class object on the model, equal to a fresh is_kahler of it.
    Each ray generates exactly the pairs on which solve_scale finds a
    scale, also among random box pairs and pairs of trace-free vectors,
    where q1 = q2 = 0.  A ray proportional to c1 keeps both routes, and
    every pair takes the first."""
    model, ray, bound, c1_ray = case
    with search_group(lambda own: NO_SYMMETRY):
        plan = _Plan(SearchQuery(model=model, coeff_bound=bound, filters=frozenset({"cyt"}), ray=ray))
    assume(plan.rays)
    if c1_ray:
        assert [rd.name for rd in plan.rays] == ["ray", "anticanonical_ray"]
    box = list(product(range(-bound, bound + 1), repeat=model.rank))
    w1s = data.draw(st.lists(st.sampled_from(box), min_size=1, max_size=12)) + sorted(plan.rays[0].c1_multiples)
    for w1 in w1s:
        cands = list(plan.candidates(w1).items())
        for w2, source in cands[:: max(1, len(cands) // 6)]:
            bundle = BundleSpec(model, (CohClass.of(w1), CohClass.of(w2)))
            rd, s = next((rd, s) for rd in plan.rays if (s := solve_scale(bundle, rd.ray)) is not None)
            assert source is rd.sources[rd.candidates_for(w1)[w2]], (w1, w2)
            kahler, route, scale, _ = source
            assert route == ("ray" if c1_ray else rd.name) and scale == format_scalar(s), (w1, w2)
            want = CohClass.of([s * c for c in rd.ray.coeffs])
            assert kahler.cleared_form == want.cleared_form, (w1, w2)
            rec = plan.evaluate(w1, w2, "key", source)
            assert (rec.flags.cyt_route, rec.flags.scale) == (route, scale), (w1, w2)
            assert rec.kahler == tuple(want.serialize()), (w1, w2)
    for rd in plan.rays:
        for kahler, _, _, cone in rd.sources.values():
            check_carried_cone(model, kahler, cone)
    for rd in plan.rays:
        # with every trace-free partner, whatever the plan's group
        full = _RayData(rd.name, model, rd.ray, bound)
        perp = full.perp_vectors()
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(box), st.sampled_from(box)), max_size=8))
        pairs += data.draw(st.lists(st.tuples(st.sampled_from(perp), st.sampled_from(perp)), min_size=1, max_size=4))
        for w1, w2 in pairs:
            s = solve_scale(BundleSpec(model, (CohClass.of(w1), CohClass.of(w2))), rd.ray)
            assert (w2 in full.candidates_for(w1)) == (s is not None), (w1, w2)
