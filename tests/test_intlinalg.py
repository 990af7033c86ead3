import random
from itertools import combinations, product
from math import gcd

import pytest

from property_suites import mat_mul

from cytforge.intlinalg import (
    IntegerSolver,
    gf2_in_span,
    identity_matrix,
    mat_vec,
    snf,
    solve_integer_linear,
)


def bareiss_det(mat):
    """Fraction-free determinant for the oracle computations."""
    n = len(mat)
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
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


def minors_gcd(mat, size):
    m, n = len(mat), len(mat[0])
    g = 0
    for rows in combinations(range(m), size):
        for cols in combinations(range(n), size):
            minor = bareiss_det([[mat[i][j] for j in cols] for i in rows])
            g = gcd(g, abs(minor))
    return g


def invariant_factors_oracle(mat):
    """d_i = gcd(i-minors) / gcd((i-1)-minors), the classical description."""
    rank_bound = min(len(mat), len(mat[0]))
    factors = []
    prev = 1
    for size in range(1, rank_bound + 1):
        g = minors_gcd(mat, size)
        if g == 0:
            factors.append(0)
            prev = 0
        else:
            factors.append(g // prev)
            prev = g
    return tuple(factors)


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_snf_examples():
    assert snf([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert snf([[3, 1, 1], [1, -2, -2]]).diagonal == (1, 7)
    assert snf(identity_matrix(3)).diagonal == (1, 1, 1)


def test_snf_identity_and_transforms():
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = random_matrix(rng, m, n)
        s, u, v, diag = snf(mat)
        assert mat_mul(mat_mul(u, mat), v) == s
        assert abs(bareiss_det(u)) == 1
        assert abs(bareiss_det(v)) == 1
        for i in range(len(diag) - 1):
            assert diag[i] >= 0
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0


def test_snf_matches_minors_oracle():
    rng = random.Random(11)
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, m, n, -6, 6)
        assert snf(mat).diagonal == invariant_factors_oracle(mat)
    # a few larger instances against the same oracle
    for _ in range(6):
        m, n = rng.randint(6, 8), rng.randint(6, 8)
        mat = random_matrix(rng, m, n, -4, 4)
        assert snf(mat).diagonal == invariant_factors_oracle(mat)


def test_snf_deterministic():
    rng = random.Random(3)
    mat = random_matrix(rng, 5, 5)
    first = snf(mat)
    again = snf(mat)
    assert first.s == again.s and first.u == again.u and first.v == again.v


def test_solve_examples():
    # pairing rows for (3H - sum E, E1 - E2) on the 5-point blow-up
    rows = [[3, 1, 1, 1, 1, 1], [0, -1, 1, 0, 0, 0]]
    x = solve_integer_linear(rows, [1, 0])
    assert x is not None and mat_vec(rows, x) == [1, 0]
    y = solve_integer_linear(rows, [0, -1])
    assert y is not None and mat_vec(rows, y) == [0, -1]
    assert solve_integer_linear([[3, 1, 1], [1, -2, -2]], [1, 0]) is None


def test_solve_against_brute_force():
    import numpy as np

    rng = random.Random(23)
    box = np.array(
        [[a, b, c, d] for a in range(-5, 6) for b in range(-5, 6)
         for c in range(-5, 6) for d in range(-5, 6)],
        dtype=np.int64,
    )
    for _ in range(300):
        mat = random_matrix(rng, 4, 4, -5, 5)
        target = [rng.randint(-5, 5) for _ in range(4)]
        found = solve_integer_linear(mat, target)
        hits = (np.asarray(mat, dtype=np.int64) @ box.T).T == np.array(target, dtype=np.int64)
        brute_has = bool(np.any(hits.all(axis=1)))
        if found is not None:
            assert mat_vec(mat, found) == target
        if brute_has:
            assert found is not None
        if found is None:
            assert not brute_has


def test_solve_shape_checks():
    with pytest.raises(ValueError):
        solve_integer_linear([[1, 2]], [1, 2])
    assert solve_integer_linear([[0, 0]], [0]) == [0, 0]
    assert solve_integer_linear([[0, 0]], [1]) is None


def test_gf2_span():
    zero = [0, 0, 0]
    # c1 of blowup_cp2(2) against itself, against (H, E1), and zero against zero
    assert gf2_in_span([3, -1, -1], [3, -1, -1], zero)
    assert not gf2_in_span([3, -1, -1], [1, 0, 0], [0, 1, 0])
    assert gf2_in_span(zero, zero, zero)
    assert gf2_in_span([2, 4, 6], zero, zero)  # even vectors vanish mod 2
    assert gf2_in_span([1, 1, 0], [1, 0, 0], [0, 1, 0])
    assert gf2_in_span([1, 1, 0], [1, 1, 1], [0, 0, -1])  # the sum of the pair
    assert not gf2_in_span([1, 1, 0], [1, 1, 1], [1, 1, 1])


def test_gf2_span_matches_every_combination():
    # the span mod 2 is the set of sums of subsets of the pair; a span of
    # fewer vectors is a pair padded with zero vectors
    rng = random.Random(53)
    for _ in range(400):
        n = rng.randint(1, 9)
        span = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        span += [[0] * n] * (2 - len(span))
        target = [rng.randint(-3, 3) for _ in range(n)]
        if rng.random() < 0.3:  # a member: a subset sum plus even noise
            subset = [v for v in span if rng.random() < 0.5]
            target = [2 * rng.randint(-2, 2) + sum(v[i] for v in subset) for i in range(n)]
        members = {
            tuple(sum(v[i] for v, on in zip(span, pick) if on) % 2 for i in range(n))
            for pick in product((0, 1), repeat=len(span))
        }
        assert gf2_in_span(target, *span) == (tuple(t % 2 for t in target) in members)


def test_solver_residual_check_is_explicit(monkeypatch):
    from cytforge.errors import InvariantViolation

    solver = IntegerSolver([[1, 2, 3], [0, 1, 4]])
    assert solver.solve([1, 0]) is not None
    monkeypatch.setattr(solver, "mat", [[2, 4, 6], [0, 2, 8]])
    with pytest.raises(InvariantViolation):
        solver.solve([1, 0])


def test_row_space_membership():
    rng = random.Random(31)
    for _ in range(200):
        rows = random_matrix(rng, 2, 4, -2, 2)
        solver = IntegerSolver(rows)
        y = [rng.randint(-3, 3) for _ in range(2)]
        combo = [sum(y[i] * rows[i][j] for i in range(2)) for j in range(4)]
        assert solver.in_row_space(combo)
        vec = [rng.randint(-4, 4) for _ in range(4)]
        cols = [[rows[i][j] for i in range(2)] for j in range(4)]
        assert solver.in_row_space(vec) == (solve_integer_linear(cols, vec) is not None)
