"""Integer matrix services: Smith normal form with transforms, integer linear
solving, and the spin test: membership mod 2 in the span of a pair.

Matrices are lists of lists of Python ints (arbitrary precision).  The SNF
pivot rule is fixed (smallest absolute value, ties by lowest row then column
index) so decompositions are deterministic across runs.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import InvariantViolation

IntMatrix = list[list[int]]
IntVector = list[int]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: IntMatrix, v: IntVector) -> IntVector:
    return [sum(map(mul, row, v)) for row in a]


class SnfResult(NamedTuple):
    s: IntMatrix  # diagonal, d1 | d2 | ..., entries >= 0
    u: IntMatrix  # unimodular, acts on rows
    v: IntMatrix  # unimodular, acts on columns
    diagonal: tuple[int, ...]


class _Worksheet:
    """Mutable (A, U, V) triple under elementary operations; U*A0*V == A throughout."""

    def __init__(self, mat: IntMatrix):
        self.m = len(mat)
        self.n = len(mat[0]) if self.m else 0
        self.a = [list(map(int, row)) for row in mat]
        if any(len(row) != self.n for row in self.a):
            raise ValueError("ragged matrix")
        self.u = identity_matrix(self.m)
        self.v = identity_matrix(self.n)

    def swap_rows(self, i, j):
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]

    def swap_cols(self, i, j):
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]

    def sub_row(self, dst, src, q):
        # row_dst -= q * row_src
        if q == 0:
            return
        ad, asrc = self.a[dst], self.a[src]
        for j in range(self.n):
            ad[j] -= q * asrc[j]
        ud, usrc = self.u[dst], self.u[src]
        for j in range(self.m):
            ud[j] -= q * usrc[j]

    def sub_col(self, dst, src, q):
        # col_dst -= q * col_src
        if q == 0:
            return
        for row in self.a:
            row[dst] -= q * row[src]
        for row in self.v:
            row[dst] -= q * row[src]

    def negate_row(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]

    def find_pivot(self, t) -> Optional[tuple[int, int]]:
        best = None
        best_val = None
        for i in range(t, self.m):
            row = self.a[i]
            for j in range(t, self.n):
                v = abs(row[j])
                if v and (best_val is None or v < best_val):
                    best, best_val = (i, j), v
                    if v == 1:
                        return best
        return best

    def diagonalize(self):
        t = 0
        while t < min(self.m, self.n):
            piv = self.find_pivot(t)
            if piv is None:
                break
            if piv[0] != t:
                self.swap_rows(t, piv[0])
            if piv[1] != t:
                self.swap_cols(t, piv[1])
            while True:
                if self.a[t][t] < 0:
                    self.negate_row(t)
                p = self.a[t][t]
                moved = False
                for i in range(t + 1, self.m):
                    if self.a[i][t]:
                        self.sub_row(i, t, self.a[i][t] // p)
                        if self.a[i][t]:  # 0 < remainder < p
                            self.swap_rows(t, i)
                            moved = True
                            break
                if moved:
                    continue
                for j in range(t + 1, self.n):
                    if self.a[t][j]:
                        self.sub_col(j, t, self.a[t][j] // p)
                        if self.a[t][j]:
                            self.swap_cols(t, j)
                            moved = True
                            break
                if not moved:
                    break
            t += 1


def snf(mat: IntMatrix) -> SnfResult:
    """U * mat * V = S with S = diag(d1, d2, ...), d1 | d2 | ..., di >= 0,
    and |det U| = |det V| = 1."""
    ws = _Worksheet(mat)
    rank = min(ws.m, ws.n)
    while True:
        ws.diagonalize()  # leaves every pivot >= 0
        violation = None
        for i in range(rank - 1):
            di, dj = ws.a[i][i], ws.a[i + 1][i + 1]
            if di and dj % di != 0:
                violation = i
                break
        if violation is None:
            return SnfResult(ws.a, ws.u, ws.v, tuple(ws.a[i][i] for i in range(rank)))
        # fold d_{i+1} into column i and re-diagonalize; gcd strictly drops
        ws.sub_col(violation, violation + 1, -1)


class IntegerSolver:
    """Factor a matrix once, then solve mat * x = target for many targets."""

    def __init__(self, mat: IntMatrix):
        self.mat = [list(map(int, row)) for row in mat]
        self.m = len(mat)
        self.n = len(mat[0]) if self.m else 0
        self._snf = snf(self.mat) if self.n else None

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self._snf.diagonal if self._snf else ()

    def solve(self, target: IntVector) -> Optional[IntVector]:
        if len(target) != self.m:
            raise ValueError("target length does not match row count")
        if self.n == 0:
            return [] if all(t == 0 for t in target) else None
        s, u, v, _ = self._snf
        t2 = mat_vec(u, list(map(int, target)))
        y = [0] * self.n
        for i in range(self.m):
            d = s[i][i] if i < min(self.m, self.n) else 0
            if d:
                if t2[i] % d != 0:
                    return None
                y[i] = t2[i] // d
            elif t2[i] != 0:
                return None
        x = mat_vec(v, y)
        if mat_vec(self.mat, x) != list(map(int, target)):
            raise InvariantViolation(f"integer solve left a residual for target {target}")
        return x

    def in_row_space(self, vec: Sequence[int]) -> bool:
        """True iff vec is an integer combination of the matrix rows.  With
        U * mat * V = S the rows of mat span those of S * V^-1, so vec
        qualifies iff vec * V lies in the row span of the diagonal S."""
        if len(vec) != self.n:
            raise ValueError("vector length does not match column count")
        if self.n == 0:
            return True
        diag = self._snf.diagonal
        for j, column in enumerate(zip(*self._snf.v)):
            t = sum(map(mul, vec, column))
            d = diag[j] if j < len(diag) else 0
            if (t % d) if d else t:
                return False
        return True


def solve_integer_linear(mat: IntMatrix, target: IntVector) -> Optional[IntVector]:
    """Some integer x with mat * x = target, or None when no such x exists."""
    return IntegerSolver(mat).solve(target)


def _gf2_mask(vec: Sequence[int]) -> int:
    """The vector mod 2 as a bit mask: bit i is set iff vec[i] is odd."""
    mask = 0
    for i, c in enumerate(vec):
        if c & 1:
            mask |= 1 << i
    return mask


def _gf2_spanned(t: int, x: int, y: int) -> bool:
    """Whether the bit mask t is 0, x, y or x ^ y: in the GF(2) span of x, y."""
    return t in (0, x, y, x ^ y)


def gf2_in_span(target: Sequence[int], a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether target mod 2 lies in the GF(2) span of the pair a, b."""
    return _gf2_spanned(_gf2_mask(target), _gf2_mask(a), _gf2_mask(b))
