"""Bounded exhaustive search over integral curvature pairs with verdict
filters, deterministic across runs and across degrees of parallelism.

Enumeration is by lexicographic order of the pair of coefficient vectors.
For filters containing the torsion Calabi-Yau condition the inner loop is
solver-aware: along a ray R the condition forces

    2 Q(w1,R) w1 + 2 Q(w2,R) w2  =  s * Q(R,R) * c1,   s > 0,

so for fixed w1 the admissible w2 are finitely many explicit integer vectors
plus the trace-free ones, Q(w2,R) = 0, when w1 is proportional to c1.  With
q_l = Q(w_l,R) and d = Q(c1,R) > 0, each q2 != 0 fixes at most one w2, as
q2 d w2 = (q1^2 + q2^2) c1 - q1 d w1.  On j0, the first coordinate with
c = c1_j0 != 0, it reads c (q1^2 + q2^2) = d (q1 x + q2 y) for x = w1_j0 and
y = w2_j0: each y in [-b, b] gives at most two integer q2, from one isqrt.
As q1 w1 + q2 w2 = (q1^2 + q2^2) c1 / d is integral, m = d / gcd(d,
gcd(c1)) divides q1^2 + q2^2.  Every candidate is then re-verified
through the full certificate path, so emitted records never rest on the
shortcut.  A pair pays for the verdicts only: each w2 carries its solved
source (Kaehler class, route, scale text and is_kahler of the class),
built once per lambda = q1^2 + q2^2 > 0 by the first plan ray that
generated it, at the scale 2 lambda / (Q(R,R) d) on the primitive ray, or
once per plan for the ansatz partner, with no trace and no further dot
product; the recheck (cyt_certificate) reads that cone certificate, its
defect test compares integer numerators, and the topology label is
decided from the gcd of the pairing matrix's 2x2 minors.  The documents
(Fraction traces, the defect class, per-curve values, the Smith normal
form and the witnesses) are rendered only when read, and a search reads
none.
Enumeration, dedup and the skt and spin stages (bit masks, w1's once per
w1) run on integer tuples, the stages ahead of the key, under whose group
they are invariant; classes are built only for the pairs that reach the
solver, balance and topology checks.

A cyt chunk walks only the w1 that can have a candidate: the ansatz
vectors and, on each plan ray, the q1 slice, the w1 whose q1 has a nonempty
q2 walk at x = w1_j0 (at some box x when j0 > 0, as the slice fixes only the
lead).  A multiple of c1 is among them, as it pairs with itself.
_RayData.slice generates the box vectors of one lead with Q(v,R) in a set
of values coordinate by coordinate, and drops a prefix once no value is in
the range of Q over its continuations; the trace-free list is its q = 0
slice over every lead.  The walk is in the box's order and holds every w1
with a candidate, so it visits the same pairs as a walk of the whole box.

A search builds one plan per query with everything the pairs share: the
rays, the balanced fallback class, the partner tables, the ansatz
pair and its source, the symmetry group and the bit mask of c1.  A ray
(the query's, then the anticanonical) enters it only if it is Kaehler
with Q(R,R) > 0 and Q(c1,R) > 0; pairing
the condition with R shows that Q(c1,R) <= 0 forces s <= 0.  With no ray,
only the ansatz pair has candidates, so a cyt search walks its two
vectors, not the box, and runs serially.
Work is split by the leading coefficient of w1 into chunks, which all run
on that one plan.  On w > 1 workers the search forks w - 1 children after
the plan is built, so they inherit it, and the calling process works a
share too; every worker claims leads in order from one pipe (forkjoin).
Without os.fork the search runs serially.  Chunks merge in lead order,
which keeps parallel runs bit-identical to serial ones.

Enumeration is isomorph-free up to the query's symmetry group (orderly
generation in McKay's sense).  It holds the pair swap and the fiber sign
changes (w1, w2) -> (+-w1, +-w2), O(2,Z), unless the on-cubic ansatz pair
is in the box: that single pair is no sign orbit, so such a query keeps the
swap alone and the keys it always had.  Every filter is sign-invariant: a
sign change of w_l flips q_l and Q(w_l,F), so lambda_l w_l, the ray
condition, the cyt and balanced verdicts, F, the scale and the route stay;
so do the squares (skt), the mod-2 classes (spin) and, as P = W G only
changes row signs, the minors and the topology label.  The permutations
S_k of the exceptional coordinates 1..k join when they fix the model's
Gram matrix and c1, the query's ray (if a cyt or balanced filter reads
it) has equal exceptional coordinates, and no ansatz pair is in the box.
The search walks only w1 with non-decreasing exceptional coordinates and,
with the signs, only the leads -b..0 (a minimal pair has w1[0] <= w2[0] <=
0), and evaluates a pair only when it is the lexicographic minimum of its
orbit.  Of the w2 in the lead window and sorted on the runs (the generator
rule below), only one whose leads tie (w2[0] = w1[0], or 0 with the signs)
can fail that: the others are the one image of their least leads, so
_is_orbit_min tests the ties alone.  That minimum is
the canonical key (the least image, columns sorted) and the pair the
unpruned enumeration would emit first for the orbit, so the catalog is the
unpruned one reduced by the group.  When the search's group is the key's
own group (with the permutations exactly when they fix the model), an
evaluated pair spells its key as it stands, and each bundle is evaluated,
rechecked and written once, with no key set.  _orbit_min still spells the
key when the search leaves out permutations that fix the model (an
unsymmetric ray, an in-box ansatz pair), where the key sorts what the orbit
rule did not, and for every pair of the unpruned NO_SYMMETRY reference,
whose key leaves out the signs.

Every query generates only the w2 of the orbit rule's lead window
(_Plan.window) that are sorted on the runs of w1, the i with w1_i =
w1_(i+1) under the permutations; the unpruned reference forms every box
partner.  A cyt w2 is cut to the window as it is formed: with j0 = 0 a q2
term's y is w2's lead, so a term outside the window forms no vector.  A
generic cyt w2 is constant on the runs already, as S_k fixes c1; the
trace-free ones join only multiples of c1, and are generated sorted under
the permutations.  Without cyt, w2 is a lead a in the window and a tail of
exceptional coordinates that _Plan.tails generates the way _RayData.slice
does, sorted on the runs and memoised per (runs, square): its shares g_j
t_j^2 sum to -Q(w1,w1) - g_0 a^2 on a diagonal Gram with skt, so w2 comes
from its square, Q(w2,w2) = -Q(w1,w1), and are all 0 without skt.  skt on
another Gram (the quadric) files the box by (lead, square) and keeps a
bucket's vectors sorted on the runs.  So a chunk tests only the lead ties,
and the visited count covers only generated pairs.
"""
from __future__ import annotations

import itertools
import os
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from operator import mul, neg
from typing import Callable, Iterable, Optional

from .catalog import CatalogRecord, _flags
from .cone import ConeCertificate, is_kahler
from .cyt import (  # noqa: F401  solve_scale stays bound here for perfbench's tracer test
    BundleSpec,
    ansatz_curvatures,
    balanced_check,
    cyt_certificate,
    solve_scale,
    solve_symmetric_ansatz,
)
from .errors import BoundTooLarge, InvariantViolation, NotPositiveRay
from .intlinalg import _gf2_mask, _gf2_spanned
from .scalars import exact_sign, format_scalar
from .surfaces import REGIME_ON_CUBIC, CohClass, SurfaceModel, intersect
from .topology import UNCLASSIFIED, topology_certificate

VALID_FILTERS = ("cyt", "skt", "balanced", "topology", "spin")

_CLASS_FILTERS = frozenset({"cyt", "balanced", "topology"})  # the ones that read classes

# the filter stages of an evaluated pair, in the order they run
REJECT_STAGES = ("skt", "spin", "cyt", "balanced", "topology")

_BRUTE_PAIR_CAP = 2_000_000
MAX_COEFF_BOUND = 1000  # the largest coeff_bound a query takes on any model

_Pair = tuple[tuple[int, ...], tuple[int, ...]]
# a cyt candidate's solved source: its Kaehler class, route, scale text (None
# for the ansatz) and the class's is_kahler certificate on the query's model;
# None for an ansatz partner when the ansatz has no solution
_Source = Optional[tuple[CohClass, str, Optional[str], ConeCertificate]]

# the groups a search reduces by, named by their generators; search_symmetry returns
# the last three, and NO_SYMMETRY, which evaluates every visited pair, is the tests' reference
NO_SYMMETRY = "none"
SWAP = "swap"
SIGNS_AND_SWAP = "signs+swap"
PERMUTE_SIGNS_AND_SWAP = "exceptionals+signs+swap"


@dataclass(frozen=True)
class SearchQuery:
    model: SurfaceModel
    coeff_bound: int
    filters: frozenset[str]
    ray: Optional[CohClass] = None
    limit: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.model, SurfaceModel):
            raise ValueError("search needs a full lattice model")
        if self.ray is not None and self.ray.cleared_form is None:
            raise ValueError("search rays must have rational coefficients")
        if self.coeff_bound < 1:
            raise ValueError("coeff_bound must be positive")
        bad = self.filters - set(VALID_FILTERS)
        if bad:
            raise ValueError(f"unknown filters: {sorted(bad)}")
        if self.coeff_bound > MAX_COEFF_BOUND:
            raise BoundTooLarge(f"coeff_bound <= {MAX_COEFF_BOUND} required")
        if self.model.rank > 6 and self.coeff_bound > 6:
            raise BoundTooLarge("coeff_bound <= 6 required for models of rank > 6")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be nonnegative")
        if self.ray is not None and exact_sign(intersect(self.model, self.ray, self.ray)) <= 0:
            raise NotPositiveRay("search ray needs positive self-intersection")


@dataclass
class SearchStats:
    bound: int
    chunks: int
    pairs_evaluated: int  # pairs visited: every generated candidate pair
    records_emitted: int
    exhausted: bool = True  # False only when --limit cut a record
    pairs_skipped: int = 0  # visited pairs not evaluated (orbit rule, merged keys)
    symmetry: str = SWAP  # the group the catalog is reduced by, a search_symmetry name
    chunk_records: tuple[int, ...] = ()  # records each lead chunk wrote before the merge, in lead order
    cyt_routes: tuple[str, ...] = ()  # the rays the plan kept: "ray", "anticanonical_ray"
    # evaluated pairs each stage rejected, per REJECT_STAGES name, summed over
    # the chunks in chunk order
    rejected: dict[str, int] = field(default_factory=lambda: dict.fromkeys(REJECT_STAGES, 0))
    omega1_walked: int = 0  # w1 the chunks walked, summed over the chunks
    omega1_with_candidates: int = 0  # of those, the w1 with any candidate
    # wall time of each lead chunk in the worker that ran it, in lead order
    chunk_seconds: tuple[float, ...] = field(default=(), compare=False)


def resolve_threads(requested: Optional[int] = None) -> int:
    cap = os.environ.get("CYT_FORGE_THREADS")
    n = requested
    if n is None:  # the CPUs this process may run on, where the platform tells
        n = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if cap is not None:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"CYT_FORGE_THREADS must be an integer, got {cap!r}") from None
    return max(1, n)


# -- canonical form ------------------------------------------------------


def _permutes_exceptionals(model: SurfaceModel) -> bool:
    """True iff every permutation of the coordinates 1..k fixes the Gram
    matrix and c1, whatever the basis labels say."""
    g, c1, rest = model.gram, model.c1.coeffs, range(1, model.rank)
    return (
        len({c1[i] for i in rest}) == 1
        and len({g[0][i] for i in rest}) == 1
        and len({g[i][i] for i in rest}) == 1
        and len({g[i][j] for i in rest for j in rest if i != j}) <= 1
    )


def _pair_text(a: tuple[int, ...], b: tuple[int, ...]) -> str:
    """The pair as key text, 'a0,a1,..|b0,b1,..'."""
    return ",".join(map(str, a)) + "|" + ",".join(map(str, b))


def _columns_sorted(x: tuple[int, ...], y: tuple[int, ...]) -> _Pair:
    """The pair with its exceptional columns (x_i, y_i) sorted."""
    xs, ys = zip(*sorted(zip(x[1:], y[1:])))
    return (x[0], *xs), (y[0], *ys)


def _orbit_min(v1: tuple[int, ...], v2: tuple[int, ...], permute: bool, signs: bool) -> _Pair:
    """The least image of the pair under the swap, the sign changes (+-v1, +-v2)
    when signs is set and the permutations of the exceptional coordinates of
    both halves when permute is set.  Permutations fix the leads, so only
    images of least leads are sorted; pairs compare as their concatenations."""
    if signs:  # each half signed to a lead <= 0, both ways when its lead is 0
        low1, low2 = ([v] if v[0] < 0 else [tuple(-c for c in v)] + [v] * (v[0] == 0) for v in (v1, v2))
        images = [(x, y) for xs, ys in ((low1, low2), (low2, low1)) for x in xs for y in ys]
    else:
        images = [(v1, v2), (v2, v1)]
    least = min((x[0], y[0]) for x, y in images)
    images = [(x, y) for x, y in images if (x[0], y[0]) == least]
    if permute:
        images = [_columns_sorted(x, y) for x, y in images]
    return min(images)


def _is_orbit_min(v1: tuple[int, ...], v2: tuple[int, ...], permute: bool, signs: bool) -> bool:
    """Whether _orbit_min(v1, v2, permute, signs) is the pair itself, read
    from the images with the pair's own leads, which it must have: none may
    sort below it.  With v1[0] < v2[0], and v2[0] < 0 under the signs, the
    pair is the only one, so its sorted columns decide.  Under the
    permutations an image's first half is its sorted x, so an image is
    sorted whole only when that half ties with v1."""
    a, c = v1[0], v2[0]
    if a > c or signs and c > 0:
        return False
    pair = (v1, v2)
    images = [(v2, v1)] * (a == c)
    if signs and not c:  # a lead 0 takes either sign
        m1, m2 = tuple(map(neg, v1)), tuple(map(neg, v2))
        images += [(v1, m2)] + [(m1, v2), (m1, m2), (v2, m1), (m2, v1), (m2, m1)] * (not a)
    if permute:
        columns, first = list(zip(v1[1:], v2[1:])), list(v1[1:])
        if columns != sorted(columns):
            return False
    for x, y in images:
        if permute:
            xs = sorted(x[1:])
            if xs != first:
                if xs < first:
                    return False
                continue
            x, y = _columns_sorted(x, y)
        if (x, y) < pair:
            return False
    return True


# -- orbit rule ----------------------------------------------------------


def search_symmetry(query: SearchQuery, permute: bool, ansatz_pair: Optional[_Pair]) -> str:
    """The group the candidate locus and every filter of the query are
    invariant under: the swap alone when the ansatz pair is in the box, else
    the swap and the signs, with the permutations of the exceptional
    coordinates when they fix the model (permute) and the ray, if a cyt or
    balanced filter reads it."""
    if ansatz_pair is not None:
        return SWAP
    ray = query.ray if query.filters & {"cyt", "balanced"} else None  # no other filter reads it
    symmetric_ray = ray is None or all(c == ray.coeffs[1] for c in ray.coeffs[2:])
    return PERMUTE_SIGNS_AND_SWAP if permute and symmetric_ray else SIGNS_AND_SWAP


# -- candidate generation ------------------------------------------------


def _vectors_with_lead(
    lead: int, rank: int, bound: int, sorted_rest: bool = False
) -> Iterable[tuple[int, ...]]:
    """The box vectors with first coordinate lead, in lexicographic order;
    only those with non-decreasing later coordinates when sorted_rest."""
    coords = range(-bound, bound + 1)
    if sorted_rest:
        rests = itertools.combinations_with_replacement(coords, rank - 1)
    else:
        rests = itertools.product(coords, repeat=rank - 1)
    for rest in rests:
        yield (lead,) + rest


def _grow(
    rows: list[list[tuple[int, int, int, int]]], targets: list[int], sorted_at: Iterable[int]
) -> list[tuple[int, ...]]:
    """The vectors that take an entry (x, share, lo, hi) of each row as
    their coordinates, in lexicographic order, whose shares sum to a value
    in the sorted list targets; for j in sorted_at, coordinate j is not
    below coordinate j - 1, and row j lists its x in steps of 1 upward.
    Coordinates are chosen one at a time, and a prefix is dropped once no
    target lies in [sum + lo, sum + hi], the range of the sum over its
    continuations that its last entry states."""
    if not rows:
        return [()] if 0 in targets else []
    count = len(targets)
    level: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for j, row in enumerate(rows):
        grown = []
        for v, q in level:
            for x, share, lo, hi in row[v[-1] - row[0][0] :] if j in sorted_at else row:
                t = q + share
                i = bisect_left(targets, t + lo)
                if i < count and targets[i] <= t + hi:
                    grown.append((v + (x,), t))
        level = grown
    return [v for v, _ in level]


class _RayData:
    """One cyt route along a ray: its name and class, with the integer data
    for solver-aware candidate generation."""

    def __init__(
        self, name: str, model: SurfaceModel, ray: CohClass, bound: int, sorted_perp: bool = False
    ):
        self.name = name
        self.model = model
        self.ray = ray
        ints, den = ray.cleared_form  # SearchQuery admits rational rays only
        g = gcd(*ints)
        self.ray_int = [v // g for v in ints] if g else list(ints)
        self.unit = Fraction(g, den)  # R = unit * ray_int
        self.w = model.gram_row(self.ray_int)  # Q(., R) functional
        self.r = sum(a * b for a, b in zip(self.ray_int, self.w))  # Q(R,R)
        self.c1 = model.c1.as_int_vector()
        self.d_pair = sum(a * b for a, b in zip(self.c1, self.w))  # Q(c1,R)
        self.bound = bound
        self.sources: dict[int, _Source] = {}  # source(lam), which records at one lambda share
        # w1 is parallel to c1 iff it is a nonzero box multiple of the
        # primitive c1; a kept ray has Q(c1,R) > 0, so each has Q(w1,R) != 0
        g1 = gcd(*self.c1)
        prim = [x // g1 for x in self.c1] if g1 else []
        top = bound // max(map(abs, prim)) if g1 else 0
        self.c1_multiples = frozenset(
            tuple(m * x for x in prim) for m in range(-top, top + 1) if m
        )
        self.sorted_perp = sorted_perp  # perp and slice hold only sorted exceptionals
        # slice's rows for _grow, per coordinate j and value x: x, its share w_j x of Q and
        # the range of Q over the later coordinates, each in the box or, with
        # sorted_perp, a non-decreasing tail from x (from -b after the lead),
        # whose extremes are at the tails p..p b..b of that order polytope
        w, n = self.w, len(self.w)
        tail = [sum(w[i:]) for i in range(n + 1)]
        self.slice_rows: list[list[tuple[int, int, int, int]]] = []
        for j, wj in enumerate(w):
            spread = bound * sum(map(abs, w[j + 1 :]))
            row = []
            for x in range(-bound, bound + 1):
                p = x if j else -bound
                ends = [p * (tail[j + 1] - tail[t]) + bound * tail[t] for t in range(j + 1, n + 1)]
                lo, hi = (min(ends), max(ends)) if sorted_perp else (-spread, spread)
                row.append((x, wj * x, lo, hi))
            self.slice_rows.append(row)
        self.perp: dict[int, list[tuple[int, ...]]] = {}  # lazy, per lead: {v : Q(v,R)=0}
        # q2_walk solves the locus on coordinate j0 (see the module docstring)
        self.j0 = next((j for j, c in enumerate(self.c1) if c), 0)
        self.m = self.d_pair // gcd(self.d_pair, g1) if self.d_pair > 0 else 1
        self.q2_terms: dict[tuple[int, int], list[tuple[int, int, int]]] = {}  # (q1, x): [(q1^2+q2^2, q2*d, y)]

    def source(self, lam: int) -> _Source:
        """The solved source of the pairs generated at lam, one tuple per
        lam: the class s * R, where s * unit = p/q = 2 lam / (r d) in lowest
        terms and ray_int is primitive, so its cleared form is (p * ray_int,
        q); the route; the scale text of s; and is_kahler of the class, which
        every recheck at lam reads."""
        src = self.sources.get(lam)
        if src is None:
            t = Fraction(2 * lam, self.r * self.d_pair)
            f = CohClass.from_cleared(tuple(t.numerator * v for v in self.ray_int), t.denominator)
            src = self.sources[lam] = (f, self.name, format_scalar(t / self.unit), is_kahler(self.model, f))
        return src

    def slice(self, lead: int, targets: list[int]) -> list[tuple[int, ...]]:
        """The box vectors v with first coordinate lead and Q(v,R) in the
        sorted list targets, in lexicographic order; with sorted_perp only
        those with non-decreasing exceptional coordinates (see _grow and
        slice_rows)."""
        b, rows = self.bound, self.slice_rows
        sorted_at = range(2, len(rows)) if self.sorted_perp else ()
        return _grow([rows[0][lead + b : lead + b + 1], *rows[1:]], targets, sorted_at)

    def perp_vectors(self, window: Optional[tuple[int, int]] = None) -> list[tuple[int, ...]]:
        """The box vectors v with Q(v,R) = 0 and lo <= v[0] <= hi for the
        window (lo, hi), the box's by default, in lexicographic order; with
        sorted_perp only those with non-decreasing exceptional coordinates."""
        lo, hi = window or (-self.bound, self.bound)
        out = []
        for lead in range(lo, hi + 1):
            vs = self.perp.get(lead)
            if vs is None:
                vs = self.perp[lead] = self.slice(lead, [0])
            out += vs
        return out

    def partnered_q1(self, lead: int) -> list[int]:
        """The values q1 = Q(w1,R) of the box vectors with first coordinate
        lead, sorted, whose q2 walk is not empty at x = lead, or at some box
        x when j0 > 0: a w1 with a generic candidate has one."""
        b = self.bound
        values = {self.w[0] * lead}
        for wj in self.w[1:]:
            values = {q + wj * x for q in values for x in range(-b, b + 1)}
        xs = range(-b, b + 1) if self.j0 else (lead,)
        return [q1 for q1 in sorted(values) if any(self.q2_walk(q1, x) for x in xs)]

    def q2_walk(self, q1: int, x: int) -> list[tuple[int, int, int]]:
        """The memoised terms (q1^2 + q2^2, q2 d, y) of the q2 = Q(w2,R) that
        candidates_for tries for a w1 with q1 = Q(w1,R) and w1_j0 = x: for
        each y = w2_j0 in the box, the integer roots q2 != 0 of c q2^2 -
        d y q2 + c q1^2 - d q1 x = 0, c = c1_j0, with m | q1^2 + q2^2."""
        terms = self.q2_terms.get((q1, x))
        if terms is None:
            d, c, b = self.d_pair, self.c1[self.j0], self.bound
            const = 4 * c * (c * q1 * q1 - d * q1 * x)
            found = {}
            for y in range(-b, b + 1):
                dy = d * y
                disc = dy * dy - const
                if disc >= 0 and (s := isqrt(disc)) * s == disc:
                    found.update(((dy + t) // (2 * c), y) for t in (s, -s) if (dy + t) % (2 * c) == 0)
            terms = self.q2_terms[(q1, x)] = [
                (q1 * q1 + q2 * q2, q2 * d, y) for q2, y in found.items() if q2 and (q1 * q1 + q2 * q2) % self.m == 0
            ]
        return terms

    def candidates_for(
        self, w1: tuple[int, ...], window: Optional[tuple[int, int]] = None
    ) -> dict[tuple[int, ...], int]:
        """All w2 in the box with a first coordinate in the window (lo, hi),
        the box's by default, that put (w1, w2) on the solvable locus, each
        with its lambda = q1^2 + q2^2 > 0: the generic ones, q2 != 0, from
        the q2 walk at (q1, w1_j0), each kept when every coordinate of
        (lambda c1 - q1 d w1) / (q2 d) is an integer in the box; and, when
        w1 is a multiple of c1, the trace-free ones, where lambda = q1^2,
        only those perp_vectors holds."""
        out: dict[tuple[int, ...], int] = {}
        w, c1, dp, bound, j0 = self.w, self.c1, self.d_pair, self.bound, self.j0
        lo, hi = window or (-bound, bound)
        q1 = sum(a * b for a, b in zip(w1, w))
        q1dp = q1 * dp
        for lam, den, y in self.q2_walk(q1, w1[j0]):
            if not j0 and not lo <= y <= hi:
                continue
            vec = []
            for j in range(len(w1)):
                x, rem = divmod(lam * c1[j] - q1dp * w1[j], den)
                if rem or x < -bound or x > bound:
                    break
                vec.append(x)
            else:
                if lo <= vec[0] <= hi:
                    out[tuple(vec)] = lam
        # parallel branch: w1 proportional to c1 frees w2 to the trace-free locus
        if w1 in self.c1_multiples:
            out.update(dict.fromkeys(self.perp_vectors((lo, hi)), q1 * q1))
        return out


# -- the plan ------------------------------------------------------------


def _ansatz_pair(query: SearchQuery) -> Optional[_Pair]:
    """The on-cubic symmetric-ansatz pair when the query can use it and it
    lies in the box; None otherwise."""
    model = query.model
    if "cyt" not in query.filters or model.curve_regime != REGIME_ON_CUBIC or model.rank - 1 < 9:
        return None
    pair = tuple(tuple(w.as_int_vector()) for w in ansatz_curvatures(model.rank - 1))
    if all(abs(c) <= query.coeff_bound for v in pair for c in v):
        return pair
    return None


class _Plan:
    """Everything the pairs of one query share, built once per search: the
    rays a record can stand on, the balanced filter's fallback class, the
    partner tables of a query without cyt (the tail rows and their memo, or
    the skt buckets), the ansatz pair and its source, the symmetry group and
    the bit mask of c1."""

    def __init__(self, query: SearchQuery):
        model = query.model
        rank, bound = model.rank, query.coeff_bound
        self.query = query
        self.c1_mask = _gf2_mask(model.c1.as_int_vector())
        self.screen_flags = {name: True for name in ("skt", "spin") if name in query.filters}
        self.permute = _permutes_exceptionals(model)  # canonical keys
        self.ansatz_pair = _ansatz_pair(query)
        sol = solve_symmetric_ansatz(model.rank - 1) if self.ansatz_pair is not None else None
        self.ansatz_source: _Source = None
        if sol is not None:  # its cone certificate on this very model
            self.ansatz_source = (sol.kahler_class, "ansatz", None, is_kahler(model, sol.kahler_class))
        self.symmetry = search_symmetry(query, self.permute, self.ansatz_pair)
        self.prune = self.symmetry != NO_SYMMETRY
        self.sorted_v1 = "exceptionals" in self.symmetry
        self.signs = "signs" in self.symmetry  # then a minimal w1 has lead <= 0
        self.own_key = self.prune and self.sorted_v1 == self.permute  # see the module docstring

        self.rays: list[_RayData] = []
        if "cyt" in query.filters:
            named = [("ray", query.ray)] if query.ray is not None else []
            if model.c1 != query.ray and not model.c1.is_zero():
                named.append(("anticanonical_ray", model.c1))
            for name, ray in named:
                data = _RayData(name, model, ray, bound, self.sorted_v1)
                # cone membership is invariant under the positive solved
                # scale, so the ray's verdict stands in for is_kahler(s * ray)
                if data.r > 0 and data.d_pair > 0 and is_kahler(model, ray).verdict:
                    self.rays.append(data)

        # balance is tested against the cyt Kaehler class, else the ray or c1;
        # None when that is null, which rejects every pair
        f = query.ray if query.ray is not None else model.c1
        self.balanced_class = f if "balanced" in query.filters and intersect(model, f, f) != 0 else None

        # without cyt each w2 comes from tails, skt's from its square: the
        # shares are the diagonal Gram's with skt, else 0; skt on another Gram
        # (the quadric) takes buckets of the box by (lead, square) instead
        cyt, skt, diag = "cyt" in query.filters, "skt" in query.filters, model._gram_diagonal
        self.skt = skt and cyt  # a partner from its square passes skt
        self.tail_rows: Optional[list[list[tuple[int, int, int, int]]]] = None
        self.buckets: Optional[dict[tuple[int, int], list[tuple[int, ...]]]] = None
        if skt and diag is None and not cyt:
            self.buckets = {}
            for v in itertools.product(range(-bound, bound + 1), repeat=rank):
                self.buckets.setdefault((v[0], self.square(v)), []).append(v)
        elif not cyt:
            # _grow's rows, per exceptional coordinate j and box value x: x, its
            # share g_j x^2 and the range [lo, hi] of sum g_i x_i^2 over the i > j
            self.shares = diag if skt else (0,) * rank
            self.tail_rows = []
            lo = hi = 0
            for g in reversed(self.shares[1:]):
                self.tail_rows.insert(0, [(x, g * x * x, lo, hi) for x in range(-bound, bound + 1)])
                lo, hi = lo + min(0, g * bound * bound), hi + max(0, g * bound * bound)
            self.tail_memo: dict[tuple[tuple[int, ...], int], list[tuple[int, ...]]] = {}

    def square(self, v: tuple[int, ...]) -> int:
        return sum(map(mul, v, self.query.model.gram_row(v)))

    def window(self, lead: int) -> tuple[int, int]:
        """The least and largest lead of a w2 that the chunk of lead keeps:
        an orbit minimum has lead <= w2[0] <= 0 with the signs, <= b
        without; the whole box for the unpruned reference."""
        b = self.query.coeff_bound
        return (lead, 0 if self.signs else b) if self.prune else (-b, b)

    def candidates(self, v1: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
        """The w2 to pair with v1, in lexicographic order: those with a lead
        in the window of v1's lead, sorted on the runs of v1 (see the module
        docstring).  For a cyt query a dict from each to its solved source:
        the entry at its lambda of the first plan ray that generated it, else
        the plan's ansatz source.  Else a list: each lead in the window with
        each of the tails at the opposite square, or, for skt on a Gram that
        is not diagonal, the bucket of each lead in the window at that square."""
        lo, hi = self.window(v1[0])
        if "cyt" in self.query.filters:
            found: dict[tuple[int, ...], _Source] = {}
            for data in self.rays:
                for v2, lam in data.candidates_for(v1, (lo, hi)).items():
                    if v2 not in found:
                        found[v2] = data.source(lam)
            if self.ansatz_pair is not None and v1 in self.ansatz_pair:
                a1, a2 = self.ansatz_pair
                v2 = a2 if v1 == a1 else a1
                if lo <= v2[0] <= hi:
                    found.setdefault(v2, self.ansatz_source)
            return dict(sorted(found.items())) if found else found
        runs = self.runs(v1)
        if self.buckets is not None:
            square = -self.square(v1)
            pool = (v2 for a in range(lo, hi + 1) for v2 in self.buckets.get((a, square), ()))
            return [v2 for v2 in pool if all(v2[i] <= v2[i + 1] for i in runs)]
        g = self.shares
        square = -sum(map(mul, g, map(mul, v1, v1)))
        return [(a, *t) for a in range(lo, hi + 1) for t in self.tails(runs, square - g[0] * a * a)]

    def runs(self, v1: tuple[int, ...]) -> tuple[int, ...]:
        """Under the permutations, the i >= 1 with v1[i] = v1[i + 1]: an orbit
        minimum's w2 is sorted on each run of equal exceptional coordinates."""
        return tuple(i for i in range(1, len(v1) - 1) if v1[i] == v1[i + 1]) if self.sorted_v1 else ()

    def tails(self, runs: tuple[int, ...], square: int) -> list[tuple[int, ...]]:
        """The exceptional coordinates t_1..t_k in the box with sum g_j t_j^2
        = square for the shares g and t_(i+1) >= t_i for i in runs, in
        lexicographic order (see _grow and tail_rows), memoised."""
        tails = self.tail_memo.get((runs, square))
        if tails is None:  # row i of tail_rows is t_(i+1)
            tails = self.tail_memo[(runs, square)] = _grow(self.tail_rows, [square], runs)
        return tails

    def walk(self, lead: int) -> Iterable[tuple[int, ...]]:
        """The w1 with first coordinate lead that chunk pairs, in
        lexicographic order, each with non-decreasing exceptional
        coordinates under the permutations.  For a cyt query only those that
        can have a candidate: the q1 slice of each ray (its partnered_q1)
        and the ansatz vectors.  A multiple of c1 is in its slice, as it
        pairs with itself at q2 = q1."""
        if "cyt" not in self.query.filters:
            return _vectors_with_lead(lead, self.query.model.rank, self.query.coeff_bound, self.sorted_v1)
        found = {v for v in self.ansatz_pair or () if v[0] == lead}
        for data in self.rays:
            found.update(data.slice(lead, data.partnered_q1(lead)))
        return sorted(found)

    def chunk(self, lead: int) -> tuple[list[CatalogRecord], tuple[int, ...], dict[str, int], float]:
        """Records of the pairs whose w1 starts with lead, with the counts of
        visited pairs, of those not evaluated, of w1 walked and of those
        with a candidate, of the evaluated pairs each stage rejected, and
        the chunk's wall time in seconds."""
        start = time.perf_counter()
        records: list[CatalogRecord] = []
        visited = skipped = walked = with_candidates = 0
        rejected = dict.fromkeys(REJECT_STAGES, 0)
        passed_keys: set[str] = set()  # stays empty with own keys, which never repeat
        spin = "spin" in self.screen_flags
        cyt = "cyt" in self.query.filters
        for v1 in self.walk(lead):
            walked += 1
            cands = self.candidates(v1)
            if not cands:
                continue
            with_candidates += 1
            m1 = _gf2_mask(v1) if spin else None
            for v2 in cands:
                visited += 1
                # a candidate is in the window and sorted on the runs, so it is
                # its own orbit minimum unless it ties on the leads (see _is_orbit_min)
                tie = v2[0] == lead or self.signs and not v2[0]
                if self.prune and tie and not _is_orbit_min(v1, v2, self.sorted_v1, self.signs):
                    skipped += 1
                    continue
                if spin or self.skt:
                    stage = self.screen(v1, v2, m1)
                    if stage is not None:
                        rejected[stage] += 1
                        continue
                key = _pair_text(*((v1, v2) if self.own_key else _orbit_min(v1, v2, self.permute, self.signs)))
                # without the permutations in the group the key still merges
                # permuted pairs; the merge keeps the first, so later ones can go
                if key in passed_keys:
                    skipped += 1
                    continue
                rec = self.evaluate(v1, v2, key, cands[v2] if cyt else None)
                if isinstance(rec, str):
                    rejected[rec] += 1
                else:
                    if not self.own_key:
                        passed_keys.add(key)
                    records.append(rec)
        return records, (visited, skipped, walked, with_candidates), rejected, time.perf_counter() - start

    def screen(self, v1: tuple[int, ...], v2: tuple[int, ...], m1: Optional[int]) -> Optional[str]:
        """The tuple stage, skt then spin, that rejects the pair, or None; m1
        is the bit mask of v1, None without the spin filter."""
        if self.skt and self.square(v1) + self.square(v2):
            return "skt"
        if m1 is not None and not _gf2_spanned(self.c1_mask, m1, _gf2_mask(v2)):
            return "spin"
        return None

    def evaluate(self, v1: tuple[int, ...], v2: tuple[int, ...], key: str, source: _Source) -> CatalogRecord | str:
        """The record of a pair that passed screen, or the stage that rejected
        it; source is the pair's entry in candidates, None without cyt.  The
        pair is CYT at the source's class, by the generating ray's locus
        identity or by the ansatz, and the recheck confirms it: verify_cyt's
        certificate, with the source's cone certificate as its cone."""
        query = self.query
        model = query.model
        filters = query.filters
        flags = self.screen_flags.copy()

        kahler: Optional[CohClass] = None
        cone: Optional[ConeCertificate] = None
        if filters & _CLASS_FILTERS:
            bundle = BundleSpec(model, (CohClass.from_cleared(v1), CohClass.from_cleared(v2)))
        if "cyt" in filters:
            if source is None:
                return "cyt"  # the ansatz has no solution
            kahler, flags["cyt_route"], flags["scale"], cone = source
            flags["cyt"] = True

        if "balanced" in filters:
            f = kahler if kahler is not None else self.balanced_class
            if f is None or not balanced_check(bundle, f):
                return "balanced"
            flags["balanced"] = True

        if "topology" in filters:
            cert = topology_certificate(bundle)
            if cert.diffeo_label == UNCLASSIFIED:
                return "topology"
            flags["topology_label"] = cert.diffeo_label

        if flags.get("cyt") and not cyt_certificate(bundle, kahler, cone).verdict:
            raise InvariantViolation(
                f"search record {key} on {model.name} does not stand on the full cyt certificate"
            )

        return CatalogRecord(
            model=model.name,
            omega1=v1,
            omega2=v2,
            kahler=tuple(kahler.serialize()) if kahler is not None else None,
            flags=_flags(**flags),
            canonical_key=key,
        )


def search(
    query: SearchQuery,
    threads: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> tuple[list[CatalogRecord], SearchStats]:
    """Run the query; returns deduplicated records in lexicographic pair
    order plus run statistics.  Deterministic for any thread count."""
    model = query.model
    bound = query.coeff_bound
    rank = model.rank
    if "cyt" not in query.filters and "skt" not in query.filters:
        total_pairs = (2 * bound + 1) ** (2 * rank)
        if total_pairs > _BRUTE_PAIR_CAP:
            raise BoundTooLarge(
                f"{total_pairs} unfiltered pairs exceed the enumeration cap; "
                "add a cyt or skt filter or shrink the bound"
            )

    plan = _Plan(query)
    leads = list(range(-bound, 1 if plan.signs else bound + 1))
    workers = min(resolve_threads(threads), len(leads))
    if workers > 1 and hasattr(os, "fork") and ("cyt" not in query.filters or plan.rays):
        from .forkjoin import fork_join  # only a forked search pays for its imports

        results = fork_join(plan.chunk, leads, workers)
        if progress:
            progress(f"{len(leads)} chunks done on {workers} workers")
    else:
        results = []
        for lead in leads:
            results.append(plan.chunk(lead))
            if progress:
                progress(f"chunk {len(results)}/{len(leads)} done")

    merged: list[CatalogRecord] = []
    seen: set[str] = set()
    visited, skipped, walked, with_candidates = map(sum, zip(*(counts for _, counts, _, _ in results)))
    rejected = dict.fromkeys(REJECT_STAGES, 0)
    for records, _, chunk_rejected, _ in results:
        for stage, count in chunk_rejected.items():
            rejected[stage] += count
        if plan.own_key:  # the chunks repeat no key
            merged += records
            continue
        for rec in records:
            if rec.canonical_key not in seen:
                seen.add(rec.canonical_key)
                merged.append(rec)
    emitted = merged[: query.limit]
    stats = SearchStats(
        bound=bound,
        chunks=len(leads),
        pairs_evaluated=visited,
        records_emitted=len(emitted),
        exhausted=len(emitted) == len(merged),
        pairs_skipped=skipped,
        symmetry=plan.symmetry,
        chunk_records=tuple(len(records) for records, _, _, _ in results),
        cyt_routes=tuple(data.name for data in plan.rays),
        rejected=rejected,
        omega1_walked=walked,
        omega1_with_candidates=with_candidates,
        chunk_seconds=tuple(seconds for _, _, _, seconds in results),
    )
    return emitted, stats
