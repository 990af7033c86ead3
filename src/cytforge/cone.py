"""Kaehler-cone membership via the Nakai-Moishezon-style conditions: positive
self-intersection, positivity against every irreducible curve of negative
self-intersection, and positivity against an ample witness.  Every inequality
is decided by exact sign computation and recorded in a certificate.

The curves a class is checked against are listed once per model, with their
integer Gram rows G.n_C (n_C the curve's cleared numerators, and G.m_C too
for a curve with Q(sqrt(e)) coefficients).  For a rational class F = n/d,
d > 0, the sign of F.C is the sign of the dot product n.(G.n_C).  A class
with Q(sqrt(d)) coefficients, F = (n + m sqrt(d)) / den, pairs with a
rational curve as p + q sqrt(d) with p = n.(G.n_C) and q = m.(G.n_C), two
integer dots over den, and its sign is decided on integers from the signs
of p and q, or else by comparing p^2 with q^2 d (`scalars.surd_sign`).
So the verdict comes from integer rows alone.  The signs depend only on the
direction of n (of (n, m) for a Q(sqrt(d)) class), so each model keeps a
small memo of them keyed on the primitive vector; a search rechecking
s * R for many scales s computes them once per ray, and `verify_cyt`
rechecking a solved class finds them there.  Q(F,F) and the ample-witness
pairing are one `intersect` call each, on every call.  The per-curve values
of a certificate are rendered on first read of `curve_checks`, one
`intersect` call per curve, and each value's sign is checked against the
sign the verdict read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, isqrt
from operator import mul
from typing import Optional, Sequence

from .errors import CytForgeError, InvariantViolation, MissingAmpleWitness, MissingCurveData, RankMismatch
from .scalars import Scalar, exact_sign, ratio_terms, surd_sign
from .surfaces import (
    REGIME_ENUMERATE,
    REGIME_EXPLICIT,
    REGIME_NONE,
    REGIME_ON_CUBIC,
    REGIME_RULINGS,
    CohClass,
    SurfaceModel,
    intersect,
    surd_dot,
)


@dataclass(frozen=True)
class CurveCheck:
    curve: CohClass
    value: Scalar
    sign: int


@dataclass(frozen=True)
class ConeCertificate:
    """The cone verdict for kahler_class and what it was checked against.

    curve_signs holds the sign of F.C for each curve, in order.  The
    CurveCheck values are rendered on first read of curve_checks, one
    `intersect` call per curve, and kept; a value whose exact sign disagrees
    with curve_signs raises InvariantViolation.  A verdict read alone
    renders nothing."""

    self_intersection: Scalar
    self_sign: int
    ample_witness: Optional[CohClass]
    ample_value: Optional[Scalar]
    ample_sign: Optional[int]
    witness_source: str  # "user" | "model"
    anticanonical_ray: bool  # F proportional to -K: Einstein-positivity route also applies
    verdict: bool
    model: SurfaceModel = field(repr=False)
    kahler_class: CohClass = field(repr=False)
    curves: tuple[CohClass, ...] = field(repr=False)
    curve_signs: tuple[int, ...] = field(repr=False)

    @cached_property
    def curve_checks(self) -> tuple[CurveCheck, ...]:
        checks = []
        for curve, sign in zip(self.curves, self.curve_signs):
            value = intersect(self.model, self.kahler_class, curve)
            if exact_sign(value) != sign:
                raise InvariantViolation(
                    f"F.C = {value} against the curve {list(curve.coeffs)}, "
                    f"but its integer row gave the sign {sign}"
                )
            checks.append(CurveCheck(curve, value, sign))
        return tuple(checks)


def _neg1_classes(k: int, degree_bound: int) -> tuple[tuple[int, ...], ...]:
    """All integral aH - sum(b_i E_i), 0 <= a <= degree_bound, with
    self-intersection -1 and anti-canonical degree 1, by pruned search."""
    found: list[tuple[int, ...]] = []
    for a in range(0, degree_bound + 1):
        target_sum = 3 * a - 1  # sum of b_i
        target_sq = a * a + 1  # sum of b_i^2
        bs: list[int] = []

        def descend(i: int, rem_sum: int, rem_sq: int):
            if i == k:
                if rem_sum == 0 and rem_sq == 0:
                    found.append((a, *bs))
                return
            slots = k - i
            # Cauchy-Schwarz feasibility on the remaining slots
            if rem_sq < 0 or rem_sum * rem_sum > slots * rem_sq:
                return
            top = isqrt(rem_sq)
            for b in range(-top, top + 1):
                bs.append(b)
                descend(i + 1, rem_sum - b, rem_sq - b * b)
                bs.pop()

        descend(0, target_sum, target_sq)
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def _curves_for(model: SurfaceModel) -> tuple[CohClass, ...]:
    regime = model.curve_regime
    if regime in (REGIME_NONE, REGIME_RULINGS):
        return ()
    if regime == REGIME_EXPLICIT:
        if model.curves is None:
            raise MissingCurveData(f"{model.name} has no negative-curve list")
        return model.curves
    k = model.rank - 1
    if regime == REGIME_ON_CUBIC:
        # E_i, then H - E_i - E_j, with their cleared forms seeded: the list
        # runs to k(k+1)/2 curves, and reading back their coefficients cost
        # more than pairing a class against them
        curves = []
        for i in range(k):
            v = [0] * (k + 1)
            v[i + 1] = 1
            curves.append(CohClass.from_cleared(tuple(v)))
        for i in range(k):
            for j in range(i + 1, k):
                v = [1] + [0] * k
                v[i + 1] = v[j + 1] = -1
                curves.append(CohClass.from_cleared(tuple(v)))
        if k >= 10:
            curves.append(model.c1)  # proper transform of the cubic, class -K
        return tuple(curves)
    if regime == REGIME_ENUMERATE:
        vecs = _neg1_classes(k, degree_bound=6)
        return tuple(CohClass.of([a] + [-b for b in bs]) for a, *bs in vecs)
    raise MissingCurveData(f"unknown curve regime {regime!r}")


_Rows = tuple[tuple[int, ...], ...]
_SurdRows = Optional[tuple[Optional[tuple[tuple[int, ...], int]], ...]]


@lru_cache(maxsize=None)
def _curve_rows(model: SurfaceModel) -> tuple[tuple[CohClass, ...], _Rows, _SurdRows, dict]:
    """The curves is_kahler checks a class against, in certificate order (the
    negative curves, or the two rulings of the quadric), with their integer
    Gram rows G.n_C, the rows (G.m_C, e) of the curves with Q(sqrt(e))
    coefficients (None for a rational curve; None in all when every curve
    is rational), and an empty memo for _curve_signs.  A curve of the wrong
    rank raises RankMismatch."""
    if model.curve_regime == REGIME_RULINGS:
        curves: tuple[CohClass, ...] = (CohClass.of([1, 0]), CohClass.of([0, 1]))
    else:
        curves = _curves_for(model)
    rows, surds = [], []
    for c in curves:
        if c.rank != model.rank:
            raise RankMismatch(f"classes of rank {model.rank}/{c.rank} on a rank-{model.rank} model")
        form = c.cleared_form  # a rational curve caches no surd form
        n, m, e = (form[0], None, None) if form is not None else c.surd_form[:3]
        rows.append(tuple(model.gram_row(n)))
        surds.append(None if m is None else (tuple(model.gram_row(m)), e))
    return curves, tuple(rows), tuple(surds) if any(surds) else None, {}


_SIGN_MEMO_SIZE = 8  # sign vectors kept per model; the oldest goes first


def _row_signs(
    n: Sequence[int], m: Optional[Sequence[int]], d: Optional[int], rows: _Rows, surds: _SurdRows
) -> tuple[int, ...]:
    """The sign of (n + m sqrt(d)).G.C for each curve row, on integers: one
    dot per row for a rational class against rational curves, else
    surd_dot and surd_sign."""
    if m is None and surds is None:
        return tuple([(v > 0) - (v < 0) for v in [sum(map(mul, n, row)) for row in rows]])
    surds = surds or (None,) * len(rows)
    return tuple(surd_sign(*surd_dot(n, m, d, row, *(s or (None, None)))) for row, s in zip(rows, surds))


def _curve_signs(
    n: Sequence[int], m: Optional[Sequence[int]], d: Optional[int], rows: _Rows, surds: _SurdRows, memo: dict
) -> tuple[int, ...]:
    """_row_signs of n + m sqrt(d), memoised on the primitive vector of n,
    or of (n, m) with d: a positive multiple has the same signs, so a search
    that rechecks s * R for many scales s computes them once per ray."""
    g = gcd(*n, *(m or ()))
    if g > 1:
        n, m = tuple(x // g for x in n), m and tuple(x // g for x in m)
    key = tuple(n) if m is None else (tuple(n), m, d)
    signs = memo.get(key)
    if signs is None:
        signs = _row_signs(n, m, d, rows, surds)
        if len(memo) >= _SIGN_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = signs
    return signs


def negative_curves(model: SurfaceModel) -> list[CohClass]:
    """Irreducible curves of negative self-intersection on the model.

    Empty for the plane and the quadric (whose cone is carried by the two
    rulings, checked separately); exhaustive (-1)-class enumeration for
    general-position blow-ups.  For points on a cubic: the exceptional
    curves E_i, the lines H - E_i - E_j and, for k >= 10, the cubic's proper
    transform -K.  That list holds no conic or other (-1)-class of degree
    >= 2, so it is not exhaustive: 10H - 21/5 (E1 + ... + E5) passes on
    five points of a cubic, though the conic 2H - E1 - ... - E5 pairs to -1
    with it.
    """
    return list(_curves_for(model))


def positively_proportional(x: CohClass, y: CohClass) -> bool:
    """x = t*y for some rational t > 0.  Two rational classes are compared on
    the integer numerators of their cleared forms, by cross-multiplication
    and one sign test; a class with a Q(sqrt(d)) coefficient goes through
    scalars.ratio_of."""
    if x.rank != y.rank:
        return False
    fx, fy = x.cleared_form, y.cleared_form
    if fx is None or fy is None:
        return x.positive_ratio(y) is not None
    terms = ratio_terms(fx[0], fy[0])
    return terms is not None and terms[0] * terms[1] > 0


def is_kahler(
    model: SurfaceModel, f: CohClass, witness: Optional[CohClass] = None
) -> ConeCertificate:
    """Certified cone membership for the class f.  The sign of each curve
    pairing is read from integer dots against the model's cached rows: for
    a rational f = n/d the sign of n.(G.n_C), for f = (n + m sqrt(d)) / den
    the sign of p + q sqrt(d) from the two dots p = n.(G.n_C) and
    q = m.(G.n_C), decided on integers; either is memoised on the primitive
    vector (_curve_signs).  A class mixing two radicands, or paired with a
    curve in another Q(sqrt(e)), raises MixedFieldError.  The verdict reads
    those signs with Q(F,F) and the ample pairing, which are computed on
    every call; the curve values are rendered only when curve_checks is
    read."""
    if not isinstance(model, SurfaceModel):
        raise CytForgeError("cone checks need a full lattice model")
    if f.rank != model.rank:
        raise RankMismatch(f"rank {f.rank} class on a rank-{model.rank} model")
    self_int = intersect(model, f, f)
    self_sign = exact_sign(self_int)

    curves, rows, surds, memo = _curve_rows(model)
    form = f.cleared_form
    n, m, d = (form[0], None, None) if form is not None else f.surd_form[:3]
    signs = _curve_signs(n, m, d, rows, surds, memo)

    if witness is not None:
        source = "user"
    else:
        witness = model.ample_witness
        source = "model"
        if witness is None:
            raise MissingAmpleWitness(f"{model.name} carries no ample witness")
    ample_value = intersect(model, f, witness)
    ample_sign = exact_sign(ample_value)

    return ConeCertificate(
        self_intersection=self_int,
        self_sign=self_sign,
        ample_witness=witness,
        ample_value=ample_value,
        ample_sign=ample_sign,
        witness_source=source,
        anticanonical_ray=(
            model.curve_regime == REGIME_ENUMERATE
            and positively_proportional(f, model.c1)
        ),
        verdict=self_sign > 0 and min(signs, default=1) > 0 and ample_sign > 0,
        model=model,
        kahler_class=f,
        curves=curves,
        curve_signs=signs,
    )
