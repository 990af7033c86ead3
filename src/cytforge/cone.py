"""Kaehler-cone membership via the Nakai-Moishezon-style conditions: positive
self-intersection, positivity against every irreducible curve of negative
self-intersection, and positivity against an ample witness.  Every inequality
is decided by exact sign computation and recorded in a certificate.

The model owns the curves a class is checked against: an integral list
(`SurfaceModel.cone_curves`), the integer Gram row G.n_C of each curve and
a sign memo (`SurfaceModel.cone_rows`).  This module keeps the sign kernel.
For a rational class F = n/d, d > 0, the sign of F.C is the sign of the dot
product n.(G.n_C).  A class with Q(sqrt(d)) coefficients,
F = (n + m sqrt(d)) / den, pairs with a curve as p + q sqrt(d) with
p = n.(G.n_C) and q = m.(G.n_C), two integer dots over den, and its sign is
decided on integers from the signs of p and q, or else by comparing p^2
with q^2 d (`scalars.surd_sign`).  The signs depend only on the direction
of n (of (n, m) for a Q(sqrt(d)) class), so the memo keys them on the
primitive vector; a search certifying s * R for many scales s computes them
once per ray.  It certifies each solved class once, and its recheck of
every pair on that class reads that certificate.
Q(F,F) and the ample-witness pairing are one `intersect` call each, on every
call.  The per-curve values of a certificate are rendered on first read of
`curve_checks`, one `intersect` call per curve: for a rational class an
integer dot over F's denominator, against a Gram row `intersect` builds
from the model's Gram matrix, never read from `cone_rows`, so each value's
sign is an independent check of the sign the verdict read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import CytForgeError, InvariantViolation, MissingAmpleWitness, RankMismatch
from .scalars import Scalar, exact_div, exact_sign, is_rational, ratio_terms, surd_sign
from .surfaces import REGIME_ENUMERATE, REGIME_RULINGS, CohClass, SurfaceModel, intersect


class CurveCheck(NamedTuple):
    """One rendered pairing F.C: a tuple, which builds faster than a frozen
    dataclass, and a cone certificate on k = 8 holds 240 of them."""

    curve: CohClass
    value: Scalar
    sign: int


@dataclass(frozen=True)
class ConeCertificate:
    """The cone verdict for kahler_class and what it was checked against.

    curve_signs holds the sign of F.C for each curve, in order.  The
    CurveCheck values are rendered on first read of curve_checks, one
    `intersect` call per curve (which does not read the model's cone_rows),
    and kept; a value whose exact sign disagrees with curve_signs raises
    InvariantViolation.  A verdict read alone renders nothing."""

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


_Rows = tuple[tuple[int, ...], ...]
_SIGN_MEMO_SIZE = 8  # sign vectors kept per model; the oldest goes first


def _row_signs(n: Sequence[int], m: Optional[Sequence[int]], d: Optional[int], rows: _Rows) -> tuple[int, ...]:
    """The sign of (n + m sqrt(d)).G.C for each curve row, on integers: one
    dot per row for a rational class, two and surd_sign for a Q(sqrt(d))
    class."""
    if m is None:
        return tuple([(v > 0) - (v < 0) for v in [sum(map(mul, n, row)) for row in rows]])
    return tuple(surd_sign(sum(map(mul, n, row)), sum(map(mul, m, row)), d) for row in rows)


def _curve_signs(
    n: Sequence[int], m: Optional[Sequence[int]], d: Optional[int], rows: _Rows, memo: dict
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
        signs = _row_signs(n, m, d, rows)
        if len(memo) >= _SIGN_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = signs
    return signs


def negative_curves(model: SurfaceModel) -> list[CohClass]:
    """Irreducible curves of negative self-intersection on the model, the
    objects its cone check pairs with: `SurfaceModel.cone_curves`, less the
    quadric's rulings, which are null.

    Empty for the plane and the quadric (whose cone is carried by the two
    rulings, checked separately); exhaustive (-1)-class enumeration for
    general-position blow-ups and for k <= 8 points on a cubic, a del Pezzo
    surface, so 10H - 21/5 (E1 + ... + E5) on five points of a cubic fails
    against the conic 2H - E1 - ... - E5.  For k >= 9 points on a cubic:
    the exceptional curves E_i, the lines H - E_i - E_j and, for k >= 10,
    the cubic's proper transform -K.  That list holds no conic or other
    (-1)-class of degree >= 2, so it is not exhaustive.
    """
    return [] if model.curve_regime == REGIME_RULINGS else list(model.cone_curves)


def positively_proportional(x: CohClass, y: CohClass) -> bool:
    """x = t*y for some rational t > 0, by one ratio_terms call on the
    cleared numerators of a rational class or the coefficients of a
    Q(sqrt(d)) class; t's sign is that of a product of rational terms."""
    if x.rank != y.rank:
        return False
    fx, fy = x.cleared_form, y.cleared_form
    terms = ratio_terms(fx[0] if fx else x.coeffs, fy[0] if fy else y.coeffs)
    if terms is None:
        return False
    a, b = terms
    t = a * b if is_rational(a) and is_rational(b) else exact_div(a, b)
    return is_rational(t) and t > 0


def is_kahler(
    model: SurfaceModel, f: CohClass, witness: Optional[CohClass] = None
) -> ConeCertificate:
    """Certified cone membership for the class f.  The sign of each curve
    pairing is read from integer dots against the Gram rows of the model's
    integral curves (`SurfaceModel.cone_rows`): for a rational f = n/d the
    sign of n.(G.n_C), for f = (n + m sqrt(d)) / den the sign of
    p + q sqrt(d) from the two dots p = n.(G.n_C) and q = m.(G.n_C),
    decided on integers; either is memoised on the primitive vector in the
    model's memo (_curve_signs).  A class mixing two radicands raises
    MixedFieldError.  The verdict reads those signs with Q(F,F) and the
    ample pairing, which are computed on every call; the curve values are
    rendered only when curve_checks is read."""
    if not isinstance(model, SurfaceModel):
        raise CytForgeError("cone checks need a full lattice model")
    if f.rank != model.rank:
        raise RankMismatch(f"rank {f.rank} class on a rank-{model.rank} model")
    self_int = intersect(model, f, f)
    self_sign = exact_sign(self_int)

    rows, memo = model.cone_rows
    n, m, d = f.surd_form[:3]
    signs = _curve_signs(n, m, d, rows, memo)

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
        curves=model.cone_curves,
        curve_signs=signs,
    )
