"""Strong-KT condition at lattice level, and the Hodge-index diagnostic.

The necessary condition for the torsion three-form to close is that the
self-intersections of the curvature classes sum to zero.  The diagnostic
splits each class against a Kaehler class F as trace part plus F-orthogonal
part p; on a surface, nonzero p forces Q(p, p) < 0, which is why an
all-primitive nonzero curvature tuple can never satisfy the zero-sum
condition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .cone import is_kahler
from .cyt import BundleSpec, _traced_sum
from .errors import NotKahler
from .scalars import Scalar
from .surfaces import CohClass, SurfaceModel, intersect


@dataclass(frozen=True)
class HodgeRow:
    omega: CohClass
    trace_coefficient: Scalar  # Q(w,F)/Q(F,F), half the trace
    primitive_part: CohClass
    primitive_square: Scalar


@dataclass(frozen=True)
class SktReport:
    per_class_squares: tuple[Scalar, ...]
    total: Scalar
    verdict: bool
    hodge: Optional[tuple[HodgeRow, ...]] = None
    all_primitive_obstruction: Optional[bool] = None


def verify_skt(bundle: BundleSpec) -> SktReport:
    """Zero-sum check on the curvature self-intersections.  This certifies
    the necessary lattice condition; the metric construction making it
    sufficient is assumed, and certificates say so."""
    squares = tuple(intersect(bundle.base, w, w) for w in bundle.curvatures)
    total: Scalar = 0
    for q in squares:
        total = total + q
    return SktReport(per_class_squares=squares, total=total, verdict=(total == 0))


def hodge_obstruction(bundle: BundleSpec, f: CohClass) -> SktReport:
    """verify_skt's report with each curvature class decomposed against the
    Kaehler class f and its primitive square.  When every class is
    trace-free and some class is nonzero, the total is strictly negative, so
    the zero-sum condition is unreachable on this base with this f."""
    base = bundle.base
    if not isinstance(base, SurfaceModel):
        raise NotKahler("cone membership undecidable on a pairing-functional model")
    if not is_kahler(base, f).verdict:
        raise NotKahler("f is not certified Kaehler")
    rows = []
    for w, lam in zip(bundle.curvatures, _traced_sum(bundle, f).lambdas):
        c = lam / 2
        p = w - c * f if c != 0 else w
        rows.append(HodgeRow(w, c, p, intersect(base, p, p)))
    return replace(
        verify_skt(bundle),
        hodge=tuple(rows),
        all_primitive_obstruction=(
            all(r.trace_coefficient == 0 for r in rows)
            and not all(w.is_zero() for w in bundle.curvatures)
        ),
    )
