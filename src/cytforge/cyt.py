"""Torsion Calabi-Yau condition for 2-torus bundles over surfaces, at the
level of cohomology classes.

For a Kaehler class F on a surface base, the trace of a harmonic (1,1)-class
w is the constant 2 Q(w,F)/Q(F,F).  The bundle with curvature (w_1, ..., w_2k)
carries the sought structure when the defect class

    c_1(X) - sum_l trace(w_l) * w_l

vanishes and F lies in the Kaehler cone.  Three solution routes are provided:
scale-solving along a ray, the Einstein/primitive route, and the symmetric
ansatz on blow-ups at k >= 9 points of a cubic, whose scale equation

    (3k - 28) n^2 + (112 - 4k) n - (20k + 64) = 0

is solved exactly in Q or Q(sqrt(d)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Iterable, Optional

from . import intlinalg
from .cone import ConeCertificate, is_kahler, positively_proportional
from .errors import InvalidBundle, InvariantViolation, NotPositiveRay, NullClass, RankMismatch
from .scalars import Scalar, exact_div, exact_sign, is_rational, quadratic, ratio_terms, solve_quadratic
from .surfaces import (
    CohClass,
    Model,
    PairingFunctionalModel,
    SurfaceModel,
    blowup_cp2,
    intersect,
    surd_dot,
)

BASE_COMPLEX_DIMENSION = 2  # all built-in bases are surfaces


@dataclass(frozen=True)
class BundleSpec:
    """A principal 2k-torus bundle: base model plus ordered integral curvature
    classes.  Zero classes are permitted; the count must be even."""

    base: Model
    curvatures: tuple[CohClass, ...]

    def __post_init__(self):
        if len(self.curvatures) == 0 or len(self.curvatures) % 2 != 0:
            raise InvalidBundle(f"{len(self.curvatures)} curvature classes; need an even count")
        for w in self.curvatures:
            if w.rank != self.base.rank:
                raise InvalidBundle("curvature class rank does not match the base")
            if not w.is_integral():
                raise InvalidBundle("curvature classes must be integral")


class _Traces:
    """The traces of the curvature classes against f = n/d, from their
    pairings t_l = Q(w_l, n) and nn = Q(n, n):

        nums[l] = 2 d t_l,   summed = sum(nums[l] * w_l),

    trace_l = nums[l] / nn, the traced sum is summed / nn and Q(f,f) = nn / d^2.
    With c1 = m / e the defect vanishes iff e * summed == nn * m.  The same
    formulas run on integers for a rational f on a SurfaceModel, and on the
    canonical scalars of the integer pairs p + q sqrt(r) for a Q(sqrt(r))
    class f = (n + m sqrt(r)) / d.  lambdas and traced are rendered on first
    read.  NullClass when nn = 0, before a pairing is read: a pairing
    table may leave an entry of a later pairing undeclared."""

    def __init__(self, bundle: BundleSpec, pairings: Iterable[Scalar], nn: Scalar, d: int):
        if nn == 0:
            raise NullClass("Q(F,F) = 0")
        self.bundle, self.nn = bundle, nn
        self.nums = [BASE_COMPLEX_DIMENSION * d * t for t in pairings]
        # every curvature class is integral, so its cleared form has d = 1
        ns = [w.cleared_form[0] for w in bundle.curvatures]
        self.summed = [sum(map(mul, self.nums, col)) for col in zip(*ns)]
        self.trace_free = tuple(t == 0 for t in self.nums)

    @cached_property
    def lambdas(self) -> tuple[Scalar, ...]:
        return tuple(exact_div(t, self.nn) for t in self.nums)

    @cached_property
    def traced(self) -> CohClass:
        if not any(self.nums):
            return CohClass.zero(self.bundle.base.rank)
        return CohClass(tuple(exact_div(s, self.nn) for s in self.summed))

    def ff_sign(self) -> int:
        return exact_sign(self.nn)

    def defect_zero(self) -> bool:
        c1, nn = self.bundle.base.c1, self.nn
        m, e = c1.cleared_form or (c1.coeffs, 1)
        return all(e * s == nn * x for s, x in zip(self.summed, m))

    def scale(self) -> Optional[Scalar]:
        """The rational t > 0 with summed / nn = t * m / e, from summed = (a/b) * m."""
        c1 = self.bundle.base.c1
        m, e = c1.cleared_form or (c1.coeffs, 1)
        terms = ratio_terms(self.summed, m)
        if terms is None:
            return None
        t = exact_div(e * terms[0], self.nn * terms[1])
        return t if is_rational(t) and t > 0 else None


def _traced_sum(bundle: BundleSpec, f: CohClass) -> _Traces:
    """The traces of the curvature classes against f; NullClass when Q(f,f)
    = 0.  On a SurfaceModel a rational f = n/d pairs through one Gram row
    G n, on integers.  A class f = (n + m sqrt(d)) / den pairs through the
    two rows G n and G m: each curvature w gives w.Gn + (w.Gm) sqrt(d), two
    integer dots, and Q(F,F) is n.Gn + d m.Gm + 2 (n.Gm) sqrt(d) over den^2,
    each read as one canonical scalar.  A pairing table pairs class by
    class.  Every CYT reader takes Q(F,F), the traces and the defect test
    from here."""
    base = bundle.base
    if f.rank != base.rank:
        raise RankMismatch(f"classes of rank {f.rank}/{f.rank} on a rank-{base.rank} model")
    if not isinstance(base, SurfaceModel):
        pairings = (intersect(base, w, f) for w in bundle.curvatures)  # read after the nn test
        return _Traces(bundle, pairings, intersect(base, f, f), 1)
    form = f.cleared_form
    ws = [w.cleared_form[0] for w in bundle.curvatures]
    if form is not None:
        n, d = form
        row = base.gram_row(n)
        return _Traces(bundle, [sum(map(mul, w, row)) for w in ws], sum(map(mul, n, row)), d)
    n, m, r, d = f.surd_form
    rows = base.gram_row(n), base.gram_row(m), r
    pairings = [quadratic(*surd_dot(w, None, None, *rows)) for w in ws]
    return _Traces(bundle, pairings, quadratic(*surd_dot(n, m, r, *rows)), d)


@dataclass(frozen=True)
class CytCertificate:
    """The CYT verdict for kahler_class.  defect_zero, cone, solved_scale,
    reason and verdict are decided when it is built; lambdas and defect are
    rendered from the traces on first read and kept.  A rendered defect
    whose vanishing disagrees with defect_zero raises InvariantViolation."""

    kahler_class: CohClass
    defect_zero: bool
    curvatures_integral: bool
    cone: Optional[ConeCertificate]
    solved_scale: Optional[Scalar]  # flagged when the defect vanishes at another scale
    reason: Optional[str]
    verdict: bool
    bundle: BundleSpec = field(repr=False)
    # what lambdas and defect are rendered from; None for a null class
    traces: Optional[_Traces] = field(repr=False, compare=False)

    @cached_property
    def lambdas(self) -> tuple[Scalar, ...]:
        return self.traces.lambdas

    @cached_property
    def defect(self) -> CohClass:
        defect = self.bundle.base.c1 - self.traces.traced
        if defect.is_zero() != self.defect_zero:
            raise InvariantViolation(
                f"rendered defect {defect.serialize()} against defect_zero={self.defect_zero} "
                f"from the integer numerators"
            )
        return defect


def verify_cyt(bundle: BundleSpec, f: CohClass) -> CytCertificate:
    """Full certificate: defect vanishing and cone membership.  Failures are
    verdicts, not errors.  The defect test compares sum nums_l w_l against
    nn c1, on integers for a rational f on a lattice model, and the cone
    verdict reads the signs of the curve rows; the traces and the defect
    class are rendered only when read.
    BundleSpec admits integral curvatures only, so curvatures_integral is
    always true."""
    return cyt_certificate(bundle, f, None)


def cyt_certificate(bundle: BundleSpec, f: CohClass, cone: Optional[ConeCertificate]) -> CytCertificate:
    """verify_cyt's certificate, reading cone, when given, in place of
    is_kahler(bundle.base, f): one cone check for every bundle on a solved
    class.  A cone of another class object or model raises
    InvariantViolation."""
    base = bundle.base
    if cone is not None and (cone.kahler_class is not f or cone.model is not base):
        raise InvariantViolation("a cone certificate handed in is not the one of this class on this model")
    try:
        traces = _traced_sum(bundle, f)
    except NullClass:
        cert = CytCertificate(
            kahler_class=f,
            defect_zero=False,
            curvatures_integral=True,
            cone=None,
            solved_scale=None,
            reason="null_class",
            verdict=False,
            bundle=bundle,
            traces=None,
        )
        cert.__dict__.update(lambdas=(), defect=base.c1)  # nothing to render
        return cert
    defect_zero = traces.defect_zero()
    if cone is None and isinstance(base, SurfaceModel):
        cone = is_kahler(base, f)
    verdict = defect_zero and cone is not None and cone.verdict

    solved_scale = None
    if not defect_zero and cone is not None and traces.ff_sign() > 0:
        # flag when the given class solves the condition only after rescaling
        solved_scale = traces.scale()

    reason = None
    if not verdict:
        if not defect_zero:
            reason = "defect_nonzero"
        elif cone is None:
            reason = "no_cone_data"
        else:
            reason = "not_kahler"
    return CytCertificate(
        kahler_class=f,
        defect_zero=defect_zero,
        curvatures_integral=True,
        cone=cone,
        solved_scale=solved_scale,
        reason=reason,
        verdict=verdict,
        bundle=bundle,
        traces=traces,
    )


def solve_scale(bundle: BundleSpec, ray: CohClass) -> Optional[Scalar]:
    """The unique s > 0 with vanishing defect at s * ray, when the traced
    curvature sum along the ray is a nonzero rational multiple of c1; None
    otherwise (including c1 = 0 with a nonzero sum): one ratio test of the
    traces' summed against c1's numerators, then one division for s."""
    try:
        traces = _traced_sum(bundle, ray)
    except NullClass:
        traces = None
    if traces is None or traces.ff_sign() <= 0:
        raise NotPositiveRay("ray needs positive self-intersection")
    return traces.scale()


@dataclass(frozen=True)
class AnsatzSolution:
    """Symmetric-ansatz solution on the blow-up at k >= 9 points of a cubic:
    Kaehler class n H - sum(n_l E_l) with the first four multiplicities equal
    to (n+2)/4 and the rest to (2n-6)/(k-4)."""

    k: int
    n: Scalar
    n_first4: Scalar
    n_rest: Scalar
    kahler_class: CohClass
    omega1: CohClass
    omega2: CohClass
    cone: ConeCertificate


def ansatz_curvatures(k: int) -> tuple[CohClass, CohClass]:
    """The curvature pair 4H - 2(E1+..+E4) - (E5+..+Ek), -H + E1+..+E4."""
    w1 = CohClass.of([4] + [-2] * 4 + [-1] * (k - 4))
    w2 = CohClass.of([-1] + [1] * 4 + [0] * (k - 4))
    return w1, w2


def solve_symmetric_ansatz(k: int) -> Optional[AnsatzSolution]:
    """Solve the ansatz for k >= 9; None when no root gives a cone class with
    n > 3, and for k = 1..8.  The smallest qualifying root is chosen.  Any
    other k raises InvalidPosition, as blowup_cp2 does."""
    base = blowup_cp2(k, "on_cubic" if k >= 9 else None)
    if k < 9:
        return None
    w1, w2 = ansatz_curvatures(k)
    roots = solve_quadratic(3 * k - 28, 112 - 4 * k, -(20 * k + 64))
    for n in roots:  # ascending, so the first qualifying root is the smallest
        if exact_sign(n - 3) != 1:
            continue
        n_first4 = exact_div(n + 2, 4)
        n_rest = exact_div(2 * n - 6, k - 4)
        f = CohClass((n,) + (-n_first4,) * 4 + (-n_rest,) * (k - 4))
        cone_cert = is_kahler(base, f)
        if not cone_cert.verdict:
            continue
        pairings = (intersect(base, f, f), intersect(base, w1, f), intersect(base, w2, f))
        if pairings != (4, 2, 2):
            raise InvariantViolation(f"ansatz pairings {pairings} at k={k}, expected (4, 2, 2)")
        return AnsatzSolution(
            k=k,
            n=n,
            n_first4=n_first4,
            n_rest=n_rest,
            kahler_class=f,
            omega1=w1,
            omega2=w2,
            cone=cone_cert,
        )
    return None


def c1_bundle_triviality(bundle: BundleSpec) -> bool:
    """True iff c1 of the base lies in the Z-span of the curvature classes,
    i.e. the total space has trivial first Chern class."""
    base = bundle.base
    cols = [w.as_int_vector() for w in bundle.curvatures]
    mat = [[col[i] for col in cols] for i in range(base.rank)]
    return intlinalg.solve_integer_linear(mat, base.c1.as_int_vector()) is not None


def balanced_check(bundle: BundleSpec, f: CohClass) -> bool:
    """True iff every curvature class has vanishing trace against f.  On a
    pairing-functional model this reads the declared products directly."""
    base = bundle.base
    if isinstance(base, PairingFunctionalModel):
        return all(intersect(base, w, f) == 0 for w in bundle.curvatures)
    return all(_traced_sum(bundle, f).trace_free)


def primitive_route_check(bundle: BundleSpec, f: CohClass) -> bool:
    """The Einstein-base route: first curvature a positive rational multiple
    of f, all later ones trace-free, and c1 a positive rational multiple of f
    (the cohomological stand-in for positive Einstein normalization)."""
    trace_free = _traced_sum(bundle, f).trace_free
    return (
        positively_proportional(bundle.curvatures[0], f)
        and all(trace_free[1:])
        and positively_proportional(bundle.base.c1, f)
    )
