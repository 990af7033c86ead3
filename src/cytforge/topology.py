"""Topology of the total space of a 2-torus bundle, as one certificate per
bundle (topology_certificate): pairing witnesses, the second-page and
third-page rank tables of the fibration's spectral sequence, Betti numbers,
spin checks, and the diffeomorphism-type label for simply connected spin
total spaces with torsion-free cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd
from typing import Optional, Sequence

from .cyt import BundleSpec, c1_bundle_triviality
from .errors import HypothesesNotMet, InvariantViolation, WrongFiberRank
from .intlinalg import IntegerSolver, gf2_in_span
from .surfaces import CohClass, SurfaceModel

UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class SpectralTables:
    """Rank tables, rows q = 0, 1, 2 and columns p = 0..4.  The sequence
    degenerates at the third page; Betti numbers are the anti-diagonal sums."""

    e2: tuple[tuple[int, ...], ...]
    e3: tuple[tuple[int, ...], ...]
    betti: tuple[int, ...]


@dataclass(frozen=True)
class TopologyCertificate:
    """The topology verdict for a bundle with two curvature classes.
    basis_extension, simply_connected_surrogate, spin_mod2 and diffeo_label
    are decided when it is built.  pairing_snf, alpha, beta and
    spin_integral are rendered on first read from one IntegerSolver of the
    pairing matrix, kept; its d1*d2 must equal minors_gcd, else
    InvariantViolation.  tables is rendered from the decided verdict: None
    unless the witnesses exist.  Witnesses imply basis extension: by
    Cauchy-Binet each 2x2 minor of P = W G is an integer combination of
    those of W, so gcd(W) divides gcd(P) = 1."""

    basis_extension: bool
    simply_connected_surrogate: bool
    spin_mod2: bool
    diffeo_label: str
    bundle: BundleSpec = field(repr=False)
    pairing: tuple[tuple[int, ...], ...] = field(repr=False)
    minors_gcd: int = field(repr=False)

    @cached_property
    def _solver(self) -> IntegerSolver:
        solver = IntegerSolver(self.pairing)
        diag = solver.diagonal
        product = diag[0] * diag[1] if len(diag) == 2 else 0  # one column: no 2x2 minor
        if product != self.minors_gcd:
            raise InvariantViolation(
                f"pairing matrix with invariant factors {diag}, "
                f"but the gcd of its 2x2 minors is {self.minors_gcd}"
            )
        return solver

    @cached_property
    def pairing_snf(self) -> tuple[int, ...]:
        return self._solver.diagonal

    @cached_property
    def _alpha_beta(self) -> tuple[Optional[CohClass], Optional[CohClass]]:
        # the pairing map hits both unit vectors iff it is onto Z^2, i.e. iff
        # its invariant factors are (1, 1); then every target is solvable
        solver = self._solver
        if solver.diagonal != (1, 1):
            return None, None
        return CohClass.of(solver.solve([1, 0])), CohClass.of(solver.solve([0, 1]))

    @property
    def alpha(self) -> Optional[CohClass]:
        return self._alpha_beta[0]

    @property
    def beta(self) -> Optional[CohClass]:
        return self._alpha_beta[1]

    @cached_property
    def spin_integral(self) -> bool:
        """c1 in the span of the curvature classes: when G is nondegenerate,
        iff c1 G lies in the row span of P, read off the same solver; a
        degenerate G falls back to c1_bundle_triviality."""
        base = self.bundle.base
        if all(base.gram_factors):
            return self._solver.in_row_space(base.gram_row(base.c1.as_int_vector()))
        return c1_bundle_triviality(self.bundle)

    @cached_property
    def tables(self) -> Optional[SpectralTables]:
        if self.simply_connected_surrogate:
            return _tables_for_rank(self.bundle.base.rank)
        return None


@lru_cache(maxsize=None)
def _tables_for_rank(b: int) -> SpectralTables:
    e2 = (
        (1, 0, b, 0, 1),
        (2, 0, 2 * b, 0, 2),
        (1, 0, b, 0, 1),
    )
    e3 = (
        (1, 0, b - 2, 0, 0),
        (0, 0, 2 * b - 2, 0, 0),
        (0, 0, b - 2, 0, 1),
    )
    betti = tuple(
        sum(e3[q][p] for q in range(3) for p in range(5) if p + q == total)
        for total in range(7)
    )
    return SpectralTables(e2=e2, e3=e3, betti=betti)


def diffeo_label_for(b2_of_total: int) -> str:
    m = b2_of_total
    if m == 0:
        return "S³×S³"
    return f"{m}(S²×S⁴) # {m + 1}(S³×S³)"


def _minors_gcd(rows: Sequence[Sequence[int]]) -> int:
    """gcd of the 2x2 minors of a 2 x n integer matrix, which is d1*d2 for
    its invariant factors; 0 when n < 2.  Stops at 1."""
    a, b = rows
    g = 0
    for i, (ai, bi) in enumerate(zip(a, b)):
        if ai or bi:
            for aj, bj in zip(a[i + 1 :], b[i + 1 :]):
                g = gcd(g, ai * bj - aj * bi)
                if g == 1:
                    return 1
    return g


def topology_certificate(bundle: BundleSpec) -> TopologyCertificate:
    """Assemble the topology verdict.  The diffeomorphism label is emitted
    only when the surrogate for simple connectivity and the mod-2 spin check
    hold; the surrogate gives the pairing witnesses and basis extension with
    it.  Otherwise the label is "unclassified".

    The simple-connectivity surrogate (pairing matrix of SNF diag(1,1)) stands
    in for the sphere-representative argument, which is not decidable from
    lattice data; it agrees with it on every built-in example.

    The verdict is decided on integers, from gcds of 2x2 minors, with no
    Smith normal form.  P = W G (rows Q(w_l, .)) has invariant factors
    (1, 1) iff the gcd of its 2x2 minors is 1, which is the surrogate, and
    pairing witnesses exist iff it holds.  W extends to a Z-basis iff the
    gcd of its own 2x2 minors is 1.  By Cauchy-Binet each 2x2 minor of P is
    an integer combination of those of W, so gcd(W) divides gcd(P): the
    surrogate implies basis extension.  On a unimodular G, W = P G^-1 is
    integral too, so the gcds are equal: W's minors are read only off a Gram
    that is not unimodular.  spin_mod2 is gf2_in_span: c1 is 0, w1, w2 or
    w1 + w2 mod 2, the bit masks the search's spin stage compares too.  The
    Smith normal form of P, the witnesses alpha and beta, spin_integral and
    the tables are rendered when first read (see TopologyCertificate).
    """
    base = bundle.base
    if not isinstance(base, SurfaceModel):
        raise HypothesesNotMet(
            "full_lattice_model",
            f"{base.name} declares pairings only; its witnesses are assumed, not computed",
        )
    if not base.simply_connected:
        raise HypothesesNotMet("simply_connected_base", f"{base.name} is not simply connected")
    if len(bundle.curvatures) != 2:
        raise WrongFiberRank(f"{len(bundle.curvatures)} curvature classes; need exactly 2")
    # BundleSpec keeps the curvatures integral and of the base's rank
    vectors = [w.cleared_form[0] for w in bundle.curvatures]
    pairing = [base.gram_row(v) for v in vectors]  # rows Q(w_l, .)
    minors_gcd = _minors_gcd(pairing)
    surrogate = minors_gcd == 1
    spin_mod2 = gf2_in_span(base.c1.as_int_vector(), *vectors)
    return TopologyCertificate(
        basis_extension=surrogate or not base.unimodular and _minors_gcd(vectors) == 1,
        simply_connected_surrogate=surrogate,
        spin_mod2=spin_mod2,
        diffeo_label=diffeo_label_for(base.rank - 2) if surrogate and spin_mod2 else UNCLASSIFIED,
        bundle=bundle,
        pairing=tuple(map(tuple, pairing)),
        minors_gcd=minors_gcd,
    )
