"""Base-surface models: H^2(X, Z) as a based lattice with intersection form,
anti-canonical class, and negative-curve data, plus the class arithmetic and
integer-lattice services every other module consumes.

Built-in models: the projective plane, the smooth quadric, blow-ups of the
plane at k points (general position for k <= 8, points on a cubic for k >= 2),
and a Kummer-surface fragment given by a partial pairing table.

A lattice model owns its curves, cached on it and freed with it: the
integral list its regime gives (`SurfaceModel.cone_curves`), and their Gram
rows with the cone check's sign memo (`SurfaceModel.cone_rows`).  Every
model also keeps the certificate text that depends on it alone
(`SurfaceModel.certificate_store`).

Pairings on a lattice model run on integer Gram rows: a rational class
caches its cleared form (integer numerators over the least common
denominator), a class with Q(sqrt(d)) coefficients its surd form (n + m
sqrt(d)) / den with integer vectors n and m, and `SurfaceModel.gram_row` is
the one Gram product.  `intersect` dots a cleared form with one row, and a
surd form with the rows of n and m (`surd_dot`: two integer dot products
per side); the CYT traces and the cone signs read the same rows, and the
topology pairing matrix and the search's ray functional are rows of it.
Only the two forms read coefficient types: integrality and int vectors read
the cleared numerators.  Pairing-table models keep the exact scalar loop.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import Optional, Sequence, Union

from . import intlinalg
from .errors import (
    CytForgeError,
    InvalidPosition,
    MissingCurveData,
    MixedFieldError,
    NonSymmetricGram,
    RankMismatch,
    ScalarParseError,
    UndeclaredPairing,
    ZeroClass,
)
from .scalars import QuadraticNumber, Scalar, format_scalar, parse_scalar, quadratic


@dataclass(frozen=True)
class CohClass:
    """A degree-2 class as a coefficient vector over a model's ordered basis.

    A rational class also carries its cleared form, a class with Q(sqrt(d))
    coefficients its surd form, and every class its exact scalar text; each
    is computed on first use and kept out of equality, hashing and
    pickles.  On a lattice model a rational class pairs as one integer dot
    over its denominator, a Q(sqrt(d)) class as two (`surd_dot`)."""

    coeffs: tuple[Scalar, ...]

    @cached_property
    def cleared_form(self) -> Optional[tuple[tuple[int, ...], int]]:
        """(n, d) with coeffs = n / d: integer numerators over the least
        common denominator; None when a coefficient is irrational."""
        den = 1
        for c in self.coeffs:
            if isinstance(c, Fraction):
                den = lcm(den, c.denominator)
            elif not isinstance(c, int):
                return None
        return tuple(
            c.numerator * (den // c.denominator) if isinstance(c, Fraction) else c * den
            for c in self.coeffs
        ), den

    @cached_property
    def surd_form(self) -> tuple[tuple[int, ...], Optional[tuple[int, ...]], Optional[int], int]:
        """(n, m, d, den) with coeffs = (n + m sqrt(d)) / den: integer vectors
        n and m, the one radicand d of the irrational coefficients and den
        the least positive common denominator.  A rational class has m and
        d None and its cleared form for n and den; MixedFieldError when the
        coefficients lie in two different Q(sqrt(d))."""
        form = self.cleared_form
        if form is not None:
            return form[0], None, None, form[1]
        d, den = None, 1
        for c in self.coeffs:
            if isinstance(c, QuadraticNumber):
                if d not in (None, c.d):
                    raise MixedFieldError(f"sqrt({d}) and sqrt({c.d}) in one class")
                d, den = c.d, lcm(den, c.a.denominator, c.b.denominator)
            elif isinstance(c, Fraction):
                den = lcm(den, c.denominator)
        parts = [(c.a, c.b) if isinstance(c, QuadraticNumber) else (c, 0) for c in self.coeffs]
        n, m = (tuple(x.numerator * (den // x.denominator) for x in xs) for xs in zip(*parts))
        return n, m, d, den

    def __getstate__(self) -> dict:
        return {"coeffs": self.coeffs}

    @staticmethod
    def of(values: Sequence) -> "CohClass":
        return CohClass(tuple(int(v) if isinstance(v, int) else v for v in values))

    @staticmethod
    def from_cleared(nums: tuple[int, ...], den: int = 1) -> "CohClass":
        """The class nums / den with its cleared form (nums, den) seeded, so
        no coefficient is read back: int coefficients when den is 1, else
        Fractions.  ValueError unless den > 0 and gcd(den, *nums) == 1."""
        if den <= 0 or gcd(den, *nums) != 1:
            raise ValueError(f"{den} is not the least positive denominator of {nums}")
        x = CohClass(nums if den == 1 else tuple(Fraction(v, den) for v in nums))
        x.__dict__["cleared_form"] = (nums, den)
        return x

    @staticmethod
    def zero(rank: int) -> "CohClass":
        return CohClass((0,) * rank)

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        if other.rank != self.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        return CohClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CohClass") -> "CohClass":
        if not isinstance(other, CohClass):
            return NotImplemented
        if other.rank != self.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        return CohClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CohClass":
        return CohClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar) -> "CohClass":
        return CohClass(tuple(scalar * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_integral(self) -> bool:
        form = self.cleared_form
        return form is not None and form[1] == 1

    def as_int_vector(self) -> list[int]:
        if not self.is_integral():
            raise ValueError("class is not integral")
        return list(self.cleared_form[0])

    @cached_property
    def text(self) -> tuple[str, ...]:
        """The coefficients in the exact scalar format."""
        return tuple(map(format_scalar, self.coeffs))

    def serialize(self) -> list[str]:
        """The coefficients in the exact scalar format, as a fresh list."""
        return list(self.text)

    @staticmethod
    def deserialize(items: Sequence[str]) -> "CohClass":
        return CohClass(tuple(parse_scalar(s) for s in items))


# negative-curve regimes
REGIME_NONE = "none"  # no curves of negative self-intersection
REGIME_RULINGS = "rulings"  # quadric: cone cut out by the two rulings
REGIME_ENUMERATE = "enumerate_neg1"  # del Pezzo: exhaustive (-1)-class enumeration
REGIME_ON_CUBIC = "on_cubic"  # blow-up along a cubic: (-1)-classes to k = 8, then explicit families
REGIME_EXPLICIT = "explicit"  # custom model with a user-supplied list


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


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    basis_labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    c1: CohClass
    curve_regime: str = REGIME_NONE
    curves: Optional[tuple[CohClass, ...]] = None
    ample_witness: Optional[CohClass] = None
    simply_connected: bool = True

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    @cached_property
    def _gram_diagonal(self) -> Optional[tuple[int, ...]]:
        """The diagonal of the Gram matrix when it has no other entries."""
        gram = self.gram
        if any(g for i, row in enumerate(gram) for j, g in enumerate(row) if i != j):
            return None
        return tuple(gram[i][i] for i in range(self.rank))

    def gram_row(self, v: Sequence[Scalar]) -> list[Scalar]:
        """G . v: the functional Q(v, .) as a row, of ints for an integer v."""
        diag = self._gram_diagonal
        if diag is not None:
            return list(map(mul, diag, v))
        return [sum(map(mul, row, v)) for row in self.gram]

    @cached_property
    def gram_factors(self) -> tuple[int, ...]:
        """Invariant factors of the Gram matrix, computed once per model: all
        1 iff the form is unimodular, none 0 iff it is nondegenerate."""
        return intlinalg.snf(self.gram).diagonal

    @cached_property
    def cone_curves(self) -> tuple[CohClass, ...]:
        """The curves a cone check pairs a class with, in certificate order,
        listed once per model: the two rulings on the quadric, else the
        negative curves of the regime.  Curves are integral: a listed curve
        with a fractional or Q(sqrt(d)) coefficient raises CytForgeError,
        and a custom model without a list MissingCurveData."""
        regime = self.curve_regime
        if regime == REGIME_NONE:
            return ()
        if regime == REGIME_RULINGS:
            return (CohClass.of([1, 0]), CohClass.of([0, 1]))
        if regime == REGIME_EXPLICIT:
            if self.curves is None:
                raise MissingCurveData(f"{self.name} has no negative-curve list")
            for c in self.curves:
                if not c.is_integral():
                    raise CytForgeError(f"{self.name}: the curve {c.serialize()} is not integral")
            return self.curves
        k = self.rank - 1
        # with k <= 8 points general on a smooth cubic the surface is del
        # Pezzo, whose negative curves are exactly its (-1)-classes
        if regime == REGIME_ENUMERATE or regime == REGIME_ON_CUBIC and k <= 8:
            vecs = _neg1_classes(k, degree_bound=6)
            return tuple(CohClass.of([a] + [-b for b in bs]) for a, *bs in vecs)
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
                curves.append(self.c1)  # proper transform of the cubic, class -K
            return tuple(curves)
        raise MissingCurveData(f"unknown curve regime {regime!r}")

    @cached_property
    def cone_rows(self) -> tuple[tuple[tuple[int, ...], ...], dict]:
        """The integer Gram rows G.n_C of cone_curves, in order, and the cone
        check's memo of sign vectors, built on the first cone check.  A
        curve of the wrong rank raises RankMismatch."""
        rows = []
        for c in self.cone_curves:
            if c.rank != self.rank:
                raise RankMismatch(f"classes of rank {self.rank}/{c.rank} on a rank-{self.rank} model")
            rows.append(tuple(self.gram_row(c.cleared_form[0])))
        return tuple(rows), {}

    @cached_property
    def certificate_store(self) -> dict:
        """What certificates render alike on this model, filled by the
        certificate writer on first use (`certificates.Certificate`)."""
        return {}

    def __post_init__(self):
        b = self.rank
        if len(self.gram) != b or any(len(row) != b for row in self.gram):
            raise NonSymmetricGram("gram shape does not match basis")
        for i in range(b):
            for j in range(b):
                if self.gram[i][j] != self.gram[j][i]:
                    raise NonSymmetricGram(f"gram[{i}][{j}] != gram[{j}][{i}]")
        if self.c1.rank != b:
            raise RankMismatch("c1 length does not match basis")
        labels = self.basis_labels
        if len(set(labels)) != b:
            label = next(x for i, x in enumerate(labels) if x in labels[:i])
            raise CytForgeError(f"model {self.name}: basis label {label!r} appears twice")


@dataclass(frozen=True)
class PairingFunctionalModel:
    """Classes known only through declared pairings against named generators.

    The table may leave entries undeclared (None); querying one raises
    UndeclaredPairing.  Used for the Kummer fragment, where only the sixteen
    rational curves' pairings and their products with a chosen Kaehler class
    are pinned down, not an ambient basis.
    """

    name: str
    basis_labels: tuple[str, ...]
    table: tuple[tuple[Optional[int], ...], ...]
    c1: CohClass = None  # type: ignore[assignment]
    simply_connected: bool = True

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def __post_init__(self):
        b = self.rank
        if len(self.table) != b or any(len(row) != b for row in self.table):
            raise NonSymmetricGram("pairing table shape does not match basis")
        for i in range(b):
            for j in range(b):
                if self.table[i][j] != self.table[j][i]:
                    raise NonSymmetricGram("pairing table is not symmetric")
        if self.c1 is None:
            object.__setattr__(self, "c1", CohClass.zero(b))

    @property
    def gram(self):
        return self.table

    @cached_property
    def certificate_store(self) -> dict:
        """What certificates render alike on this model, filled by the
        certificate writer on first use (`certificates.Certificate`)."""
        return {}


Model = Union[SurfaceModel, PairingFunctionalModel]


def surd_dot(
    n: Sequence[int], m: Optional[Sequence[int]], d: Optional[int],
    row_n: Sequence[int], row_m: Optional[Sequence[int]], e: Optional[int],
) -> tuple[int, int, Optional[int]]:
    """(p, q, r) with (n + m sqrt(d)) . (row_n + row_m sqrt(e)) = p + q sqrt(r),
    on integers: two dot products when one side is rational (m or row_m
    None), four when both lie in one Q(sqrt(d)).  MixedFieldError when they
    lie in two."""
    p = sum(map(mul, n, row_n))
    if row_m is None:
        return (p, 0, None) if m is None else (p, sum(map(mul, m, row_n)), d)
    if m is None:
        return p, sum(map(mul, n, row_m)), e
    if d != e:
        raise MixedFieldError(f"sqrt({d}) and sqrt({e}) do not mix")
    return p + d * sum(map(mul, m, row_m)), sum(map(mul, n, row_m)) + sum(map(mul, m, row_n)), d


def intersect(model: Model, x: CohClass, y: CohClass) -> Scalar:
    """x . y under the model's intersection form, exactly.

    On a SurfaceModel two rational classes x = n_x / d_x and y = n_y / d_y
    pair as one integer dot product n_x . G n_y over d_x d_y, an int when
    both are integral.  When either has Q(sqrt(d)) coefficients, both are
    read in surd form, (n + m sqrt(d)) / den, and pair as p + q sqrt(d) with
    p = n_x.Gn_y + d m_x.Gm_y and q = n_x.Gm_y + m_x.Gn_y (`surd_dot`); the
    value is the canonical scalar quadratic(p/den, q/den, d), a Fraction
    when q = 0.  Pairing-table models take the scalar loop, which raises
    UndeclaredPairing on an entry the table leaves open."""
    b = len(model.basis_labels)
    if len(x.coeffs) != b or len(y.coeffs) != b:
        raise RankMismatch(f"classes of rank {x.rank}/{y.rank} on a rank-{b} model")
    if isinstance(model, SurfaceModel):
        fx, fy = x.cleared_form, y.cleared_form
        if fx is not None and fy is not None:
            dot = sum(map(mul, fx[0], model.gram_row(fy[0])))
            d = fx[1] * fy[1]
            return dot if d == 1 else Fraction(dot, d)
        nx, mx, rx, dx = x.surd_form
        ny, my, ry, dy = y.surd_form
        row_m = None if my is None else model.gram_row(my)
        p, q, r = surd_dot(nx, mx, rx, model.gram_row(ny), row_m, ry)
        return quadratic(Fraction(p, dx * dy), Fraction(q, dx * dy), r)
    gram = model.gram
    total: Scalar = 0
    for i, xi in enumerate(x.coeffs):
        if xi == 0:
            continue
        row = gram[i]
        for j, yj in enumerate(y.coeffs):
            if yj == 0:
                continue
            g = row[j]
            if g is None:
                li, lj = model.basis_labels[i], model.basis_labels[j]
                raise UndeclaredPairing(f"Q({li},{lj}) is not declared on {model.name}")
            if g:
                total = total + xi * g * yj
    return total


# -- built-in models ----------------------------------------------------


def projective_plane() -> SurfaceModel:
    return SurfaceModel(
        name="projective_plane",
        basis_labels=("H",),
        gram=((1,),),
        c1=CohClass.of([3]),
        curve_regime=REGIME_NONE,
        ample_witness=CohClass.of([1]),
    )


def quadric() -> SurfaceModel:
    return SurfaceModel(
        name="quadric",
        basis_labels=("C", "D"),
        gram=((0, 1), (1, 0)),
        c1=CohClass.of([2, 2]),
        curve_regime=REGIME_RULINGS,
        ample_witness=CohClass.of([1, 1]),
    )


POSITION_GENERAL = "general"
POSITION_ON_CUBIC = "on_cubic"
# points a blow-up may have: a cone check on a cubic pairs with k(k+1)/2
# curves of k+1 Gram entries each, so its time and memory grow as k^3; a
# cone-check at k = 200 took 4.2 s and 0.64 GB on a 2-vCPU host
MAX_POINTS = 200


@lru_cache(maxsize=64)
def blowup_cp2(k: int, position: str | None = None) -> SurfaceModel:
    """Blow-up of the plane at k points; basis (H, E1, ..., Ek), gram
    diag(1, -1, ..., -1), anti-canonical class 3H - E1 - ... - Ek.

    Interned per (k, position): repeated calls return one model, which keeps
    its cached Gram data, and its curve list keeps its rendered text.  At
    most MAX_POINTS points, checked before anything is built."""
    if not 1 <= k <= MAX_POINTS:
        raise InvalidPosition(f"1 <= k <= {MAX_POINTS} required, got k={k}")
    if position is None:
        position = POSITION_GENERAL if k <= 8 else POSITION_ON_CUBIC
    if position == POSITION_GENERAL:
        if k > 8:
            raise InvalidPosition(f"general position needs k <= 8, got k={k}")
        regime = REGIME_ENUMERATE
    elif position == POSITION_ON_CUBIC:
        if k < 2:
            raise InvalidPosition("on_cubic needs k >= 2")
        regime = REGIME_ON_CUBIC
    else:
        raise InvalidPosition(f"unknown position {position!r}")
    labels = ("H",) + tuple(f"E{i}" for i in range(1, k + 1))
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(k + 1))
        for i in range(k + 1)
    )
    return SurfaceModel(
        name=f"blowup_cp2({k},{position})",
        basis_labels=labels,
        gram=gram,
        c1=CohClass.of([3] + [-1] * k),
        curve_regime=regime,
        ample_witness=CohClass.of([k + 1] + [-1] * k),
    )


def custom_model(
    name: str,
    gram: Sequence[Sequence[int]],
    c1: Sequence[int],
    basis_labels: Sequence[str] | None = None,
    curves: Sequence[Sequence[int]] | None = None,
    ample_witness: Sequence[int] | None = None,
    simply_connected: bool = False,
) -> SurfaceModel:
    for key, value in (("gram", gram), ("c1", c1)):
        if len(value) == 0:
            raise CytForgeError(f"model {name}: {key!r} must not be empty")
    b = len(gram)
    labels = tuple(basis_labels) if basis_labels else tuple(f"e{i}" for i in range(1, b + 1))
    return SurfaceModel(
        name=name,
        basis_labels=labels,
        gram=tuple(tuple(int(x) for x in row) for row in gram),
        c1=CohClass.of(c1),
        curve_regime=REGIME_EXPLICIT,
        curves=tuple(CohClass.of(c) for c in curves) if curves is not None else None,
        ample_witness=CohClass.of(ample_witness) if ample_witness is not None else None,
        simply_connected=simply_connected,
    )


def kummer_model(f_pairings: Sequence[int] = (1, 1, 1, 1)) -> PairingFunctionalModel:
    """Kummer-surface fragment: four of the sixteen (-2)-curves C1..C4 plus a
    Ricci-flat Kaehler class F declared only through Q(Ci, F) = +/-1."""
    if len(f_pairings) != 4 or any(s not in (1, -1) for s in f_pairings):
        raise ValueError("four pairings in {+1,-1} required")
    labels = ("C1", "C2", "C3", "C4", "F")
    table = []
    for i in range(5):
        row: list[Optional[int]] = []
        for j in range(5):
            if i < 4 and j < 4:
                row.append(-2 if i == j else 0)
            elif i == 4 and j == 4:
                row.append(None)  # Q(F,F) is not pinned down by the chamber data
            else:
                row.append(f_pairings[min(i, j)])
        table.append(tuple(row))
    return PairingFunctionalModel(
        name="kummer",
        basis_labels=labels,
        table=tuple(table),
        c1=CohClass.zero(5),
    )


_BUILTIN_RE = re.compile(r"^blowup_cp2\((\d+)(?:,\s*(general|on_cubic))?\)$")


def builtin_model(spec: str) -> Model:
    """Resolve a builtin model name like 'quadric' or 'blowup_cp2(5)'."""
    s = spec.strip()
    if s in ("projective_plane", "cp2", "p2"):
        return projective_plane()
    if s == "quadric":
        return quadric()
    if s == "kummer":
        return kummer_model()
    m = _BUILTIN_RE.match(s)
    if m:
        return blowup_cp2(int(m.group(1)), m.group(2))
    raise ValueError(f"unknown builtin model {spec!r}")


def _is_int_list(value) -> bool:
    # JSON true and false load as bool, an int subclass, and are no integers here
    return isinstance(value, list) and all(type(x) is int for x in value)


def load_model(path: str) -> SurfaceModel:
    """Model config file: a JSON object with integer gram and c1, and optional
    string name, basis labels, integer curves and ample_witness, and boolean
    simply_connected (false when absent)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CytForgeError(f"model file {path} must hold a JSON object")
    for key in ("gram", "c1"):
        if doc.get(key) is None:
            raise CytForgeError(f"model file {path} has no {key!r} field")
    for key, nested in (("gram", True), ("c1", False), ("curves", True), ("ample_witness", False)):
        value = doc.get(key)
        rows = value if nested and isinstance(value, list) else [value]
        if value is not None and not all(_is_int_list(row) for row in rows):
            shape = "a list of integer lists" if nested else "a list of integers"
            raise CytForgeError(f"model file {path}: {key!r} must be {shape}")
    basis = doc.get("basis")
    if basis is not None and not (isinstance(basis, list) and all(isinstance(b, str) for b in basis)):
        raise CytForgeError(f"model file {path}: 'basis' must be a list of labels")
    name, simply_connected = doc.get("name", path), doc.get("simply_connected", False)
    if not isinstance(name, str):
        raise CytForgeError(f"model file {path}: 'name' must be a string")
    if not isinstance(simply_connected, bool):
        raise CytForgeError(f"model file {path}: 'simply_connected' must be true or false")
    return custom_model(
        name=name,
        gram=doc["gram"],
        c1=doc["c1"],
        basis_labels=basis,
        curves=doc.get("curves"),
        ample_witness=doc.get("ample_witness"),
        simply_connected=simply_connected,
    )


def model_to_dict(model: Model) -> dict:
    doc = {
        "name": model.name,
        "basis": list(model.basis_labels),
        "gram": [list(row) for row in model.gram],
        "c1": model.c1.serialize(),
        "simply_connected": model.simply_connected,
    }
    if isinstance(model, SurfaceModel):
        doc["curves"] = (
            [c.serialize() for c in model.curves] if model.curves is not None else None
        )
        doc["ample_witness"] = (
            model.ample_witness.serialize() if model.ample_witness is not None else None
        )
    return doc


def resolve_model(spec: str) -> Model:
    """Builtin name or path to a model file."""
    try:
        return builtin_model(spec)
    except ValueError:
        pass
    return load_model(spec)


# -- lattice services ---------------------------------------------------


def divisibility_index(x: CohClass) -> int:
    """Largest r with x/r still integral."""
    vec = x.as_int_vector()
    if all(v == 0 for v in vec):
        raise ZeroClass("divisibility index of the zero class")
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    return g


# -- class expression parsing / printing --------------------------------

# a '*' only ever follows a coefficient: '3H*E1' is a bad expression, not 3H + E1
_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*?)?([A-Za-z][A-Za-z0-9]*)")


def parse_class(model: Model, text: str) -> CohClass:
    """Accepts '3H-E1-E2' label syntax or '[3,-1,-1]' vector syntax
    (vector entries in the exact scalar format)."""
    s = text.strip()
    if not s:
        raise ScalarParseError("empty class expression")
    if s == "0":
        return CohClass.zero(model.rank)
    if s.startswith("["):
        if not s.endswith("]"):
            raise ScalarParseError(f"unterminated vector: {text!r}")
        inner = s[1:-1]
        items = [p.strip() for p in inner.split(",")] if inner.strip() else []
        if "" in items:
            raise ScalarParseError(f"empty entry in vector {text!r}")
        if len(items) != model.rank:
            raise RankMismatch(f"{len(items)} coefficients on a rank-{model.rank} model")
        return CohClass.deserialize(items)
    s = s.replace(" ", "")
    coeffs: list[Scalar] = [0] * model.rank
    index = {label: i for i, label in enumerate(model.basis_labels)}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.start() != pos:
            raise ScalarParseError(f"bad class expression near {s[pos:]!r}")
        sign_s, coef_s, label = m.groups()
        if label not in index:
            raise ScalarParseError(f"unknown basis label {label!r} on {model.name}")
        coef = parse_scalar(coef_s) if coef_s else Fraction(1)
        if sign_s == "-":
            coef = -coef
        coeffs[index[label]] += coef
        pos = m.end()
    return CohClass(tuple(int(c) if c.denominator == 1 else c for c in coeffs))
