"""Exact scalar arithmetic over Q and real quadratic extensions Q(sqrt(d)).

A scalar is an ``int``, a ``fractions.Fraction`` or a :class:`QuadraticNumber`
``a + b*sqrt(d)`` with rational ``a, b`` and square-free ``d >= 2``.  All
operations are exact; sign determination never touches floating point, so
every inequality decided here is a certificate.  A single computation mixes at
most one irrationality: combining two different ``d`` raises
:class:`~cytforge.errors.MixedFieldError`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Optional, Sequence, Union

from .errors import DegenerateAllZero, MixedFieldError, NoRealRoots, ScalarParseError


def _int_sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def surd_sign(p, q, d: Optional[int]) -> int:
    """Sign of p + q*sqrt(d) for rational p, q and d > 0 (d may be None when
    q = 0): the common sign of p and q when they agree or one of them is 0,
    else the sign of the larger of p^2 and q^2 d.  Exact on ints and
    Fractions alike."""
    sp, sq = _int_sign(p), _int_sign(q)
    if sp == sq or sq == 0:
        return sp
    if sp == 0:
        return sq
    t = _int_sign(p * p - q * q * d)
    return sp if t > 0 else sq if t < 0 else 0


@lru_cache(maxsize=256)
def square_free_decomposition(n: int) -> tuple[int, int]:
    """Write n > 0 as s**2 * m with m square-free; returns (s, m).  Cached:
    trial division up to sqrt(n) runs once per n, not once per operation."""
    if n <= 0:
        raise ValueError("positive integer required")
    s, m = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    return s, m * n


def is_square_free(d: int) -> bool:
    return d >= 1 and square_free_decomposition(d)[1] == d


@total_ordering
class QuadraticNumber:
    """Canonical a + b*sqrt(d) with b != 0 and d square-free, d >= 2.

    Values with b == 0 are represented as Fraction/int, never as a
    QuadraticNumber; use :func:`quadratic` to build scalars canonically.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            raise ValueError("rational value: use Fraction or int, or the quadratic() factory")
        if d < 2 or not is_square_free(d):
            raise ValueError(f"radicand must be square-free and >= 2, got {d}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticNumber is immutable")

    def __reduce__(self):
        return (QuadraticNumber, (self.a, self.b, self.d))

    # -- coercion -------------------------------------------------------

    def _parts(self, other) -> tuple[Fraction, Fraction] | None:
        """other as (rational part, sqrt(d) part) in self's field, else None."""
        if isinstance(other, QuadraticNumber):
            if other.d != self.d:
                raise MixedFieldError(f"sqrt({self.d}) and sqrt({other.d}) do not mix")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a2, b2 = parts
        return quadratic(self.a + a2, self.b + b2, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.d)

    def __sub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a2, b2 = parts
        return quadratic(self.a - a2, self.b - b2, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a2, b2 = parts
        return quadratic(self.a * a2 + self.b * b2 * self.d, self.a * b2 + self.b * a2, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        # norm a^2 - b^2 d is nonzero: sqrt(d) is irrational and b != 0
        n = self.a * self.a - self.b * self.b * self.d
        return QuadraticNumber(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a2, b2 = parts
        if b2 == 0:
            if a2 == 0:
                raise ZeroDivisionError("division by zero")
            return QuadraticNumber(self.a / a2, self.b / a2, self.d)
        return self * QuadraticNumber(a2, b2, self.d).inverse()

    def __rtruediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a2, b2 = parts
        return quadratic(a2, b2, self.d) * self.inverse()

    # -- comparisons ----------------------------------------------------

    def sign(self) -> int:
        return surd_sign(self.a, self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, QuadraticNumber):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return False  # b != 0 makes the value irrational
        return NotImplemented

    def __lt__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        a2, b2 = parts
        diff = quadratic(self.a - a2, self.b - b2, self.d)
        return exact_sign(diff) < 0

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __float__(self):
        # approximation hatch for human-readable reports only
        return float(self.a) + float(self.b) * self.d ** 0.5

    def __repr__(self):
        return f"QuadraticNumber({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        sep = "-" if self.b < 0 else "+"
        return f"{self.a}{sep}{abs(self.b)}*sqrt({self.d})"


Scalar = Union[int, Fraction, QuadraticNumber]


def quadratic(a, b=0, d: int | None = None) -> Scalar:
    """Canonical scalar a + b*sqrt(d): a Fraction when b == 0."""
    b = Fraction(b)
    if b == 0 or d is None:
        return Fraction(a)
    s, m = square_free_decomposition(d)
    if m == 1:
        return Fraction(a) + b * s
    return QuadraticNumber(Fraction(a), b * s, m)


def is_rational(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction))


def exact_sign(x: Scalar) -> int:
    """Sign in {-1, 0, +1} of the real number x, decided exactly; an int,
    or a Fraction by its numerator, takes two int compares."""
    t = type(x)
    if t is int or t is Fraction:
        n = x if t is int else x.numerator
        return (n > 0) - (n < 0)
    if isinstance(x, QuadraticNumber):
        return x.sign()
    return _int_sign(x)


def exact_div(x: Scalar, y: Scalar) -> Scalar:
    """Exact x / y; int / int promotes to Fraction instead of float."""
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


def ratio_terms(x: Sequence[Scalar], y: Sequence[Scalar]) -> Optional[tuple[Scalar, Scalar]]:
    """(a, b) with b != 0 and x = (a/b)*y coefficientwise, read at the first
    nonzero entry of y; None when y is zero or x is not a multiple of y.
    Parallelism is tested by cross-multiplication, without a division."""
    p = next((i for i, b in enumerate(y) if b != 0), None)
    if p is None:
        return None
    a0, b0 = x[p], y[p]
    if any(a * b0 != a0 * b for a, b in zip(x, y)):
        return None
    return a0, b0


def sqrt_fraction(q) -> Scalar:
    """Exact square root of a nonnegative rational, as Fraction or QuadraticNumber."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    s, m = square_free_decomposition(q.numerator * q.denominator)
    return quadratic(0, Fraction(s, q.denominator), m)


def solve_quadratic(A, B, C) -> tuple[Scalar, ...]:
    """Exact real roots of A x^2 + B x + C = 0, ascending.

    Rational when the discriminant is a perfect square, otherwise conjugate
    values in Q(sqrt(m)) for the square-free part m of the discriminant.
    Raises NoRealRoots for negative discriminant and DegenerateAllZero when
    all coefficients vanish; A = B = 0 with C != 0 has no roots.
    """
    A, B, C = Fraction(A), Fraction(B), Fraction(C)
    if A == 0:
        if B == 0:
            if C == 0:
                raise DegenerateAllZero("0 = 0 holds for every x")
            return ()
        return (-C / B,)
    disc = B * B - 4 * A * C
    if disc < 0:
        raise NoRealRoots(f"discriminant {disc} < 0")
    if disc == 0:
        return (-B / (2 * A),)
    root = sqrt_fraction(disc)
    lo = (-B - root) / (2 * A)
    hi = (-B + root) / (2 * A)
    if exact_sign(hi - lo) < 0:
        lo, hi = hi, lo
    return (lo, hi)


# -- text format --------------------------------------------------------
#
# Canonical wire format, no whitespace:  "p/q"  or  "p/q+r/s*sqrt(d)"
# (sign of the radical term folded into +/-).  Round-trips bit-exactly.

_FRAC_RE = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"^(?P<a>{_FRAC_RE})"
    rf"(?:(?P<sign>[+-])(?P<b>\d+(?:/\d+)?)\*sqrt\((?P<d>\d+)\))?$"
)
_PURE_RADICAL_RE = re.compile(rf"^(?P<b>{_FRAC_RE})\*sqrt\((?P<d>\d+)\)$")
MAX_RADICAND = 10**12  # quadratic() trial-divides d up to sqrt(d)


def _format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def format_scalar(x: Scalar) -> str:
    if type(x) is int:  # a bool goes through Fraction: True is "1/1"
        return f"{x}/1"
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return _format_fraction(x)
    sep = "-" if x.b < 0 else "+"
    return f"{_format_fraction(x.a)}{sep}{_format_fraction(abs(x.b))}*sqrt({x.d})"


def _parse_fraction(part: str, text: str) -> Fraction:
    """The Fraction of a matched 'p' or 'p/q' inside text; q = 0 is a parse
    error.  The digits go through int() rather than Fraction's string
    parser: the same value and type at about a third of the cost."""
    num, _, den = part.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError:
        raise ScalarParseError(f"zero denominator in {text!r}") from None


def parse_scalar(text: str) -> Scalar:
    s = text.strip()
    m = _SCALAR_RE.match(s)
    if m and m.group("b") is None:
        return _parse_fraction(m.group("a"), text)
    m = m or _PURE_RADICAL_RE.match(s)
    if m is None:
        raise ScalarParseError(f"not an exact scalar: {text!r}")
    parts = m.groupdict()
    b = _parse_fraction(parts.get("sign", "") + parts["b"], text)
    d = int(parts["d"])
    if d > MAX_RADICAND:
        raise ScalarParseError(f"radicand above {MAX_RADICAND} in {text!r}")
    if d == 0:
        raise ScalarParseError(f"zero radicand in {text!r}")
    return quadratic(_parse_fraction(parts.get("a", "0"), text), b, d)


def approx_str(x: Scalar, digits: int = 4) -> str:
    """Decimal approximation, explicitly labeled; for reports only."""
    return f"~{float(x):.{digits}f} (approx)"
