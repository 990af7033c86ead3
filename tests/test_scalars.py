from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cytforge.errors import DegenerateAllZero, MixedFieldError, NoRealRoots, ScalarParseError
from cytforge.scalars import (
    QuadraticNumber,
    exact_div,
    exact_sign,
    format_scalar,
    parse_scalar,
    quadratic,
    solve_quadratic,
    sqrt_fraction,
    square_free_decomposition,
)

SQUARE_FREE = [2, 3, 5, 6, 7, 10, 11, 13, 15, 17, 114, 161]


def test_rational_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_radical_cancellation():
    x = quadratic(38, -20, 3) + quadratic(0, 20, 3)
    assert x == Fraction(38)
    assert isinstance(x, Fraction)


def test_conjugate_product():
    # (a - b sqrt(d))(a + b sqrt(d)) = a^2 - b^2 d = 1444 - 1200
    x = quadratic(38, -20, 3)
    assert x * QuadraticNumber(x.a, -x.b, x.d) == 244


def test_exact_sign_examples():
    assert exact_sign(quadratic(38, -20, 3)) == 1  # 38^2 = 1444 > 1200
    assert exact_sign(Fraction(0)) == 0
    assert exact_sign(quadratic(3, -2, 3)) == -1  # 9 < 12, b < 0
    assert exact_sign(quadratic(-3, 2, 3)) == 1
    assert exact_sign(quadratic(0, -1, 5)) == -1


def test_quadratic_constructor_validation():
    with pytest.raises(ValueError):
        QuadraticNumber(1, 0, 3)  # rational values use Fraction
    with pytest.raises(ValueError):
        QuadraticNumber(1, 1, 4)  # not square-free
    with pytest.raises(ValueError):
        QuadraticNumber(1, 1, 1)
    assert quadratic(1, 1, 4) == 3  # sqrt(4) folds into the rational part
    assert quadratic(0, 1, 8) == quadratic(0, 2, 2)


def test_mixed_field_rejected():
    x = quadratic(1, 1, 2)
    y = quadratic(1, 1, 3)
    with pytest.raises(MixedFieldError):
        x + y
    with pytest.raises(MixedFieldError):
        x * y
    with pytest.raises(MixedFieldError):
        x < y
    assert (x == y) is False
    # rational operands always mix
    assert x + Fraction(1) == quadratic(2, 1, 2)
    assert 2 * x == quadratic(2, 2, 2)


def test_division():
    x = quadratic(38, -20, 3)
    assert x / x == 1
    assert (1 / x) * x == 1
    assert exact_div(1, 3) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_solve_quadratic_k9():
    roots = solve_quadratic(-1, 76, -244)
    assert roots == (quadratic(38, -20, 3), quadratic(38, 20, 3))


def test_solve_quadratic_rational():
    assert solve_quadratic(1, 0, -4) == (-2, 2)
    assert solve_quadratic(1, -2, 1) == (1,)
    assert solve_quadratic(0, 2, -3) == (Fraction(3, 2),)
    assert solve_quadratic(0, 0, 5) == ()


def test_solve_quadratic_k10():
    # coefficients (2, 72, -264); sqrt(456) = 2 sqrt(114)
    roots = solve_quadratic(2, 72, -264)
    assert roots == (quadratic(-18, -2, 114), quadratic(-18, 2, 114))
    assert exact_sign(roots[1] - 3) == 1  # positive root exceeds 3


def test_solve_quadratic_errors():
    with pytest.raises(NoRealRoots):
        solve_quadratic(1, 0, 1)
    with pytest.raises(DegenerateAllZero):
        solve_quadratic(0, 0, 0)


def test_root_substitution_is_exact():
    for a, b, c in [(-1, 76, -244), (2, 72, -264), (3, -5, -7), (1, 1, -1)]:
        for r in solve_quadratic(a, b, c):
            assert a * r * r + b * r + c == 0


def test_scale_equation_family_has_large_root():
    # (3k-28) n^2 + (112-4k) n - (20k+64) = 0 admits a root beyond 3 for k >= 9
    for k in range(9, 31):
        roots = solve_quadratic(3 * k - 28, 112 - 4 * k, -(20 * k + 64))
        assert any(exact_sign(r - 3) == 1 for r in roots), k


def test_serialization_round_trip():
    values = [
        Fraction(0),
        Fraction(-7, 3),
        quadratic(38, -20, 3),
        quadratic(0, 1, 2),
        quadratic(Fraction(-3, 4), Fraction(5, 7), 13),
    ]
    for x in values:
        s = format_scalar(x)
        assert " " not in s
        assert parse_scalar(s) == x
        assert format_scalar(parse_scalar(s)) == s
    assert format_scalar(Fraction(0)) == "0/1"
    assert parse_scalar("5/6") == Fraction(5, 6)
    assert parse_scalar("38/1-20/1*sqrt(3)") == quadratic(38, -20, 3)
    assert parse_scalar("-2") == -2
    with pytest.raises(ScalarParseError):
        parse_scalar("1 + 2")
    with pytest.raises(ScalarParseError):
        parse_scalar("sqrt")


def test_a_radicand_above_the_bound_is_a_parse_error():
    # quadratic() reduces d by trial division up to sqrt(d): 0.5 s at 10**12 + 39
    assert parse_scalar(f"1+1*sqrt({10**12})") == 10**6 + 1
    assert parse_scalar(f"-1*sqrt({10**12})") == -(10**6)
    for text in (f"1+1*sqrt({10**12 + 39})", f"1*sqrt({10**12 + 39})", "0-1*sqrt(1000000000000000003)"):
        with pytest.raises(ScalarParseError, match=r"radicand above 1000000000000"):
            parse_scalar(text)


def test_a_zero_radicand_is_a_parse_error():
    for text in ("1*sqrt(0)", "2-1/3*sqrt(0)"):
        with pytest.raises(ScalarParseError, match=r"zero radicand in "):
            parse_scalar(text)


def test_square_free_decomposition():
    assert square_free_decomposition(4800) == (40, 3)
    assert square_free_decomposition(456) == (2, 114)
    assert square_free_decomposition(1) == (1, 1)
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(1, 2)) == quadratic(0, Fraction(1, 2), 2)


def test_ordering():
    assert quadratic(38, -20, 3) < quadratic(38, 20, 3)
    assert quadratic(38, -20, 3) > 3
    assert quadratic(38, -20, 3) < Fraction(7, 2)
    assert sorted([quadratic(0, 1, 2), Fraction(1), quadratic(0, 1, 2) * 2]) == [
        Fraction(1),
        quadratic(0, 1, 2),
        quadratic(0, 2, 2),
    ]


def test_pickle_and_copy():
    import copy
    import pickle

    x = quadratic(38, -20, 3)
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x
    with pytest.raises(AttributeError):
        x.a = Fraction(1)


def test_power():
    r = quadratic(1, 1, 2)  # r^2, r^0 = r r^-1 and r^-1 from products
    assert r * r == quadratic(3, 2, 2)
    assert r * r.inverse() == 1
    assert r.inverse() == QuadraticNumber(-1, 1, 2)  # (1 + sqrt(2))(sqrt(2) - 1) = 1


@st.composite
def field_elements(draw, d):
    a = draw(st.fractions(min_value=-50, max_value=50, max_denominator=20))
    b = draw(st.fractions(min_value=-50, max_value=50, max_denominator=20))
    return quadratic(a, b, d)


@given(data=st.data(), d=st.sampled_from(SQUARE_FREE))
@settings(max_examples=300, deadline=None)
def test_field_axioms(data, d):
    x = data.draw(field_elements(d))
    y = data.draw(field_elements(d))
    z = data.draw(field_elements(d))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    if y != 0:
        assert (x / y) * y == x


@given(data=st.data(), d=st.sampled_from(SQUARE_FREE))
@settings(max_examples=300, deadline=None)
def test_exact_sign_matches_high_precision(data, d):
    import mpmath

    x = data.draw(field_elements(d))
    with mpmath.workprec(200):
        approx = mpmath.mpf(x.a.numerator) / x.a.denominator if hasattr(x, "a") else mpmath.mpf(
            x.numerator
        ) / x.denominator
        if hasattr(x, "b"):
            approx += (mpmath.mpf(x.b.numerator) / x.b.denominator) * mpmath.sqrt(d)
        oracle = 0 if approx == 0 else (1 if approx > 0 else -1)
    # bounded coefficients keep |x| far above the 200-bit noise floor
    assert exact_sign(x) == oracle


# integer text as the vector syntax writes it: a sign, leading zeros, ASCII or
# other Unicode decimal digits, up to 400 of them, with or without a denominator
_DIGITS = st.text(st.sampled_from("0123456789") | st.characters(categories=["Nd"]), min_size=1, max_size=400)
_INTEGER_TEXT = st.tuples(st.sampled_from(("", "+", "-")), st.sampled_from(("", "0", "000")), _DIGITS).map("".join)
_DENOMINATOR = st.one_of(st.just(""), _DIGITS.filter(lambda t: int(t) != 0).map("/".__add__))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_INTEGER_TEXT, _DENOMINATOR)
def test_parse_scalar_equals_fraction_on_integer_text(numerator, denominator):
    text = numerator + denominator
    value = parse_scalar(text)
    assert type(value) is Fraction and value == Fraction(text)
