import json
import pickle
import random
from fractions import Fraction

import pytest

import property_suites

from cytforge.scalars import quadratic
from cytforge.errors import (
    CytForgeError,
    InvalidPosition,
    MixedFieldError,
    NonSymmetricGram,
    RankMismatch,
    ScalarParseError,
    UndeclaredPairing,
    ZeroClass,
)
from cytforge.surfaces import (
    MAX_POINTS,
    CohClass,
    blowup_cp2,
    builtin_model,
    custom_model,
    divisibility_index,
    intersect,
    kummer_model,
    load_model,
    model_to_dict,
    parse_class,
    projective_plane,
    quadric,
    resolve_model,
)

HALF = Fraction(1, 2)


def test_builtin_shapes():
    m2 = blowup_cp2(2)
    assert m2.rank == 3
    assert m2.c1 == CohClass.of([3, -1, -1])
    assert intersect(m2, m2.c1, m2.c1) == 7

    q = quadric()
    assert q.c1 == CohClass.of([2, 2])
    assert intersect(q, q.c1, q.c1) == 8

    p = projective_plane()
    assert p.rank == 1 and p.c1 == CohClass.of([3])


def test_blowup_c1_squares():
    for k in range(1, 13):
        m = blowup_cp2(k) if k <= 8 else blowup_cp2(k, "on_cubic")
        assert intersect(m, m.c1, m.c1) == 9 - k


def test_position_validation():
    with pytest.raises(InvalidPosition):
        blowup_cp2(9, "general")
    with pytest.raises(InvalidPosition):
        blowup_cp2(1, "on_cubic")
    with pytest.raises(InvalidPosition):
        blowup_cp2(0)
    for k in (MAX_POINTS + 1, 99999999999):
        with pytest.raises(InvalidPosition, match=f"1 <= k <= {MAX_POINTS} required, got k={k}"):
            blowup_cp2(k, "on_cubic")
    assert blowup_cp2(60, "on_cubic").rank == 61  # the section 4.4 sweep stays in range
    assert blowup_cp2(9).curve_regime == "on_cubic"  # default flips at k = 9
    assert blowup_cp2(8).curve_regime == "enumerate_neg1"


def test_intersect_examples():
    m2 = blowup_cp2(2)
    assert intersect(m2, parse_class(m2, "3H-E1-E2"), parse_class(m2, "H-2E1-E2")) == 0
    q = quadric()
    f = CohClass((Fraction(1, 2), Fraction(1, 2)))
    assert intersect(q, f, f) == Fraction(1, 2)
    m5 = blowup_cp2(5)
    assert intersect(m5, m5.c1, parse_class(m5, "E1-E2")) == 0


def test_intersect_bilinear_symmetric():
    rng = random.Random(5)
    m = blowup_cp2(4)
    for _ in range(200):
        x = CohClass.of([rng.randint(-9, 9) for _ in range(5)])
        y = CohClass.of([rng.randint(-9, 9) for _ in range(5)])
        z = CohClass.of([rng.randint(-9, 9) for _ in range(5)])
        c = rng.randint(-5, 5)
        assert intersect(m, x, y) == intersect(m, y, x)
        assert intersect(m, x + z, y) == intersect(m, x, y) + intersect(m, z, y)
        assert intersect(m, c * x, y) == c * intersect(m, x, y)


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        intersect(quadric(), CohClass.of([1, 2, 3]), CohClass.of([1, 2]))


def test_nonsymmetric_gram_rejected():
    with pytest.raises(NonSymmetricGram):
        custom_model("bad", [[0, 1], [2, 0]], [1, 1])


def test_divisibility_index():
    assert divisibility_index(projective_plane().c1) == 3
    assert divisibility_index(quadric().c1) == 2
    for k in range(1, 13):
        m = blowup_cp2(k) if k <= 8 else blowup_cp2(k, "on_cubic")
        assert divisibility_index(m.c1) == 1
    with pytest.raises(ZeroClass):
        divisibility_index(CohClass.zero(2))


def test_kummer_pairing_table():
    km = kummer_model((1, 1, 1, 1))
    w1 = parse_class(km, "C1-C2")
    f = parse_class(km, "F")
    assert intersect(km, w1, w1) == -4
    assert intersect(km, w1, f) == 0
    with pytest.raises(UndeclaredPairing):
        intersect(km, f, f)
    km_signed = kummer_model((1, -1, 1, -1))
    assert intersect(km_signed, parse_class(km_signed, "C1-C2"), f) == 2
    with pytest.raises(ValueError):
        kummer_model((1, 1, 2, 1))


def test_integer_intersect_matches_the_scalar_loop():
    property_suites.check_cleared_form()
    property_suites.check_integer_intersect()


def test_surd_form_clears_a_q_sqrt_d_class():
    k9 = CohClass((quadratic(38, -20, 3),) + (quadratic(-10, 5, 3),) * 4 + (quadratic(-14, 8, 3),) * 5)
    assert k9.surd_form == ((38,) + (-10,) * 4 + (-14,) * 5, (-20,) + (5,) * 4 + (8,) * 5, 3, 1)
    x = CohClass((quadratic(-18, 2, 114), quadratic(4, -HALF, 114), quadratic(7, Fraction(-2, 3), 114), HALF, 0))
    assert x.surd_form == ((-108, 24, 42, 3, 0), (12, -3, -4, 0, 0), 114, 6)
    assert CohClass((HALF, 3)).surd_form == ((1, 6), None, None, 2)
    with pytest.raises(MixedFieldError, match=r"sqrt\(2\) and sqrt\(3\) in one class"):
        CohClass((quadratic(1, 1, 2), 0, quadratic(1, 1, 3))).surd_form
    # a Q(sqrt(2)) class against a Q(sqrt(3)) class, however the entries meet
    m = blowup_cp2(2)
    y, z = CohClass((quadratic(1, 1, 2), 1, 0)), CohClass((1, 0, quadratic(0, 1, 3)))
    for a, b in ((y, z), (z, y)):
        with pytest.raises(MixedFieldError, match="do not mix"):
            intersect(m, a, b)


def test_surd_kernel_matches_the_quadratic_reference():
    property_suites.check_surd_kernel()


def test_irrational_classes_pair_on_the_row_and_pairing_tables_in_the_scalar_loop():
    m = blowup_cp2(3)
    root = quadratic(1, 1, 2)
    x = CohClass((root, HALF, 0, -1))
    assert x.cleared_form is None
    # (n + m sqrt(2)) / 2, two integer dots against the row of c1's numerators
    assert intersect(m, x, m.c1) == intersect(m, m.c1, x) == 3 * root - HALF
    assert intersect(m, x, HALF * m.c1) == (3 * root - HALF) / 2
    # on a pairing table the classes are never cleared, and open entries raise
    twin = property_suites.scalar_twin(m)
    y, z = CohClass((HALF, 1, 0, 0)), CohClass.of([1, 0, 2, 0])
    assert intersect(twin, y, z) == HALF
    assert "cleared_form" not in vars(y) and "cleared_form" not in vars(z)
    km = kummer_model()
    with pytest.raises(UndeclaredPairing):
        intersect(km, parse_class(km, "F"), parse_class(km, "F"))


def test_cleared_form_leaves_equality_hash_and_pickles_alone():
    for coeffs in ((3, -1, -1), (HALF, Fraction(4), 0), (quadratic(1, 1, 2), 0, 1)):
        x = CohClass(coeffs)
        pickled, digest = pickle.dumps(x), hash(x)
        x.cleared_form
        assert "cleared_form" in vars(x)
        assert x == CohClass(coeffs) and hash(x) == digest == hash(CohClass(coeffs))
        assert pickle.dumps(x) == pickled
        back = pickle.loads(pickled)
        assert back == x and "cleared_form" not in vars(back)
        assert back.cleared_form == x.cleared_form


def test_a_seeded_cleared_form_is_the_one_the_coefficients_give():
    for nums, den in (((3, -1, -1), 1), ((3, -2, 0), 4), ((0, 5), 7)):
        x = CohClass.from_cleared(nums, den)
        assert x.cleared_form == (nums, den) == CohClass(x.coeffs).cleared_form
        assert x == CohClass(tuple(Fraction(n, den) for n in nums))
        assert all(type(c) is (int if den == 1 else Fraction) for c in x.coeffs)
    for nums, den in (((2, 4), 2), ((1, 0), 0), ((1, 0), -1)):
        with pytest.raises(ValueError, match="least positive denominator"):
            CohClass.from_cleared(nums, den)


def test_empty_gram_or_c1_is_rejected(tmp_path):
    with pytest.raises(CytForgeError, match="'gram' must not be empty"):
        custom_model("x", [], [])
    path = tmp_path / "model.json"
    path.write_text('{"gram": [[1]], "c1": []}')
    with pytest.raises(CytForgeError, match="'c1' must not be empty"):
        load_model(str(path))


def test_class_parsing():
    m2 = blowup_cp2(2)
    assert parse_class(m2, "3H-E1-E2") == CohClass.of([3, -1, -1])
    assert parse_class(m2, "[3,-1,-1]") == CohClass.of([3, -1, -1])
    assert parse_class(m2, "H+E1-3E2") == CohClass.of([1, 1, -3])
    assert parse_class(m2, "3H - E1 - E2") == CohClass.of([3, -1, -1])
    assert parse_class(m2, "0") == CohClass.zero(3)
    q = quadric()
    assert parse_class(q, "1/2C+1/2D") == CohClass((Fraction(1, 2), Fraction(1, 2)))
    assert parse_class(q, "[1/2,1/2]") == CohClass((Fraction(1, 2), Fraction(1, 2)))
    assert parse_class(q, "[38/1-20/1*sqrt(3),0/1]").coeffs[0] == quadratic(38, -20, 3)
    assert parse_class(m2, "3*H-2*E1") == CohClass.of([3, -2, 0])
    with pytest.raises(ScalarParseError):
        parse_class(m2, "3X")
    with pytest.raises(RankMismatch):
        parse_class(m2, "[1,2]")
    # a '*' with no coefficient before it is no term separator: 3H*E1 once read as 3H+E1
    for text in ("3H*E1", "3H+*E1", "*H", "-*E1", "3H-E1*", "3**H"):
        with pytest.raises(ScalarParseError, match="bad class expression"):
            parse_class(m2, text)
    with pytest.raises(ScalarParseError, match="zero denominator"):
        parse_class(q, "1/0*C")


@pytest.mark.parametrize(
    "text, message",
    [("", "empty class expression"), ("  ", "empty class expression"),
     ("[1,2", "unterminated vector"), ("+", "bad class expression near '\\+'"),
     ("H+", "bad class expression near '\\+'")],
)
def test_a_class_text_without_a_term_is_a_parse_error(text, message):
    with pytest.raises(ScalarParseError, match=message):
        parse_class(blowup_cp2(2), text)


def test_class_arithmetic():
    x = CohClass.of([1, 2, 3])
    y = CohClass.of([0, -1, 1])
    assert x + y == CohClass.of([1, 1, 4])
    assert x - y == CohClass.of([1, 3, 2])
    assert -x == CohClass.of([-1, -2, -3])
    assert 2 * x == CohClass.of([2, 4, 6])
    assert Fraction(1, 2) * y == CohClass((0, Fraction(-1, 2), Fraction(1, 2)))
    assert x.is_integral() and not (Fraction(1, 2) * x).is_integral()
    with pytest.raises(RankMismatch):
        x + CohClass.of([1])


def test_model_file_round_trip(tmp_path):
    m = custom_model(
        "demo",
        gram=[[1, 0], [0, -1]],
        c1=[2, -1],
        curves=[[0, 1]],
        ample_witness=[3, -1],
        simply_connected=True,
    )
    doc = model_to_dict(m)
    path = tmp_path / "demo.json"
    path.write_text(json.dumps({
        "name": doc["name"],
        "basis": doc["basis"],
        "gram": doc["gram"],
        "c1": [2, -1],
        "curves": [[0, 1]],
        "ample_witness": [3, -1],
        "simply_connected": True,
    }))
    loaded = load_model(str(path))
    assert loaded.gram == m.gram
    assert loaded.c1 == m.c1
    assert loaded.curves == m.curves
    assert loaded.ample_witness == m.ample_witness


def test_a_repeated_basis_label_is_rejected(tmp_path):
    with pytest.raises(CytForgeError, match="basis label 'H' appears twice"):
        custom_model("twice", [[1, 0], [0, -1]], [3, -1], basis_labels=["H", "H"])
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]], "c1": [3, -1, -1], "basis": ["H", "E", "E"]}))
    with pytest.raises(CytForgeError, match="basis label 'E' appears twice"):
        load_model(str(path))


def test_builtin_resolution():
    assert builtin_model("quadric").name == "quadric"
    assert builtin_model("cp2").rank == 1
    assert builtin_model("blowup_cp2(5)").rank == 6
    assert builtin_model("blowup_cp2(9,on_cubic)").curve_regime == "on_cubic"
    assert builtin_model("kummer").name == "kummer"
    with pytest.raises(ValueError):
        builtin_model("nope")
    assert resolve_model("quadric").name == "quadric"
