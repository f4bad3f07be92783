from fractions import Fraction

import pytest

from endok.errors import ParseError
from endok.fields import GF, QQ
from endok.ktheory import GrothendieckClass, k0_class
from endok.linalg import Matrix
from endok.modules import CommutingTuple
from endok.parse import (
    class_from_json,
    field_from_string,
    field_to_string,
    parse_input,
    parse_matrix,
    parse_poly,
    parse_unipoly,
)
from endok.poly import MultiPoly, UniPoly

F3 = GF(3)


# -- polynomial grammar ----------------------------------------------------------


def test_poly_grammar_basics():
    t = UniPoly.gen(QQ)
    one = UniPoly.one(QQ)
    assert parse_unipoly("t^2 - 1", QQ) == t * t - one
    assert parse_unipoly("(t+1)*(t-1)", QQ) == t * t - one
    assert parse_unipoly("1/2*t + 1/3", QQ) == UniPoly(QQ, [Fraction(1, 3), Fraction(1, 2)])
    assert parse_unipoly("-t", QQ) == -t
    assert parse_unipoly("2 - - 3", QQ) == UniPoly.constant(QQ, 5)
    assert parse_unipoly("t^0", QQ).is_one


def test_poly_grammar_multivariate():
    p = parse_poly("t1^2*t2 + 2*t2 - 1", QQ, 2)
    x1 = MultiPoly.variable(QQ, 2, 0)
    x2 = MultiPoly.variable(QQ, 2, 1)
    assert p == x1 * x1 * x2 + 2 * x2 - MultiPoly.one(QQ, 2)


def test_poly_grammar_mod_p():
    assert parse_unipoly("-t + 5", F3) == UniPoly(F3, [2, 2])
    # a/b over F_p means multiplication by the inverse
    assert parse_unipoly("1/2", F3) == UniPoly.constant(F3, 2)


def test_poly_grammar_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_unipoly("t +* 2", QQ)
    assert e.value.line == 1 and e.value.column == 4
    with pytest.raises(ParseError, match="out of range"):
        parse_poly("t3", QQ, 2)
    with pytest.raises(ParseError, match="plain 't'"):
        parse_poly("t", QQ, 2)
    with pytest.raises(ParseError, match="denominator"):
        parse_unipoly("1/t", QQ)
    with pytest.raises(ParseError, match="exponent"):
        parse_unipoly("t^(2)", QQ)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_unipoly("t @ 1", QQ)
    with pytest.raises(ParseError, match="trailing"):
        parse_unipoly("t 1", QQ)


# -- matrix grammar -----------------------------------------------------------------


def test_matrix_grammar():
    m = parse_matrix("[[0,-1];[1,0]]", F3)
    assert m == Matrix(F3, [[0, 2], [1, 0]])
    assert parse_matrix("[[]]", QQ).rows == 0
    assert parse_matrix("[[1/2,0];[0,1]]", QQ).entries[0][0] == Fraction(1, 2)
    with pytest.raises(ParseError, match="ragged"):
        parse_matrix("[[1,2];[3]]", QQ)
    with pytest.raises(ParseError, match="scalars"):
        parse_matrix("[[t]]", QQ)


def test_matrix_entries_parse_to_canonical_scalars():
    job = parse_input("field Q\nvars 1\ndim 2\n[[-3, 1/2]; [2*3-1, t1 - t1]]\n")
    m = job.matrices[0]
    assert m.entries == ((Fraction(-3), Fraction(1, 2)), (Fraction(5), Fraction(0)))
    assert all(type(x) is Fraction for row in m.entries for x in row)
    assert m == Matrix(QQ, [[-3, Fraction(1, 2)], [5, 0]])
    job = parse_input("field F 97\nvars 1\ndim 2\n[[-3, 1/2]; [2*3-1, 98]]\n")
    assert job.matrices[0].entries == ((94, 49), (5, 1))
    assert job.matrices[0] == Matrix(GF(97), [[-3, 49], [5, 98]])
    # the error points at the entry's first token
    with pytest.raises(ParseError, match="matrix entries must be scalars") as e:
        parse_input("field Q\nvars 1\ndim 2\n[[1, 2*t + 1]; [0, 0]]\n")
    assert (e.value.line, e.value.column) == (4, 6)
    with pytest.raises(ParseError, match="matrix entries must be scalars") as e:
        parse_input("field F 5\nvars 2\ndim 1\n  [[ t2^2 ]]\n")
    assert (e.value.line, e.value.column) == (4, 6)


# -- job files ---------------------------------------------------------------------


def test_parse_input_matrix_job():
    job = parse_input("field F 3\nvars 1\ndim 2\n[[0,-1];[1,0]]\n")
    assert field_to_string(job.field) == "F3"
    t = job.tuple()
    assert t.dim == 2 and t.mats[0] == Matrix.companion(UniPoly(F3, [1, 0, 1]))


def test_parse_input_dim_zero_job():
    job = parse_input("field Q\nvars 1\ndim 0\n[[]]\n")
    t = job.tuple()
    assert t.dim == 0


def test_parse_input_comments_and_blank_lines():
    job = parse_input(
        "# a job\nfield Q  # rationals\n\nvars 1\ndim 1\n[[2]]  # the matrix\n"
    )
    assert job.tuple().mats[0].entries[0][0] == 2


def test_parse_input_tilde_job():
    job = parse_input("field Q\nnum 1+2*t+t^2\nden 1+t\nnum 1+t\n")
    assert len(job.tildes) == 2
    assert str(job.tildes[0]) == "t + 1"
    assert str(job.tildes[1]) == "t + 1"


def test_parse_input_errors():
    with pytest.raises(ParseError, match="not prime"):
        parse_input("field F 4\nvars 1\ndim 1\n[[1]]\n")
    with pytest.raises(ParseError, match="field line must come first"):
        parse_input("vars 1\nfield Q\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_input("field Q\nfield Q\n")
    with pytest.raises(ParseError, match="before matrices"):
        parse_input("field Q\n[[1]]\n")
    with pytest.raises(ParseError, match="expected 2x2"):
        parse_input("field Q\nvars 1\ndim 2\n[[1]]\n")
    with pytest.raises(ParseError, match="den without"):
        parse_input("field Q\nden 1+t\n")
    with pytest.raises(ParseError, match="unrecognized"):
        parse_input("field Q\nfrobenius 3\n")
    with pytest.raises(ParseError, match="empty input"):
        parse_input("# nothing here\n")
    with pytest.raises(ValueError, match="vars 1 but provides"):
        parse_input("field Q\nvars 1\ndim 1\n").tuple()


def test_parse_input_matrix_shape_errors_carry_positions():
    # a 2x3 matrix under dim 2: the row count alone would let it through
    with pytest.raises(ParseError, match="matrix is 2x3, expected 2x2") as e:
        parse_input("field Q\nvars 2\ndim 2\n[[0,1,2];[0,0,3]]\n[[0,0];[0,0]]\n")
    assert (e.value.line, e.value.column) == (4, 1)
    # a third matrix under vars 2
    with pytest.raises(ParseError, match="extra matrix beyond vars 2") as e:
        parse_input("field Q\nvars 2\ndim 1\n[[0]]\n[[0]]\n  [[1]]\n")
    assert (e.value.line, e.value.column) == (6, 3)


def test_noncommuting_matrices_reported_with_indices():
    job = parse_input(
        "field Q\nvars 2\ndim 2\n[[0,1];[0,0]]\n[[0,0];[1,0]]\n"
    )
    with pytest.raises(ValueError, match="matrices 0 and 1 do not commute"):
        job.tuple()


# -- JSON round-trip ------------------------------------------------------------------


def test_field_string_roundtrip():
    for f in (QQ, F3, GF(2)):
        assert field_from_string(field_to_string(f)) == f
    with pytest.raises(ValueError):
        field_from_string("R")


def test_class_json_roundtrip():
    for text in (
        "field Q\nvars 1\ndim 2\n[[0,0];[0,1]]\n",
        "field F 3\nvars 1\ndim 2\n[[0,-1];[1,0]]\n",
        "field F 2\nvars 2\ndim 2\n[[0,1];[0,0]]\n[[0,0];[0,0]]\n",
    ):
        job = parse_input(text)
        t = job.tuple()
        cls = k0_class(t)
        obj = {
            "field": field_to_string(t.field),
            "nvars": t.nvars,
            "class": cls.to_json_entries(),
        }
        assert class_from_json(obj) == cls


def test_class_json_roundtrip_zero():
    obj = {"field": "Q", "nvars": 1, "class": []}
    assert class_from_json(obj) == GrothendieckClass.zero(QQ, 1)
