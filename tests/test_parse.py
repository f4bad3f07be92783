import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endok import modules
from endok import parse as parse_module
from endok.errors import ParseError
from endok.fields import GF, QQ
from endok.ktheory import GrothendieckClass, k0_class
from endok.linalg import Matrix
from endok.modules import Ideal
from endok.parse import (
    _plain_matrix,
    _walk_matrix,
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


MATRIX_ERRORS = [
    ("[[1,2];[3,4]", 13, "expected ']'"),
    ("[[1,,2]]", 5, "expected a number, variable or parenthesized expression"),
    ("[[1,]]", 5, "expected a number, variable or parenthesized expression"),
    ("[[-]]", 4, "expected a number, variable or parenthesized expression"),
    ("[[1 2]]", 5, "expected ']'"),
    ("[[1;2]]", 4, "expected ']'"),
    ("[[1)]]", 4, "expected ']'"),
    ("[[1[2]]", 4, "expected ']'"),
    ("[1,2]", 2, "expected '['"),
    ("[[1];]", 6, "expected '['"),
    ("[[1]]x", 6, "unexpected trailing input"),
    ("[[]];", 5, "unexpected trailing input"),
    ("[[(1,2)]]", 5, "expected ')'"),
    ("[[(1]]", 5, "expected ')'"),
    ("[[1/0]]", 4, "denominator must be a nonzero constant"),
    ("[[1/(2-2)]]", 4, "denominator must be a nonzero constant"),
    ("[[1];[2,3]]", 1, "ragged matrix rows"),
    ("[[];[1]]", 1, "ragged matrix rows"),
    ("[[1.5]]", 4, "unexpected character '.'"),
    ("[[1]\u00bd]", 5, "unexpected character '\u00bd'"),
    ("[[t]]", 3, "matrix entries must be scalars"),
    ("[[ t 1]]", 4, "matrix entries must be scalars"),
    ("[[t^]]", 5, "exponent must be a nonnegative integer"),
    ("[[t2]]", 3, "variable t2 is out of range 1..1"),
    ("[[x]]", 3, "unknown variable 'x'"),
    # digits are ASCII: neither a superscript nor an Arabic-Indic digit reads
    ("[[\u00b2]]", 3, "unexpected character '\u00b2'"),
    ("[[\u0663]]", 3, "unexpected character '\u0663'"),
    ("[[1,[2]]]", 5, "expected a number, variable or parenthesized expression"),
    ("[[(1;2)]]", 5, "expected ')'"),
    # the whole literal is tokenized first, so a bad character comes first
    ("[[1,2]];\u00bd", 9, "unexpected character '\u00bd'"),
    ("[[1,2],[3,4]]", 7, "expected ']'"),
    ("[[1]][[2]]", 6, "unexpected trailing input"),
]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
@pytest.mark.parametrize("text, col, message", MATRIX_ERRORS)
def test_matrix_literal_errors_carry_positions(field, text, col, message):
    with pytest.raises(ParseError) as e:
        parse_matrix(text, field)
    assert (str(e.value), e.value.line, e.value.column) == (f"1:{col}: {message}", 1, col)
    # the same line in a job file keeps its column
    with pytest.raises(ParseError) as e:
        parse_input(f"field {'Q' if field == QQ else 'F 5'}\nvars 1\ndim 1\n{text}\n")
    assert (str(e.value), e.value.line, e.value.column) == (f"4:{col}: {message}", 4, col)


def test_matrix_literal_edge_cases():
    assert parse_matrix("[[]]", QQ).rows == 0 and parse_matrix("[[]]", QQ).cols == 0
    m = parse_matrix("[[];[]]", F3)
    assert (m.rows, m.cols) == (2, 0)
    assert parse_matrix("[[ 1 ] ]", QQ) == Matrix(QQ, [[1]])
    assert parse_matrix(" [[1]]", QQ) == Matrix(QQ, [[1]])
    assert parse_matrix("[[--3, +4, - 5]]", QQ).entries == ((Fraction(3), Fraction(4), Fraction(-5)),)
    assert parse_matrix("[[--3, +4, - 5]]", GF(5)).entries == ((3, 4, 0),)
    assert parse_matrix("[[1/2/3]]", QQ).entries == ((Fraction(1, 6),),)
    assert parse_matrix("[[1/2/3]]", GF(5)).entries == ((1,),)
    # an empty or blank text has nothing but its end
    for text, col in (("", 1), ("  ", 3)):
        with pytest.raises(ParseError, match=f"1:{col}: expected '\\['"):
            parse_matrix(text, QQ)
    # a matrix may span lines; positions follow them
    for text, pos in (("[[1,2];\n [3,t]]", (2, 5)), ("[[1];\n[2,\u00bd]]", (2, 4)), ("[[1,2];\n [3 4]]", (2, 5))):
        with pytest.raises(ParseError) as e:
            parse_matrix(text, QQ)
        assert (e.value.line, e.value.column) == pos


def test_walked_literal_is_tokenized_once(monkeypatch):
    # a literal with an expression entry is one token stream, not one per entry
    calls = []
    tokenize = parse_module._tokenize
    monkeypatch.setattr(parse_module, "_tokenize", lambda *a: calls.append(a) or tokenize(*a))
    rows = [[str(10 + (i * 30 + j) % 90) for j in range(30)] for i in range(30)]
    rows[17][4] = "2*3-1"
    text = "[" + ";".join("[" + ",".join(row) + "]" for row in rows) + "]"
    for field in (QQ, GF(97)):
        calls.clear()
        m = parse_matrix(text, field)
        assert len(calls) == 1
        assert m.entries[17][4] == 5 and m.entries[29][29] == field.coerce(99)


SPACES = st.sampled_from(["", "", " ", "  ", "\t"])
# small values next to ones past int64, where a dtype guess would go wrong
NUMBERS = st.one_of(st.integers(0, 200), st.integers(2**63 - 3, 2**70))


@st.composite
def matrix_texts(draw):
    """(field, text, entries): a matrix literal with random spacing and
    each entry's text with its offset in it."""
    field = draw(st.sampled_from([QQ, GF(2), GF(97), GF(2**61 - 1)]))
    p = field.characteristic

    def sp():
        return draw(SPACES)

    def entry():
        a, b, c = draw(NUMBERS), draw(NUMBERS), draw(NUMBERS)
        den = draw(st.one_of(NUMBERS, st.sampled_from([p, 2 * p, 1])))  # 0 mod p
        sign = draw(st.sampled_from(["", "+", "-"]))
        return draw(
            st.sampled_from(
                [
                    f"{sign}{sp()}{a}",
                    f"{sign}{sp()}{a}{sp()}/{sp()}{den}",
                    f"{a}{sp()}*{sp()}{b}{sp()}-{sp()}{c}",
                    f"({sign}{a}{sp()}/{sp()}{den})",
                    f"-{sp()}-{a}",
                    f"{b}^{draw(st.integers(0, 3))}",
                    f"t1{sp()}-{sp()}t1",
                ]
            )
        )

    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    text, entries = sp() + "[" + sp(), []
    for i in range(rows):
        text += ";" + sp() if i else ""
        text += "["
        for j in range(cols):
            text += "," if j else ""
            e = sp() + entry() + sp()
            entries.append((e, len(text)))
            text += e
        text += "]" + sp()
    return field, text + "]" + sp(), entries


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrix_texts())
def test_matrix_reader_matches_the_expression_parser(case):
    field, text, entries = case
    scalars = []
    for e, offset in entries:
        try:
            scalars.append(parse_poly(e, field, 1, 1, 1 + offset).coeff((0,)))
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_matrix(text, field)
            assert str(got.value) == str(exc)
            return
    m = parse_matrix(text, field)
    expected = [scalars[i : i + m.cols] for i in range(0, len(scalars), m.cols)]
    assert m == Matrix(field, expected)
    assert [list(r) for r in m.entries] == expected
    assert all(type(x) is type(field.zero) for row in m.entries for x in row)


PLAIN_FIELDS = [QQ, GF(2), GF(97), GF(2**31 - 1)]


@st.composite
def plain_matrix_texts(draw):
    """(field, text): a matrix literal whose entries are all plain, [+-] a
    or [+-] a/b with b nonzero in the field, with random spaces, tabs and
    signs."""
    field = draw(st.sampled_from(PLAIN_FIELDS))
    p = field.characteristic
    spaces = st.sampled_from(["", "", " ", "  ", "\t", " \t "])

    def entry():
        sign = draw(st.sampled_from(["", "+", "-"]))
        a = draw(NUMBERS)
        if draw(st.booleans()):
            return draw(spaces) + sign + draw(spaces) + str(a) + draw(spaces)
        b = draw(NUMBERS)
        b += not b or (p and not b % p)  # nonzero in the field
        parts = (sign, str(a), "/", str(b))
        return draw(spaces) + draw(spaces).join(parts) + draw(spaces)

    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    body = (draw(spaces) + ";" + draw(spaces)).join(
        "[" + ",".join(entry() for _ in range(cols)) + "]" for _ in range(rows)
    )
    return field, draw(spaces) + "[" + draw(spaces) + body + draw(spaces) + "]" + draw(spaces)


def read_both(text, field):
    """(parse_matrix's result, the entry-by-entry reader's), each a Matrix
    or the (message, line, column) of its ParseError."""

    def outcome(read):
        try:
            return read()
        except ParseError as exc:
            return str(exc), exc.line, exc.column

    return (
        outcome(lambda: parse_matrix(text, field, 3, 5)),
        outcome(lambda: _walk_matrix(text, field, 3, 5, 1)),
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(plain_matrix_texts())
@example((QQ, "[[ - 3 , + 4 ];[ 7 / 2 ,\t-\t0]]"))
@example((GF(2**31 - 1), f"[[-{2**70}/{2**31 - 2}, 1/2]]"))
def test_one_pass_reader_matches_the_entry_by_entry_reader(case):
    # the one-pass reader takes every plain literal, and reads the matrix
    # the expression parser reads entry by entry
    field, text = case
    m = _plain_matrix(text, field)
    reference = _walk_matrix(text, field, 1, 1, 1)
    assert m is not None and m == reference
    assert m.entries == reference.entries
    assert all(type(x) is type(field.zero) for row in m.entries for x in row)


LONG_LITERAL = "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("field", PLAIN_FIELDS, ids=repr)
@pytest.mark.parametrize(
    "text",
    [
        "[[1_000]]",  # int() reads it, the grammar does not
        "[[\u00b2]]",
        "[[\u0663]]",
        "[[ 1\u00a0]]",
        "[[1, 2/{p}]; [3, 4]]",  # a denominator 0 in the field
        "[[1, -2/{p}0]]",
        f"[[1, {LONG_LITERAL}]]",
        f"[[1/{LONG_LITERAL}]]",
        "[[1,2];[3]]",
        "[[];[1]]",
        "[[1,2];[]]",
        "[[]]",
        "[[ ] ]",
        "[[];[]]",
        "[[1 2]]",
        "[[1/2/3]]",
        "[[1/-2]]",
        "[[--3]]",
        "[[1,,2]]",
        "[[1]];[[2]]",
        "[[1]",
        "[[1]]]",
        "[1,2]",
        "[[1;2]]",
        "[[1],[2]]",
    ],
)
def test_one_pass_reader_faults_match_the_entry_by_entry_reader(field, text):
    text = text.format(p=field.characteristic)
    got, expected = read_both(text, field)
    assert got == expected


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


def test_tabs_separate_directives():
    job = parse_input("field\tQ\nvars\t2\ndim\t2\n[[1,0];[0,1]]\n[[0,1];[0,0]]\nnum\tt+1\n")
    assert (job.field, job.nvars, job.dim) == (QQ, 2, 2)
    assert str(job.tildes[0]) == "t + 1"
    assert parse_input("field \t F\t97\n").field == GF(97)
    # error columns point into the line: '@' is the 8th character of
    # "num\t t+@" and of "num  t+@", and the 10th of " num\t\t t+@"
    for line, col in (("num\t t+@", 8), ("num  t+@", 8), (" num\t\t t+@", 10)):
        with pytest.raises(ParseError, match="unexpected character '@'") as e:
            parse_input(f"field Q\n{line}\n")
        assert (e.value.line, e.value.column) == (2, col)
    # no separator: the column one past the end of the directive
    with pytest.raises(ParseError) as e:
        parse_input("field Q\nnum\n")
    assert (e.value.line, e.value.column) == (2, 5)


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
    for name in ("R", "F\u0663", "F\u00b3"):
        with pytest.raises(ValueError):
            field_from_string(name)


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


def test_class_json_adds_repeated_keys():
    def entry(mult):
        return {"generators": ["t - 1"], "degree": 1, "multiplicity": mult}

    obj = {"field": "Q", "nvars": 1, "class": [entry(2), entry(3)]}
    assert class_from_json(obj).lines() == ["5 * [t - 1]"]
    obj["class"] = [entry(2), entry(-2)]
    assert class_from_json(obj).is_zero
    obj["class"] = [entry(2), dict(entry(1), degree=2)]
    with pytest.raises(ValueError):
        class_from_json(obj)


def test_class_json_builds_one_regular_representation_per_entry(monkeypatch):
    # the entry's commutation and annihilator check and its field test
    # share one regular tuple
    calls = []
    original = modules._regular_maps
    for module in (modules, parse_module):
        monkeypatch.setattr(module, "_regular_maps", lambda i: calls.append(i) or original(i))
    entries = [
        {"generators": ["t1^2 + 92", "t2 + 92"], "degree": 2, "multiplicity": 1},
        {"generators": ["t1 + 3", "t2"], "degree": 1, "multiplicity": 2},
    ]
    obj = {"field": "F97", "nvars": 2, "class": entries[:1]}
    assert class_from_json(obj).lines() == ["1 * [t1^2 + 92, t2 + 92]"]
    assert len(calls) == 1
    obj["class"] = entries
    assert len(class_from_json(obj).items()) == 2 and len(calls) == 3


def test_class_json_roundtrip_zero():
    obj = {"field": "Q", "nvars": 1, "class": []}
    assert class_from_json(obj) == GrothendieckClass.zero(QQ, 1)


@pytest.mark.parametrize(
    "field, gens, degree",
    [
        ("Q", ["t1^2", "t2"], 2),  # k[t1]/(t1^2) is not reduced
        ("Q", ["t1^2 + t2", "t2^2"], 4),  # a Groebner basis, not reduced
        ("Q", ["t1 - t2", "t2^2 - 2", "t1^2 - 2"], 2),  # maximal, t1^2 - 2 redundant
        ("Q", ["t1^2 - 2", "t2^2 - 2"], 4),  # Q(sqrt 2) x Q(sqrt 2)
        ("Q", ["t1^2 + t2", "t1*t2 + 1", "t2^2 + t1"], 3),  # no Groebner basis
        ("F2", ["t1^2", "t2"], 2),
    ],
)
def test_class_json_rejects_keys_that_are_not_maximal_in_reduced_form(field, gens, degree):
    # the degree is the quotient dimension, so only the key check can fail
    entry = {"generators": gens, "degree": degree, "multiplicity": 1}
    obj = {"field": field, "nvars": 2, "class": [entry]}
    with pytest.raises(ValueError, match="not a maximal ideal in reduced form"):
        class_from_json(obj)
    entry["generators"] = ["t1 - t2", "t2^2 - 2"] if field == "Q" else ["t1", "t2"]
    entry["degree"] = 2 if field == "Q" else 1
    assert len(class_from_json(obj).items()) == 1


def test_every_sweep_class_round_trips():
    # each "class" line of the byte-identity sweep, read back through JSON
    # with the degree of each key's quotient, renders as the same line
    field = None
    read = 0
    for line in (Path(__file__).parent / "data" / "sweep.txt").read_text().splitlines():
        head, _, body = line.partition(" ")
        if head not in ("class", "piece", "radical", "annihilator", "standard"):
            field = field_from_string(head)
        if head != "class":
            continue
        nvars = max(int(i or 1) for i in re.findall(r"t(\d*)", body))
        entries = []
        for term in body.split("; "):
            mult, _, gens = term.partition(" * ")
            gens = gens[1:-1].split(", ")
            ideal = Ideal.from_groebner_basis(
                field, nvars, [parse_poly(g, field, nvars) for g in gens]
            )
            entries.append(
                {"generators": gens, "degree": ideal.quotient_dim, "multiplicity": int(mult)}
            )
        cls = class_from_json({"field": repr(field), "nvars": nvars, "class": entries})
        assert "; ".join(cls.lines()) == body
        assert cls.to_json_entries() == entries
        read += 1
    assert read == 178


@pytest.mark.parametrize(
    "name, value",
    [
        ("nvars", 1.5),
        ("nvars", "1"),
        ("degree", 1.7),
        ("degree", True),
        ("multiplicity", 2.9),
        ("multiplicity", "2"),
        ("multiplicity", None),
    ],
)
def test_class_json_rejects_non_integers(name, value):
    # never truncated: "multiplicity": 2.9 is not read as 2
    entry = {"generators": ["t - 1"], "degree": 1, "multiplicity": 2}
    obj = {"field": "Q", "nvars": 1, "class": [entry]}
    assert class_from_json(obj).lines() == ["2 * [t - 1]"]
    (obj if name == "nvars" else entry)[name] = value
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        class_from_json(obj)
    # a JSON number with an integral value is that integer
    (obj if name == "nvars" else entry)[name] = 2.0 if name == "multiplicity" else 1.0
    assert class_from_json(obj).lines() == ["2 * [t - 1]"]
