import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endok import cli, modules
from endok.bruteforce import random_commuting_tuple
from endok.cli import main
from endok.fields import GF, QQ
from endok.ktheory import k0_class
from endok.linalg import Matrix
from endok.modules import CommutingTuple, Ideal
from endok.parse import class_from_json, parse_input
from endok.poly import MultiPoly, UniPoly

from conftest import conjugate, fat_point, job_text, src_env

DIAG_Q = "field Q\nvars 1\ndim 2\n[[0,0];[0,1]]\n"
J2_Q = "field Q\nvars 1\ndim 2\n[[0,1];[0,0]]\n"
COMP_F3 = "field F 3\nvars 1\ndim 2\n[[0,-1];[1,0]]\n"
PAIR_F2 = "field F 2\nvars 2\ndim 2\n[[0,1];[0,0]]\n[[0,0];[0,0]]\n"


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def job(tmp_path, text, name="job.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_class_outputs(tmp_path, capsys):
    cases = {
        DIAG_Q: "1 * [t]\n1 * [t - 1]\n",
        J2_Q: "2 * [t]\n",
        COMP_F3: "1 * [t^2 + 1]\n",
        PAIR_F2: "2 * [t1, t2]\n",
    }
    for text, expected in cases.items():
        code, out, err = run(capsys, ["class", job(tmp_path, text)])
        assert code == 0 and err == ""
        assert out == expected


def test_split_output(tmp_path, capsys):
    code, out, _ = run(capsys, ["split", job(tmp_path, J2_Q)])
    assert code == 0 and out == "rank 2\ntilde 1\n"
    code, out, _ = run(capsys, ["split", job(tmp_path, DIAG_Q)])
    assert out == "rank 2\ntilde t + 1\n"


def test_charpoly_output(tmp_path, capsys):
    code, out, _ = run(capsys, ["charpoly", job(tmp_path, COMP_F3)])
    assert code == 0
    assert out == "charpoly t^2 + 1\nlambda t^2 + 1\n"


def test_decompose_output(tmp_path, capsys):
    code, out, _ = run(capsys, ["decompose", job(tmp_path, DIAG_Q)])
    assert code == 0
    assert out == (
        "piece 1: dim 1, key [t], residue 1\n"
        "piece 2: dim 1, key [t - 1], residue 1\n"
    )


def test_radical_output(tmp_path, capsys):
    code, out, _ = run(capsys, ["radical", job(tmp_path, J2_Q)])
    assert code == 0
    assert out == "radical dim 1\nbasis [[1,0]]\nlayers 1 1\n"


def test_radical_takes_one_charpoly_per_generator(tmp_path, capsys, monkeypatch):
    # the radical series evaluates each s_i(f_i) once, on V, and reads the
    # radical and every layer off it: one characteristic polynomial per
    # generator, and no restriction or quotient
    charpolys, others = [], []
    original = modules.charpoly
    monkeypatch.setattr(modules, "charpoly", lambda m: charpolys.append(m.rows) or original(m))
    for name in ("restrict", "quotient"):
        monkeypatch.setattr(CommutingTuple, name, lambda self, s, name=name: others.append(name))
    J3_Q = "field Q\nvars 1\ndim 3\n[[0,1,0];[0,0,1];[0,0,0]]\n"
    fat = conjugate(fat_point(GF(3), 3, 3), random.Random(7))
    cases = [(DIAG_Q, [2]), (J2_Q, [1, 1]), (J3_Q, [1, 1, 1]), (PAIR_F2, [1, 1])]
    cases.append((job_text(fat), [1, 3, 6]))
    for text, layers in cases:
        charpolys.clear()
        code, out, _ = run(capsys, ["radical", job(tmp_path, text), "--json"])
        doc = json.loads(out)
        assert code == 0 and doc["layer_dims"] == layers
        assert charpolys == [doc["dim"]] * doc["nvars"]
    assert others == []


def test_radical_layers_match_the_filtration(tmp_path, capsys):
    rng = random.Random(41)
    semisimple = CommutingTuple(
        QQ, 2, 3, [Matrix(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 2]]), Matrix.identity(QQ, 3)]
    )
    cases = [CommutingTuple.zeros(QQ, 1, 0), CommutingTuple.zeros(GF(2), 2, 0), semisimple]
    for field in (QQ, GF(2), GF(97)):
        # most random tuples are semisimple; fat points have several layers
        fat = fat_point(field, 2, 3)
        cases += [fat, conjugate(CommutingTuple.direct_sum(fat, fat_point(field, 2, 2)), rng)]
        for _ in range(8):
            cases.append(random_commuting_tuple(field, rng.randint(1, 3), rng.randint(1, 6), rng))
    for t in cases:
        layers = [layer.dim for layer in t.radical_filtration()]
        code, out, _ = run(capsys, ["radical", job(tmp_path, job_text(t)), "--json"])
        assert code == 0 and json.loads(out)["layer_dims"] == layers
        code, out, _ = run(capsys, ["radical", job(tmp_path, job_text(t))])
        assert out.splitlines()[-1] == " ".join(["layers"] + [str(d) for d in layers])
    assert [layer.dim for layer in semisimple.radical_filtration()] == [3]


def test_annihilator_output(tmp_path, capsys):
    code, out, _ = run(capsys, ["annihilator", job(tmp_path, PAIR_F2)])
    assert code == 0
    assert out == "generator t1^2\ngenerator t2\nstandard 1, t1\ndimension 2\n"


def test_verify_additivity_output(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify-additivity", job(tmp_path, DIAG_Q)])
    assert code == 0
    assert out == "additivity ok (4 submodules)\n"


def test_verify_additivity_failure_exits_2(tmp_path, capsys, monkeypatch):
    # the documented failure path, with the check failing on submodule 1
    path = job(tmp_path, DIAG_Q)
    for args in (["verify-additivity", path], ["verify-additivity", path, "--json"]):
        seen = []
        monkeypatch.setattr(cli, "verify_additivity", lambda t, s: seen.append(s) or len(seen) != 2)
        code, out, err = run(capsys, args)
        assert code == 2 and err == "" and len(seen) == 4
        if "--json" in args:
            obj = json.loads(out)
            assert obj["ok"] is False and obj["failures"] == [1] and obj["submodules"] == 4
        else:
            assert out == "additivity FAILED for submodule 1\n"


def test_oracle_check_output(tmp_path, capsys):
    code, out, _ = run(capsys, ["oracle-check", job(tmp_path, PAIR_F2)])
    assert code == 0
    assert out.endswith("oracle ok\n")
    # the oracle needs a prime field
    code, out, err = run(capsys, ["oracle-check", job(tmp_path, DIAG_Q)])
    assert code == 1 and "prime field" in err


def test_tilde_commands(tmp_path, capsys):
    text = "field Q\nnum 1+2*t+t^2\nden 1+t\nnum 1+t\n"
    code, out, _ = run(capsys, ["tilde-mul", job(tmp_path, text)])
    assert code == 0 and out == "tilde t^2 + 2*t + 1\n"
    text = "field Q\nnum 1+2*t+t^2\nden 1+t\n"
    code, out, _ = run(capsys, ["tilde-map", job(tmp_path, text)])
    assert code == 0 and out == "1 * [t - 1]\n"
    code, _, err = run(capsys, ["tilde-map", job(tmp_path, "field Q\n")])
    assert code == 1 and "exactly one" in err


def principal_job(field, r, a, b, c):
    """A pair whose pieces all get principal keys: t1 acts as
    C (+) C (+) a.I_2, C the companion matrix of an irreducible t^2 - r,
    and t2 as b.I_4 (+) c.I_2, so that each piece is wider than its
    residue degree."""
    i2 = Matrix.identity(field, 2)
    block = CommutingTuple(field, 2, 2, [Matrix.companion(UniPoly(field, [-r, 0, 1])), i2.scale(b)])
    point = CommutingTuple(field, 2, 2, [i2.scale(a), i2.scale(c)])
    return job_text(CommutingTuple.direct_sum(block, block, point))


PRINCIPAL = {
    "F97": (
        principal_job(GF(97), 5, 11, 41, 53),
        ["2 * [t1 + 86, t2 + 44]", "2 * [t1^2 + 92, t2 + 56]"],
    ),
    "Q": (
        principal_job(QQ, 7, -3, 5, Fraction(1, 2)),
        ["2 * [t1 + 3, t2 - 1/2]", "2 * [t1^2 - 7, t2 - 5]"],
    ),
}


@pytest.mark.parametrize("field", sorted(PRINCIPAL))
def test_principal_keys_sort_and_render_with_no_ideal(field, tmp_path, capsys, monkeypatch):
    # a key made from the q_i renders its own term tuples: sorting and
    # printing its class, in-process and through the CLI, builds no Ideal
    text, expected = PRINCIPAL[field]
    calls = []
    build = Ideal.from_groebner_basis.__func__
    monkeypatch.setattr(
        Ideal, "from_groebner_basis", classmethod(lambda *a: calls.append(a) or build(*a))
    )
    gc.collect()  # no live key from an earlier test has its ideal yet
    cls = k0_class(parse_input(text).tuple())
    assert cls.lines() == expected
    assert [e["degree"] for e in cls.to_json_entries()] == [1, 2]
    path = job(tmp_path, text)
    code, out, _ = run(capsys, ["class", path, "--json"])
    assert code == 0
    obj = json.loads(out)
    code, out, _ = run(capsys, ["decompose", path])
    assert code == 0 and out.count("piece") == 2
    assert calls == []
    # reading the class back builds one Ideal per entry, from its text
    assert class_from_json(obj) == cls and len(calls) == 2


def test_json_output_and_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, ["class", job(tmp_path, COMP_F3), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == "F3" and obj["dim"] == 2
    cls = class_from_json(obj)
    assert cls.lines() == ["1 * [t^2 + 1]"]


def test_dim_zero_class_prints_nothing(tmp_path, capsys):
    code, out, _ = run(capsys, ["class", job(tmp_path, "field Q\nvars 1\ndim 0\n[[]]\n")])
    assert code == 0 and out == ""


def test_input_errors_exit_1(tmp_path, capsys):
    code, out, err = run(capsys, ["class", job(tmp_path, "field F 4\nvars 1\ndim 1\n[[1]]\n")])
    assert code == 1 and "not prime" in err and out == ""
    code, out, err = run(capsys, ["class", str(tmp_path / "missing.txt")])
    assert code == 1 and out == ""
    code, out, err = run(
        capsys,
        ["class", job(tmp_path, "field Q\nvars 2\ndim 2\n[[0,1];[0,0]]\n[[0,0];[1,0]]\n")],
    )
    assert code == 1 and "do not commute" in err


@pytest.mark.parametrize(
    "command, text, expected",
    [
        ("tilde-map", "field Q\nnum t^\u00b2\n", "2:7: unexpected character '\u00b2'"),
        ("tilde-map", "field Q\nnum t\u00b2\n", "2:6: unexpected character '\u00b2'"),
        ("tilde-map", "field Q\nnum 1+t\u0661\n", "2:8: unexpected character '\u0661'"),
        ("class", "field Q\nvars \u00b2\ndim 1\n[[1]]\n", "2:1: vars takes a positive integer"),
        ("class", "field Q\nvars \u0662\ndim 1\n[[1]]\n", "2:1: vars takes a positive integer"),
        ("class", "field Q\nvars 1\ndim \u00b2\n", "3:1: dim takes a nonnegative integer"),
        ("class", "field F \u00b3\n", "1:1: expected 'field Q' or 'field F <p>'"),
        ("class", "field F \u0663\n", "1:1: expected 'field Q' or 'field F <p>'"),
    ],
    ids=["num-exponent", "num-name", "num-arabic", "vars", "vars-arabic", "dim", "field", "field-arabic"],
)
def test_non_ascii_digits_are_input_errors(tmp_path, capsys, command, text, expected):
    # only 0-9 are digits: others neither crash int() nor read as a number
    code, out, err = run(capsys, [command, job(tmp_path, text)])
    assert (code, out, err) == (1, "", f"error: {expected}\n")


LIMIT = sys.get_int_max_str_digits()
LONG = "1" * (LIMIT + 1)  # one digit more than int() converts


@pytest.mark.parametrize(
    "command, text, pos",
    [
        ("class", f"field Q\nvars {LONG}\n", "2:6"),
        ("class", f"field Q\nvars 1\ndim  {LONG}\n", "3:6"),
        ("class", f"field  F   {LONG}\n", "1:12"),
        ("class", f"field Q\nvars 1\ndim 1\n[[ -{LONG}]]\n", "4:5"),
        ("class", f"field F 5\nvars 1\ndim 1\n[[1/{LONG}]]\n", "4:5"),
        ("class", f"field Q\nvars 1\ndim 1\n[[2^{LONG}]]\n", "4:5"),
        ("tilde-map", f"field Q\nnum 1+t^{LONG}\n", "2:9"),
        ("tilde-map", f"field Q\nnum t\nden 1 + {LONG}*t\n", "3:9"),
        ("tilde-map", f"field Q\nnum 1+t{LONG}\n", "2:8"),
    ],
    ids=["vars", "dim", "field", "entry", "entry-den", "entry-exponent", "num-exponent", "den", "variable"],
)
def test_integers_past_the_digit_limit_are_input_errors(tmp_path, capsys, command, text, pos):
    # int() converts at most sys.get_int_max_str_digits() digits: a longer
    # literal is an input error at its own position, naming the limit
    code, out, err = run(capsys, [command, job(tmp_path, text)])
    expected = f"error: {pos}: integer exceeds the limit of {LIMIT} digits\n"
    assert (code, out, err) == (1, "", expected)


def digits_value(text):
    """The integer a decimal string denotes, read 1000 digits at a time:
    no conversion comes near the interpreter's digit limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


REPUNIT = (10**3000 - 1) // 9  # 3000 ones


@pytest.mark.parametrize(
    "entry, x",
    [("1" * 3000, Fraction(REPUNIT)), ("1" * 3000 + "/1" + "0" * 3000, Fraction(REPUNIT, 10**3000))],
    ids=["integer", "fraction"],
)
def test_results_past_the_digit_limit_print_exactly(tmp_path, capsys, entry, x):
    # [[x,1];[1,x]] has charpoly t^2 - 2x*t + (x^2 - 1), and x^2 - 1 has
    # about 6000 digits in its numerator (and denominator): more than
    # str(int) converts, yet printed digit for digit
    limit = sys.get_int_max_str_digits()
    path = job(tmp_path, f"field Q\nvars 1\ndim 2\n[[{entry},1];[1,{entry}]]\n")
    code, out, err = run(capsys, ["charpoly", path])
    assert (code, err) == (0, "")
    line, lam = out.splitlines()
    number = r"([0-9]+)(?:/([0-9]+))?"
    m = re.fullmatch(rf"charpoly t\^2 - {number}\*t ([+-]) {number}", line)

    def value(num, den):
        return Fraction(digits_value(num), digits_value(den or "1"))

    assert m and value(m[1], m[2]) == 2 * x
    assert (-1 if m[3] == "-" else 1) * value(m[4], m[5]) == x * x - 1
    assert len(m[4]) > limit
    code, out, err = run(capsys, ["charpoly", path, "--json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)["matrices"]
    assert [f"charpoly {doc[0]['charpoly']}", f"lambda {doc[0]['lambda']}"] == [line, lam]
    assert sys.get_int_max_str_digits() == limit


def nested(depth, inner):
    return "(" * depth + inner + ")" * depth


def test_deep_nesting_is_an_input_error(tmp_path, capsys):
    # deeper than the interpreter's stack: exit 1 with a positioned
    # error line, never the internal-error exit 3
    jobs = {
        "tilde-map": f"field Q\nnum {nested(400, 't')}\n",
        "class": f"field F 97\nvars 1\ndim 1\n[[{nested(400, '1')}]]\n",
    }
    # the error sits at the expression's first '(', however deep the
    # caller's stack already is
    for (command, text), pos in zip(jobs.items(), ("2:5", "4:3")):
        path = job(tmp_path, text, f"{command}.txt")
        expected = f"error: {pos}: expression is nested too deeply\n"
        code, out, err = run(capsys, [command, path])
        assert (code, out, err) == (1, "", expected)
        proc = subprocess.run(
            [sys.executable, "-m", "endok.cli", command, path],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected)
    code, out, err = run(capsys, ["class", job(tmp_path, f"field Q\nvars 1\ndim 1\n[[{nested(100, '1/2')}]]\n")])
    assert (code, out, err) == (0, "1 * [t - 1/2]\n", "")


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
def test_huge_constant_power_is_an_input_error(error, tmp_path, capsys, monkeypatch):
    # 2^9999999999999 does not fit in memory; a stand-in power raises as
    # the real one would, so that the test allocates nothing, and the job
    # ends in exit 1 at the exponent's line:column, with no traceback
    def too_large(self, e):
        raise error

    monkeypatch.setattr(MultiPoly, "__pow__", too_large)
    path = job(tmp_path, "field Q\nvars 1\ndim 1\n[[2^9999999999999]]\n")
    code, out, err = run(capsys, ["class", path])
    assert (code, out, err) == (1, "", "error: 4:5: entry too large\n")


def test_huge_constant_power_under_a_memory_limit(tmp_path):
    # the real 2^9999999999999, in a child whose address space alone is
    # limited to 256 MB: the power runs out of memory within seconds, and
    # the job ends in exit 1 at the exponent, with no traceback
    resource = pytest.importorskip("resource")
    limit = 256 << 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    path = job(tmp_path, "field Q\nvars 1\ndim 1\n[[2^9999999999999]]\n")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "endok.cli", "class", path],
        capture_output=True,
        text=True,
        env={**src_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: 4:5: entry too large\n")
    assert time.monotonic() - start < 5


def test_memory_error_anywhere_is_one_error_line(tmp_path, capsys, monkeypatch):
    # a MemoryError outside the parser, here from a stand-in class
    # computation, is one error line and exit 1, not a traceback
    def no_memory(t):
        raise MemoryError

    monkeypatch.setattr(cli, "k0_class", no_memory)
    code, out, err = run(capsys, ["class", job(tmp_path, DIAG_Q)])
    assert (code, out, err) == (1, "", "error: out of memory\n")
    assert "Traceback" not in err


COMMAND_NAMES = (
    "class",
    "charpoly",
    "split",
    "decompose",
    "radical",
    "annihilator",
    "verify-additivity",
    "tilde-mul",
    "tilde-map",
    "oracle-check",
)


# the valid jobs the fuzz property edits; '^' is neither in them nor among
# the characters an edit puts in, so no edit makes a power, whose value
# could outgrow memory (the test above runs one under a memory limit)
HALF_PAIR_Q = "field Q\nvars 2\ndim 2\n[[1/2,1];[0,1/2]]\n[[-3,0];[0,-3]]\n"
TILDE_Q = "field Q\nnum 1+2*t+t*t\nden 1-t\n"
VALID_JOBS = (DIAG_Q, COMP_F3, PAIR_F2, HALF_PAIR_Q, TILDE_Q)
EDIT_CHARS = "".join(sorted(set("".join(VALID_JOBS) + "#()\tx\u00e9")))


@st.composite
def edited_jobs(draw):
    """A valid job with one to four characters inserted, deleted or
    replaced."""
    text = draw(st.sampled_from(VALID_JOBS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        c = draw(st.sampled_from(EDIT_CHARS))
        if edit == "insert":
            text = text[:i] + c + text[i:]
        else:
            text = text[:i] + (c if edit == "replace" else "") + text[i + 1 :]
    return text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edited_jobs())
def test_edited_jobs_end_in_an_exit_code_never_a_traceback(text):
    # every command, in-process: a result, an input error or a failed
    # verification, and never an exception or an internal error
    for command in COMMAND_NAMES:
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "-"])
        finally:
            sys.stdin = stdin
        message = err.getvalue()
        assert code in (0, 1, 2), (command, message)
        assert "Traceback" not in message and "internal" not in message


def test_unknown_command_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope", "-"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    usage = "{" + ",".join(COMMAND_NAMES) + "}"
    choices = ", ".join(f"'{c}'" for c in COMMAND_NAMES)
    assert usage in err.split()
    assert err.endswith(
        f"endok: error: argument command: invalid choice: 'nope' (choose from {choices})\n"
    )
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: endok [-h] [--json] [--seed SEED]")
    assert usage in out.split()


@pytest.mark.parametrize(
    "text, expected",
    [
        ("field Q\nnum   t+@\n", "2:9: unexpected character '@'"),
        ("field Q\n  num   t^\u00b2\n", "2:11: unexpected character '\u00b2'"),
        ("field Q\nnum t\nden   t+@\n", "3:9: unexpected character '@'"),
        ("field Q\nnum t+@\n", "2:7: unexpected character '@'"),
        ("field Q\n  num t^\u00b2\n", "2:9: unexpected character '\u00b2'"),
        ("field Q\nnum t\nden t+@\n", "3:7: unexpected character '@'"),
        ("field Q\nnum\n", "2:5: expected a number, variable or parenthesized expression"),
    ],
    ids=["num-spaces", "num-indent-spaces", "den-spaces", "num", "num-indent", "den", "num-empty"],
)
def test_num_den_errors_point_into_the_line(tmp_path, capsys, text, expected):
    # the column is where the polynomial's text starts, however many
    # spaces follow the directive
    code, out, err = run(capsys, ["tilde-map", job(tmp_path, text)])
    assert (code, out, err) == (1, "", f"error: {expected}\n")


@pytest.mark.parametrize("exponent", [10**18, 10**20], ids=["memory", "index"])
@pytest.mark.parametrize("directive", ["num", "den"])
def test_huge_num_den_degrees_are_input_errors(tmp_path, capsys, directive, exponent):
    # a dense coefficient list of 10^18 + 1 entries fails to allocate at
    # once, and one of 10^20 + 1 entries does not fit an index: either is
    # an input error at the polynomial's position, naming its degree
    if directive == "num":
        text, pos = f"field F 5\nnum t^{exponent}\n", "2:5"
    else:
        text, pos = f"field F 5\nnum t\nden  t^{exponent} + 1\n", "3:6"
    code, out, err = run(capsys, ["tilde-map", job(tmp_path, text)])
    assert (code, out, err) == (1, "", f"error: {pos}: polynomial degree {exponent} is too large\n")


def test_huge_degree_past_the_digit_limit_is_named_by_a_power_of_two(tmp_path, capsys):
    # a degree with more digits than str() converts is named by its
    # leading power of two
    nines = "9" * sys.get_int_max_str_digits()
    degree = 2 * int(nines)
    text = f"field F 5\nnum t^{nines}*t^{nines}\n"
    code, out, err = run(capsys, ["tilde-map", job(tmp_path, text)])
    expected = f"error: 2:5: polynomial degree at least 2^{degree.bit_length() - 1} is too large\n"
    assert (code, out, err) == (1, "", expected)


def test_internal_error_exit_3(tmp_path, capsys, monkeypatch):
    from endok.modules import CommutingTuple

    def broken(self):
        raise RuntimeError("primary decomposition lost dimensions")

    monkeypatch.setattr(CommutingTuple, "_local_pieces", broken)
    code, out, err = run(capsys, ["class", job(tmp_path, PAIR_F2)])
    assert code == 3 and out == ""
    assert err == "error: internal: primary decomposition lost dimensions\n"


def test_internal_error_exit_3_single_endomorphism(tmp_path, capsys, monkeypatch):
    import endok.ktheory

    def broken(f):
        raise RuntimeError("factorization failed")

    monkeypatch.setattr(endok.ktheory, "factor_univariate", broken)
    code, out, err = run(capsys, ["class", job(tmp_path, DIAG_Q)])
    assert code == 3 and out == ""
    assert err == "error: internal: factorization failed\n"


@pytest.mark.parametrize("exc", [TypeError, ZeroDivisionError])
def test_program_faults_are_internal_errors(tmp_path, capsys, monkeypatch, exc):
    # no job text reaches these; input errors are ValueErrors
    def broken(self):
        raise exc("unsupported operand")

    monkeypatch.setattr(modules.CommutingTuple, "_local_pieces", broken)
    code, out, err = run(capsys, ["class", job(tmp_path, PAIR_F2)])
    assert (code, out, err) == (3, "", "error: internal: unsupported operand\n")


def test_byte_identical_across_runs_and_processes(tmp_path):
    path = job(tmp_path, DIAG_Q)
    outs = [
        subprocess.run(
            [sys.executable, "-m", "endok.cli", "class", path, "--json"],
            capture_output=True,
            check=True,
            env=src_env(),
        ).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1]
    assert json.loads(outs[0].decode())["class"][0]["generators"] == ["t"]


def test_closed_stdout_is_one_error_line(tmp_path):
    # the read end of stdout's pipe is closed before the output is written:
    # exit 1 with one error line, and no traceback from the write or from
    # the flush at interpreter exit
    path = job(tmp_path, DIAG_Q)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "endok.cli", "class", path],
            stdout=w,
            stderr=subprocess.PIPE,
            text=True,
            env=src_env(),
        )
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr == "error: stdout was closed before the output was written\n"


def test_undecodable_input_is_an_input_error(tmp_path, capsys, monkeypatch):
    raw = b"field Q\nvars 1\ndim 1\n[[\xff]]\n"
    path = tmp_path / "bad.job"
    path.write_bytes(raw)
    code, out, err = run(capsys, ["class", str(path)])
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: .*can't decode byte 0xff.*\n", err)
    # stdin decoded strictly fails the same way; with surrogateescape (as in
    # a C locale) the stray byte is a positioned parse error
    cases = (
        ("strict", r"error: .*can't decode byte 0xff.*\n"),
        ("surrogateescape", r"error: 4:3: unexpected character '\\udcff'\n"),
    )
    for errors, expected in cases:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), "utf-8", errors))
        code, out, err = run(capsys, ["class", "-"])
        assert (code, out) == (1, "")
        assert re.fullmatch(expected, err)


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(J2_Q))
    code = main(["class", "-"])
    out = capsys.readouterr().out
    assert code == 0 and out == "2 * [t]\n"
