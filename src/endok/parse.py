"""Textual input: the scalar, polynomial, matrix and job-file grammars.

Shared grammar (whitespace insignificant inside expressions):

* scalars: integers and ``a/b`` fractions; digits are ASCII ``0-9`` here,
  in variable names and in the ``field``, ``vars`` and ``dim`` headers,
* polynomials: variables ``t`` (one variable) or ``t1..tn``; operators
  ``+ - * ^``; ``^`` takes a nonnegative integer literal; parentheses,
* matrices: ``[[a,b];[c,d]]`` with rows split by ``;``, entries by ``,``;
  ``[[]]`` denotes the 0 x 0 matrix.  Entries are constant expressions.
  A matrix whose entries are all plain literals (``[+-] a`` or
  ``[+-] a/b``) is checked by one regex and read in one pass, its
  integers going straight to the matrix's integer form N/D; any other
  matrix, and any faulty one, is read on one token stream, the whole
  literal tokenized once and each entry taken through the expression
  parser,
* job files, line oriented with ``#`` comments::

      field Q            (or: field F 5)
      vars 2
      dim 2
      [[0,1];[0,0]]
      [[0,0];[0,0]]

  Tilde-group inputs use ``num <poly>`` and optional ``den <poly>`` lines
  instead of matrices.

Errors carry a line:column position.
"""

import re
import sys
from dataclasses import dataclass, field as dataclass_field
from itertools import repeat
from math import lcm

import numpy as np

from .errors import NonCommutingError, ParseError
from .fields import GF, QQ, FieldSpec
from .ktheory import GrothendieckClass, TildeClass
from .linalg import Matrix
from .modules import (
    CommutingTuple,
    Ideal,
    MaximalIdealKey,
    _is_field,
    _regular_maps,
)
from .poly import MultiPoly


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r} at {self.line}:{self.col})"


_OPS = set("+-*/^()[];,")
# Digits and names are ASCII: str.isdigit would also take "²" or "٣"
_DIGITS = re.compile(r"[0-9]+")
_HEAD = re.compile(r"[^ \t]*")
_WORD = re.compile(r"([0-9]+)|[A-Za-z_][A-Za-z0-9_]*")


def _integer(digits, line, col):
    """int(digits) for a run of ASCII digits at line:col; more digits than
    the interpreter converts, ``sys.get_int_max_str_digits()``, is a
    ParseError there."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer exceeds the limit of {limit} digits", line, col) from None


def _tokenize(text, line=1, col=1):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        word = _WORD.match(text, i)
        if word:
            j = word.end()
            tokens.append(Token("int" if word.group(1) else "name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(Token("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


class _ExprParser:
    """Recursive-descent parser producing a MultiPoly."""

    def __init__(self, tokens, field, nvars):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_op(self, op):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            self.fail(f"expected {op!r}", tok)
        return tok

    def expect_end(self):
        if self.peek().kind != "end":
            self.fail("unexpected trailing input")

    def at_op(self, *ops):
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def parse_whole(self):
        """``parse_expr`` for a whole polynomial or matrix entry: nesting
        deeper than the interpreter's stack allows is an input error at
        the expression's first ``(``, wherever the stack ran out."""
        start = self.pos
        try:
            return self.parse_expr()
        except RecursionError:
            paren = next((t for t in self.tokens[start:] if t.text == "("), None)
            self.fail("expression is nested too deeply", paren)

    def parse_expr(self):
        acc = self.parse_term()
        while self.at_op("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            acc = acc + rhs if op.text == "+" else acc - rhs
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.at_op("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            if op.text == "*":
                acc = acc * rhs
            else:
                if rhs.total_degree not in (0, float("-inf")) or rhs.is_zero:
                    self.fail("denominator must be a nonzero constant", op)
                c = rhs.coeff((0,) * self.nvars)
                acc = acc.scale(self.field.inv(c))
        return acc

    def parse_factor(self):
        negate = False
        while self.at_op("+", "-"):
            if self.take().text == "-":
                negate = not negate
        base = self.parse_atom()
        if self.at_op("^"):
            self.take()
            tok = self.take()
            if tok.kind != "int":
                self.fail("exponent must be a nonnegative integer", tok)
            exponent = _integer(tok.text, tok.line, tok.col)
            try:
                base = base ** exponent
            except (MemoryError, OverflowError):
                # a constant's power is a Python integer longer than memory
                self.fail("entry too large", tok)
        return -base if negate else base

    def parse_atom(self):
        tok = self.take()
        if tok.kind == "int":
            value = _integer(tok.text, tok.line, tok.col)
            return MultiPoly.constant(self.field, self.nvars, value)
        if tok.kind == "name":
            return self.variable(tok)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        self.fail("expected a number, variable or parenthesized expression", tok)

    def variable(self, tok):
        name = tok.text
        if name == "t":
            if self.nvars != 1:
                self.fail(f"plain 't' is only valid with one variable; use t1..t{self.nvars}", tok)
            return MultiPoly.variable(self.field, 1, 0)
        if name.startswith("t") and _DIGITS.fullmatch(name, 1):
            idx = _integer(name[1:], tok.line, tok.col + 1)
            if not 1 <= idx <= self.nvars:
                self.fail(f"variable {name} is out of range 1..{self.nvars}", tok)
            return MultiPoly.variable(self.field, self.nvars, idx - 1)
        self.fail(f"unknown variable {name!r}", tok)


def parse_poly(text, field, nvars, line=1, col=1):
    parser = _ExprParser(_tokenize(text, line, col), field, nvars)
    poly = parser.parse_whole()
    parser.expect_end()
    return poly


def parse_unipoly(text, field, line=1, col=1):
    f = parse_poly(text, field, 1, line, col)
    try:
        return f.to_unipoly()
    except (MemoryError, OverflowError):
        # the dense coefficient list is longer than memory or an index holds
        degree = f.total_degree
        if degree.bit_length() > 14000:  # str() takes at most 4300 digits
            degree = f"at least 2^{degree.bit_length() - 1}"
        raise ParseError(f"polynomial degree {degree} is too large", line, col) from None


# A matrix literal whose entries are all plain, ``[+-] a`` or ``[+-] a/b``
# in ASCII digits, is checked by one regex and read in one pass; the
# regex is the only gate, as int() would also take "1_000" or "²".
_PLAIN_ENTRY_TEXT = r"[+-]?\s*[0-9]+(?:\s*/\s*[0-9]+|)"
_PLAIN_ROW = rf"\[\s*(?:{_PLAIN_ENTRY_TEXT}(?:\s*,\s*{_PLAIN_ENTRY_TEXT})*\s*)?\]"
_PLAIN_MATRIX = re.compile(rf"\s*\[\s*{_PLAIN_ROW}(?:\s*;\s*{_PLAIN_ROW})*\s*\]\s*")


def _plain_matrix(text, field):
    """The matrix of a literal whose entries are all plain, its integers
    taken straight to N/D; None for any other text, and for one with
    ragged rows, a denominator 0 in field or an integer past the digit
    limit, which ``_walk_matrix`` reports."""
    if not _PLAIN_MATRIX.fullmatch(text):
        return None
    compact = "".join(text.split())
    rows = compact[2:-2].split("];[")
    widths = {row.count(",") + 1 if row else 0 for row in rows}
    if len(widths) > 1:
        return None
    width = widths.pop()
    if not width:  # empty rows; [[]] is the 0 x 0 matrix
        return Matrix.zeros(field, 0 if rows == [""] else len(rows), 0)
    nums, dens = ",".join(rows).split(","), ["1"]
    if "/" in compact:
        nums, _, dens = zip(*map(str.partition, nums, repeat("/")))
        dens = [d or "1" for d in dens]
    try:
        num = np.array(list(map(int, nums)), dtype=object)
        dens = list(map(int, dens))
    except ValueError:
        return None  # more digits than int() converts
    # the entries over their least common denominator D: N/D exactly
    den = lcm(*dens)
    p = field.characteristic
    if not den or (p and not den % p):
        return None
    if den != 1:
        num = num * (den // np.array(dens, dtype=object))
        if p:
            num, den = num * pow(den, -1, p), 1
    return Matrix._from_integers(field, num.reshape(len(rows), width), den)


def _walk_matrix(text, field, line, col, nvars):
    """``parse_matrix`` on one token stream, each entry through the
    expression parser: the reader of literals with an expression entry,
    and the one that reports every fault at its line:column.  The whole
    text is tokenized first, so a bad character is reported before any
    other fault."""
    parser = _ExprParser(_tokenize(text, line, col), field, nvars)

    def entry():
        first = parser.peek()
        value = parser.parse_whole()
        if value.total_degree not in (0, float("-inf")):
            parser.fail("matrix entries must be scalars", first)
        return value.coeff((0,) * nvars)

    def row():
        parser.expect_op("[")
        entries = [] if parser.at_op("]") else [entry()]  # [] is an empty row
        while parser.at_op(","):
            parser.take()
            entries.append(entry())
        parser.expect_op("]")
        return entries

    opening = parser.expect_op("[")
    rows = [row()]
    while parser.at_op(";"):
        parser.take()
        rows.append(row())
    parser.expect_op("]")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        parser.fail("ragged matrix rows", opening)
    parser.expect_end()
    # [[]] is the 0 x 0 matrix
    return Matrix(field, [] if rows == [[]] else rows, width)


def parse_matrix(text, field, line=1, col=1, nvars=1):
    """The whole text as one matrix literal ``[[a,b];[c,d]]`` over field,
    its entries constant expressions in t1..t{nvars}; text starts at
    line:col, which error positions count from."""
    m = _plain_matrix(text, field)
    return _walk_matrix(text, field, line, col, nvars) if m is None else m


@dataclass
class JobDescription:
    """A parsed job file: the coefficient field plus either a matrix tuple
    (vars/dim/matrices) or a list of tilde fractions (num/den lines)."""

    field: FieldSpec
    nvars: int | None = None
    dim: int | None = None
    matrices: list = dataclass_field(default_factory=list)
    tildes: list = dataclass_field(default_factory=list)

    def tuple(self):
        if self.nvars is None or self.dim is None:
            raise ValueError("job declares no vars/dim header")
        if len(self.matrices) != self.nvars:
            raise ValueError(
                f"job declares vars {self.nvars} but provides "
                f"{len(self.matrices)} matrices"
            )
        return CommutingTuple(self.field, self.nvars, self.dim, self.matrices)


def _split_directive(line):
    """(head, rest, start): the text before the first space or tab, the
    text after that separator without its leading whitespace, and rest's
    offset in line."""
    head = _HEAD.match(line)[0]
    rest = line[len(head) + 1 :]
    start = len(head) + 1 + len(rest) - len(rest.lstrip())
    return head, rest.strip(), start


def parse_input(text):
    """Parse a job file; malformed input is rejected with positions before
    any computation runs."""
    field = None
    nvars = None
    dim = None
    matrices = []
    tildes = []
    pending_num = None

    def flush_pending(den=None):
        nonlocal pending_num
        if pending_num is not None:
            num, numline = pending_num
            pending_num = None
            try:
                tildes.append(TildeClass(num, den))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(str(exc), numline, 1) from None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip()) + 1
        head, rest, start = _split_directive(stripped)
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field line", lineno, indent)
            parts = rest.split()
            if parts == ["Q"]:
                field = QQ
            elif len(parts) == 2 and parts[0] == "F" and _DIGITS.fullmatch(parts[1]):
                p = _integer(parts[1], lineno, indent + start + len(rest) - len(parts[1]))
                try:
                    field = GF(p)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno, indent) from None
            else:
                raise ParseError(
                    "expected 'field Q' or 'field F <p>'", lineno, indent
                )
            continue
        if field is None:
            raise ParseError("the field line must come first", lineno, indent)
        if head == "vars":
            if not _DIGITS.fullmatch(rest) or _integer(rest, lineno, indent + start) < 1:
                raise ParseError("vars takes a positive integer", lineno, indent)
            nvars = int(rest)
        elif head == "dim":
            if not _DIGITS.fullmatch(rest):
                raise ParseError("dim takes a nonnegative integer", lineno, indent)
            dim = _integer(rest, lineno, indent + start)
        elif head == "num":
            flush_pending()
            pending_num = (parse_unipoly(rest, field, lineno, indent + start), lineno)
        elif head == "den":
            if pending_num is None:
                raise ParseError("den without a preceding num", lineno, indent)
            flush_pending(parse_unipoly(rest, field, lineno, indent + start))
        elif stripped.startswith("["):
            if nvars is None or dim is None:
                raise ParseError(
                    "vars and dim must be declared before matrices", lineno, indent
                )
            if len(matrices) >= nvars:
                raise ParseError(f"extra matrix beyond vars {nvars}", lineno, indent)
            m = parse_matrix(stripped, field, lineno, indent, nvars)
            if (m.rows, m.cols) != (dim, dim):
                raise ParseError(
                    f"matrix is {m.rows}x{m.cols}, expected {dim}x{dim}",
                    lineno,
                    indent,
                )
            matrices.append(m)
        else:
            raise ParseError(f"unrecognized directive {head!r}", lineno, indent)
    flush_pending()
    if field is None:
        raise ParseError("empty input: expected a field line", 1, 1)
    return JobDescription(field, nvars, dim, matrices, tildes)


# ---------------------------------------------------------------------------
# JSON round-trip for classes


def field_to_string(field):
    return repr(field)


def field_from_string(s):
    if s == "Q":
        return QQ
    if s.startswith("F") and _DIGITS.fullmatch(s, 1):
        return GF(int(s[1:]))
    raise ValueError(f"unknown field name {s!r}")


def _json_integer(obj, name):
    """obj[name], a JSON number of integral value, as an int; any other
    value is a ValueError."""
    x = obj[name]
    if type(x) is int or (type(x) is float and x.is_integer()):
        return int(x)
    raise ValueError(f"{name} must be an integer, got {x!r}")


def class_from_json(obj):
    """Rebuild a GrothendieckClass from the CLI's JSON rendering.  An
    nvars, degree or multiplicity that is not an integer is a ValueError,
    as is a degree other than the quotient dimension, or generators that
    are not the reduced Groebner basis of a maximal ideal.  They are that
    basis exactly when the T_i of the regular representation commute and
    their annihilator is the same ideal, and it is maximal exactly when
    ``modules._is_field`` holds on that regular tuple."""
    field = field_from_string(obj["field"])
    nvars = _json_integer(obj, "nvars")
    pairs = []
    for entry in obj["class"]:
        gens = [parse_poly(g, field, nvars) for g in entry["generators"]]
        ideal = Ideal.from_groebner_basis(field, nvars, gens)
        if _json_integer(entry, "degree") != ideal.quotient_dim:
            raise ValueError("degree must equal the quotient dimension")
        try:
            regular = CommutingTuple(field, nvars, ideal.quotient_dim, _regular_maps(ideal))
        except NonCommutingError:
            regular = None  # the generators are no Groebner basis
        if (
            regular is None
            or regular.annihilator_ideal() != ideal
            or not _is_field(ideal, regular)
        ):
            raise ValueError(
                f"[{', '.join(entry['generators'])}] is not a maximal ideal "
                "in reduced form"
            )
        pairs.append((MaximalIdealKey(ideal), _json_integer(entry, "multiplicity")))
    return GrothendieckClass(field, nvars, pairs)
