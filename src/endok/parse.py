"""Textual input: the scalar, polynomial, matrix and job-file grammars.

Shared grammar (whitespace insignificant inside expressions):

* scalars: integers and ``a/b`` fractions,
* polynomials: variables ``t`` (one variable) or ``t1..tn``; operators
  ``+ - * ^``; ``^`` takes a nonnegative integer literal; parentheses,
* matrices: ``[[a,b];[c,d]]`` with rows split by ``;``, entries by ``,``;
  ``[[]]`` denotes the 0 x 0 matrix,
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

from dataclasses import dataclass, field as dataclass_field

from .errors import ParseError
from .fields import GF, QQ, FieldSpec
from .ktheory import GrothendieckClass, TildeClass
from .linalg import Matrix
from .modules import CommutingTuple, Ideal, MaximalIdealKey
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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
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

    def at_op(self, *ops):
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

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
            base = base ** int(tok.text)
        return -base if negate else base

    def parse_atom(self):
        tok = self.take()
        if tok.kind == "int":
            return MultiPoly.constant(self.field, self.nvars, int(tok.text))
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
        if name.startswith("t") and name[1:].isdigit():
            idx = int(name[1:])
            if not 1 <= idx <= self.nvars:
                self.fail(f"variable {name} is out of range 1..{self.nvars}", tok)
            return MultiPoly.variable(self.field, self.nvars, idx - 1)
        self.fail(f"unknown variable {name!r}", tok)


def parse_poly(text, field, nvars, line=1, col=1):
    parser = _ExprParser(_tokenize(text, line, col), field, nvars)
    poly = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        parser.fail("unexpected trailing input", tok)
    return poly


def parse_unipoly(text, field, line=1, col=1):
    return parse_poly(text, field, 1, line, col).to_unipoly()


def _parse_matrix_tokens(parser):
    """Matrix literal on an expression parser: entries are constant
    expressions (signed integers, a/b fractions)."""
    open_tok = parser.expect_op("[")
    rows = []
    while True:
        parser.expect_op("[")
        row = []
        if parser.at_op("]"):
            parser.take()
        else:
            while True:
                tok = parser.peek()
                entry = parser.parse_expr()
                if entry.total_degree not in (0, float("-inf")):
                    parser.fail("matrix entries must be scalars", tok)
                row.append(entry.coeff((0,) * parser.nvars))
                if parser.at_op(","):
                    parser.take()
                    continue
                parser.expect_op("]")
                break
        rows.append(row)
        if parser.at_op(";"):
            parser.take()
            continue
        parser.expect_op("]")
        break
    if len(rows) == 1 and not rows[0]:
        rows = []  # [[]] is the 0 x 0 matrix
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        parser.fail("ragged matrix rows", open_tok)
    # entries are coefficients of parsed polynomials: already canonical
    return Matrix._from_canonical(parser.field, rows, width)


def parse_matrix(text, field, line=1, col=1):
    parser = _ExprParser(_tokenize(text, line, col), field, 1)
    m = _parse_matrix_tokens(parser)
    tok = parser.peek()
    if tok.kind != "end":
        parser.fail("unexpected trailing input", tok)
    return m


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
    head, _, rest = line.partition(" ")
    return head, rest.strip()


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
        head, rest = _split_directive(stripped)
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field line", lineno, indent)
            parts = rest.split()
            if parts == ["Q"]:
                field = QQ
            elif len(parts) == 2 and parts[0] == "F" and parts[1].isdigit():
                try:
                    field = GF(int(parts[1]))
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
            if not rest.isdigit() or int(rest) < 1:
                raise ParseError("vars takes a positive integer", lineno, indent)
            nvars = int(rest)
        elif head == "dim":
            if not rest.isdigit():
                raise ParseError("dim takes a nonnegative integer", lineno, indent)
            dim = int(rest)
        elif head == "num":
            flush_pending()
            pending_num = (parse_unipoly(rest, field, lineno, indent + 4), lineno)
        elif head == "den":
            if pending_num is None:
                raise ParseError("den without a preceding num", lineno, indent)
            flush_pending(parse_unipoly(rest, field, lineno, indent + 4))
        elif stripped.startswith("["):
            if nvars is None or dim is None:
                raise ParseError(
                    "vars and dim must be declared before matrices", lineno, indent
                )
            if len(matrices) >= nvars:
                raise ParseError(f"extra matrix beyond vars {nvars}", lineno, indent)
            parser = _ExprParser(_tokenize(stripped, lineno, indent), field, nvars)
            m = _parse_matrix_tokens(parser)
            tok = parser.peek()
            if tok.kind != "end":
                parser.fail("unexpected trailing input", tok)
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
    if s.startswith("F") and s[1:].isdigit():
        return GF(int(s[1:]))
    raise ValueError(f"unknown field name {s!r}")


def class_from_json(obj):
    """Rebuild a GrothendieckClass from the CLI's JSON rendering."""
    field = field_from_string(obj["field"])
    nvars = int(obj["nvars"])
    support = {}
    for entry in obj["class"]:
        gens = [parse_poly(g, field, nvars) for g in entry["generators"]]
        ideal = Ideal.from_groebner_basis(field, nvars, gens)
        key = MaximalIdealKey(ideal, int(entry["degree"]))
        support[key] = int(entry["multiplicity"])
    return GrothendieckClass(field, nvars, support)
