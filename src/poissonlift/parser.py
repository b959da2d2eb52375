"""Text parser for polynomial expressions and tensor literals.

Polynomial grammar (ASCII):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ('^' INT)?
    primary := INT ('/' INT)? | IDENT | '(' expr ')'

Integers are unsigned digit runs, identifiers match
``[A-Za-z_][A-Za-z0-9_]*``, ``^`` takes a nonnegative integer literal below
``poly.EXPONENT_LIMIT`` (2^31), and ``/`` only forms rational literals
between two integers.  Implicit multiplication is not allowed.  Every
identifier must belong to the declared variable list.

Tensor literals extend the grammar inside a term: an identifier ``d<coord>``
names a coordinate 1-form and ``e_<coord>`` a coordinate vector field; basis
elements chain with ``^`` (the wedge), e.g. ``(q^2)*dq^dp - dp^dq``.  All
terms of a literal must have the same degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .chart import Chart, DifferentialForm, Multivector
from .errors import DegreeError, ParseError, UnknownSymbolError
from .poly import EXPONENT_LIMIT, Polynomial

_OPS = set("+-*^/()")


class _Token:
    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # int | ident | op | end
        self.text = text
        self.pos = pos

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.text, self.pos) == (other.kind, other.text, other.pos)

    def __hash__(self):
        return hash((self.kind, self.text, self.pos))

    def __repr__(self):
        return f"_Token(kind={self.kind!r}, text={self.text!r}, pos={self.pos!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser shared by polynomial and tensor literals."""

    def __init__(self, text: str, variables: tuple[str, ...], chart: Chart | None, kind: str | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = variables
        self.chart = chart
        self.kind = kind  # None | "form" | "multivector"

    # -- token helpers -------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", position=tok.pos)
        return self.advance()

    def _classify_basis(self, name: str) -> int | None:
        """Index of the coordinate a basis identifier refers to, else None."""
        if self.chart is None:
            return None
        if self.kind == "form" and name.startswith("d") and name[1:] in self.chart.coords:
            return self.chart.index(name[1:])
        if self.kind == "multivector" and name.startswith("e_") and name[2:] in self.chart.coords:
            return self.chart.index(name[2:])
        return None

    # -- grammar -------------------------------------------------------------

    def parse_expr(self) -> list[tuple[Polynomial, tuple[int, ...] | None]]:
        terms = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", position=tok.pos)
        return terms

    def parse_sum(self) -> list[tuple[Polynomial, tuple[int, ...] | None]]:
        terms = []
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        terms.append(self.parse_term(sign))
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                terms.append(self.parse_term(-1 if tok.text == "-" else 1))
            else:
                return terms

    def parse_term(self, sign: int) -> tuple[Polynomial, tuple[int, ...] | None]:
        coeff = Polynomial.constant(sign, self.variables)
        basis: tuple[int, ...] | None = None
        while True:
            tok = self.peek()
            if tok.kind == "ident" and self._classify_basis(tok.text) is not None:
                if basis is not None:
                    raise ParseError("use '^' to wedge basis elements", position=tok.pos)
                basis = self.parse_basis_chain()
            else:
                coeff = coeff * self.parse_factor()
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                continue
            break
        return coeff, basis

    def parse_basis_chain(self) -> tuple[int, ...]:
        indices = [self.parse_basis_element()]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.advance()
                indices.append(self.parse_basis_element())
            else:
                break
        return tuple(indices)

    def parse_basis_element(self) -> int:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError("expected a basis element after '^'", position=tok.pos)
        idx = self._classify_basis(tok.text)
        if idx is None:
            raise ParseError(f"{tok.text!r} is not a basis element of this chart", position=tok.pos)
        self.advance()
        return idx

    def parse_factor(self) -> Polynomial:
        base = self.parse_primary()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "int":
                raise ParseError("'^' takes a nonnegative integer literal", position=exp_tok.pos)
            if int(exp_tok.text) >= EXPONENT_LIMIT:
                raise ParseError(f"exponent must be below {EXPONENT_LIMIT}", position=exp_tok.pos)
            self.advance()
            return base ** int(exp_tok.text)
        return base

    def parse_primary(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = Fraction(int(tok.text))
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    raise ParseError("'/' only forms rational literals between integers", position=den_tok.pos)
                self.advance()
                if int(den_tok.text) == 0:
                    raise ParseError("zero denominator", position=den_tok.pos)
                value = value / int(den_tok.text)
            return Polynomial.constant(value, self.variables)
        if tok.kind == "ident":
            if tok.text not in self.variables:
                raise UnknownSymbolError(
                    f"unknown symbol {tok.text!r} at position {tok.pos}; variables are {list(self.variables)}"
                )
            self.advance()
            return Polynomial.variable(tok.text, self.variables)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            kind, self.kind = self.kind, None  # plain polynomial arithmetic inside
            inner = sum((coeff for coeff, _ in self.parse_sum()), Polynomial.zero(self.variables))
            self.kind = kind
            self.expect_op(")")
            return inner
        if tok.kind == "op" and tok.text == "/":
            raise ParseError("'/' only forms rational literals between integers", position=tok.pos)
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", position=tok.pos)


def parse_poly(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse a polynomial expression over the given variable list."""
    vs = tuple(variables)
    parser = _Parser(text, vs, chart=None, kind=None)
    return sum((coeff for coeff, _ in parser.parse_expr()), Polynomial.zero(vs))


def _parse_tensor(text: str, chart: Chart, kind: str, degree: int | None):
    cls = DifferentialForm if kind == "form" else Multivector
    parser = _Parser(text, chart.coords, chart=chart, kind=kind)
    terms = parser.parse_expr()
    collected: list[tuple[tuple[int, ...], Polynomial]] = []
    degrees = set()
    for coeff, basis in terms:
        if basis is None:
            if coeff.is_zero():
                continue  # bare zero constrains no degree
            degrees.add(0)
            collected.append(((), coeff))
        else:
            degrees.add(len(basis))
            collected.append((basis, coeff))
    if len(degrees) > 1:
        raise DegreeError(f"mixed degrees {sorted(degrees)} in tensor literal {text!r}")
    found = degrees.pop() if degrees else None
    if degree is not None and found is not None and degree != found:
        raise DegreeError(f"expected a degree-{degree} literal, found degree {found}")
    out_degree = found if found is not None else (degree if degree is not None else 0)
    return cls.from_terms(chart, out_degree, collected)


def parse_form(text: str, chart: Chart, degree: int | None = None) -> DifferentialForm:
    """Parse a differential-form literal, e.g. ``(q^2)*dq^dp - dp^dq``."""
    return _parse_tensor(text, chart, "form", degree)


def parse_multivector(text: str, chart: Chart, degree: int | None = None) -> Multivector:
    """Parse a multivector literal, e.g. ``z*e_x^e_y - y*e_x^e_z``."""
    return _parse_tensor(text, chart, "multivector", degree)
