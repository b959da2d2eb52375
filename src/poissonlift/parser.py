"""Text parser for polynomial expressions and tensor literals.

Polynomial grammar:

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ('^' INT)?
    primary := INT ('/' INT)? | IDENT | '(' expr ')'

Tokens are separated by optional whitespace.  An integer is a run of
decimal digits (``str.isdecimal``, so not ``²``); an identifier is a letter
(``str.isalpha``, so also ``θ``) or ``_``, then letters, digits
(``str.isalnum``) and ``_`` (:func:`is_identifier`); an operator is one of
``+ - * ^ / ( )``; any other character is a ParseError at its position.
``^`` takes an integer literal below ``poly.EXPONENT_LIMIT`` (2^31), ``/``
only forms rational literals between two integers, and implicit
multiplication is not allowed.  Every identifier must be a declared variable.

Tensor literals extend the grammar inside a term: an identifier ``d<coord>``
names a coordinate 1-form and ``e_<coord>`` a coordinate vector field; basis
elements chain with ``^`` (the wedge), e.g. ``(q^2)*dq^dp - dp^dq``.  All
terms of a literal must have the same degree.

Literals are read straight into term maps (see ``poly``).  A term is a
running coefficient and monomial key, to which a variable adds its unit and
``v^e`` the unit times ``e``; only a parenthesised sum is a term map, and a
term that multiplies one becomes one too.  A product exponent that reaches
the guard is a ``ValueError`` at the factor that makes it, as for ``*``.  A
tensor literal files each term under its sorted basis index, with its sign,
in one term map per index, the indices in the order they first appear.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .chart import Chart, DifferentialForm, Multivector, _check_degree, _sort_index
from .errors import DegreeError, ParseError, UnknownSymbolError
from .poly import EXPONENT_LIMIT, W, Polynomial, _guard, _universe

_OPS = frozenset("+-*^/()")


def is_identifier(name: str) -> bool:
    """Whether ``name`` is read as one identifier token."""
    return (name[:1].isalpha() or name[:1] == "_") and all(ch.isalnum() or ch == "_" for ch in name)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` tuples; kind is int, ident, op or end.  The
    text of an op token is its character, which no other token's text is."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(("end", "", n))
    return tokens


def _normal(terms: dict) -> dict:
    """``terms`` without zero coefficients, each in its one form."""
    return {key: c if type(c) is int or c.denominator != 1 else c.numerator
            for key, c in terms.items() if c}


def _add_into(total: dict, terms: dict, sign: int = 1) -> None:
    for key, c in terms.items():
        total[key] = total.get(key, 0) + sign * c


def _summed(terms: list) -> dict:
    """The normal term map of a list of ``(basis, terms)``."""
    total: dict = {}
    for _, value in terms:
        _add_into(total, value)
    return _normal(total)


class _Reader:
    """Recursive descent over one literal's tokens.  A term comes back as
    ``(basis, terms)``: its basis index tuple or None, and its value as a
    term map whose coefficients may still be zero or unfolded."""

    def __init__(self, text: str, variables: tuple[str, ...], prefix: str = ""):
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = variables
        self.positions = {v: i for i, v in enumerate(variables)}
        self.prefix = prefix  # "d" for forms, "e_" for multivectors, "" for neither

    def basis_index(self, name: str) -> int | None:
        """Index of the coordinate a basis identifier refers to, else None."""
        prefix = self.prefix
        return self.positions.get(name[len(prefix):]) if prefix and name.startswith(prefix) else None

    def expr(self) -> list:
        terms = self.sum()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", position=pos)
        return terms

    def sum(self) -> list:
        """Signed terms; only the first may come without a sign."""
        terms = []
        while True:
            text = self.tokens[self.i][1]
            if text in ("+", "-"):
                self.i += 1
            elif terms:
                return terms
            terms.append(self.term(-1 if text == "-" else 1))

    def term(self, coeff: int):
        """The monomial ``coeff * x^key`` until a factor is a term map; from
        then on the term map ``terms`` holds the whole product."""
        tokens, vs = self.tokens, self.variables
        key, terms, basis = 0, None, None
        while True:
            kind, text, pos = tokens[self.i]
            if kind == "ident" and self.basis_index(text) is not None:
                if basis is not None:
                    raise ParseError("use '^' to wedge basis elements", position=pos)
                basis = self.chain()
            else:
                value, unit, inner = self.factor()
                if terms is None and inner is None:
                    coeff *= value
                    key += unit
                    if coeff and key & _guard(len(vs)):
                        raise ValueError(f"a product exponent is not below {EXPONENT_LIMIT}")
                else:
                    left = Polynomial._make(vs, _normal({key: coeff}) if terms is None else terms)
                    right = Polynomial._make(vs, _normal({unit: value}) if inner is None else inner)
                    terms = (left * right)._terms
            if tokens[self.i][1] != "*":
                return basis, {key: coeff} if terms is None else terms
            self.i += 1

    def chain(self) -> tuple[int, ...]:
        """Basis elements joined by the wedge ``^``."""
        indices = []
        while True:
            kind, text, pos = self.tokens[self.i]
            if kind != "ident":
                raise ParseError("expected a basis element after '^'", position=pos)
            idx = self.basis_index(text)
            if idx is None:
                raise ParseError(f"{text!r} is not a basis element of this chart", position=pos)
            indices.append(idx)
            self.i += 1
            if self.tokens[self.i][1] != "^":
                return tuple(indices)
            self.i += 1

    def exponent(self) -> int | None:
        """The exponent after a factor's ``^``, or None when there is no ``^``."""
        if self.tokens[self.i][1] != "^":
            return None
        kind, text, pos = self.tokens[self.i + 1]
        if kind != "int":
            raise ParseError("'^' takes a nonnegative integer literal", position=pos)
        if int(text) >= EXPONENT_LIMIT:
            raise ParseError(f"exponent must be below {EXPONENT_LIMIT}", position=pos)
        self.i += 2
        return int(text)

    def factor(self):
        """A factor as ``(value, unit, terms)``: the monomial
        ``value * x^unit`` with ``terms`` None, or the term map ``terms``."""
        tokens = self.tokens
        kind, text, pos = tokens[self.i]
        if kind == "int":
            self.i += 1
            value = int(text)
            if tokens[self.i][1] == "/":
                kind, text, pos = tokens[self.i + 1]
                if kind != "int":
                    raise ParseError("'/' only forms rational literals between integers", position=pos)
                self.i += 2
                if int(text) == 0:
                    raise ParseError("zero denominator", position=pos)
                value = Fraction(value, int(text))
            e = self.exponent()
            return (value if e is None else value ** e), 0, None
        if kind == "ident":
            index = self.positions.get(text)
            if index is None:
                raise UnknownSymbolError(
                    f"unknown symbol {text!r} at position {pos}; variables are {list(self.variables)}")
            self.i += 1
            e = self.exponent()
            return 1, (1 if e is None else e) << (index * W), None
        if text == "(":
            self.i += 1
            prefix, self.prefix = self.prefix, ""  # plain polynomial arithmetic inside
            terms = _summed(self.sum())
            self.prefix = prefix
            kind, text, pos = tokens[self.i]
            if text != ")":
                raise ParseError(f"expected ')', found {text or 'end of input'!r}", position=pos)
            self.i += 1
            e = self.exponent()
            if e is not None:
                terms = (Polynomial._make(self.variables, terms) ** e)._terms
            return 1, 0, terms
        if text == "/":
            raise ParseError("'/' only forms rational literals between integers", position=pos)
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", position=pos)


def parse_poly(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse a polynomial expression over the given variable list."""
    vs = tuple(variables)
    reader = _Reader(text, vs)
    return Polynomial._make(_universe(vs), _summed(reader.expr()))


def _parse_tensor(text: str, chart: Chart, cls, prefix: str, degree: int | None):
    filed: dict[tuple[int, ...], dict] = {}
    degrees = set()
    for basis, value in _Reader(text, chart.coords, prefix).expr():
        if basis is None:
            if not any(value.values()):
                continue  # bare zero constrains no degree
            basis = ()
        degrees.add(len(basis))
        sign = 1
        if len(basis) > 1:
            ordered = _sort_index(basis)
            if ordered is None:
                continue  # a repeated index: the term vanishes
            basis, sign = ordered
        _add_into(filed.setdefault(basis, {}), value, sign)
    if len(degrees) > 1:
        raise DegreeError(f"mixed degrees {sorted(degrees)} in tensor literal {text!r}")
    found = degrees.pop() if degrees else None
    if degree is not None and found is not None and degree != found:
        raise DegreeError(f"expected a degree-{degree} literal, found degree {found}")
    out_degree = found if found is not None else (degree if degree is not None else 0)
    _check_degree(chart, out_degree)
    return cls._make(chart, out_degree, {idx: Polynomial._make(chart.coords, terms)
                                         for idx, raw in filed.items() if (terms := _normal(raw))})


def parse_form(text: str, chart: Chart, degree: int | None = None) -> DifferentialForm:
    """Parse a differential-form literal, e.g. ``(q^2)*dq^dp - dp^dq``."""
    return _parse_tensor(text, chart, DifferentialForm, "d", degree)


def parse_multivector(text: str, chart: Chart, degree: int | None = None) -> Multivector:
    """Parse a multivector literal, e.g. ``z*e_x^e_y - y*e_x^e_z``."""
    return _parse_tensor(text, chart, Multivector, "e_", degree)
