"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a pair (variables, terms): ``variables`` is an ordered tuple
of symbol names and ``terms`` maps monomials to nonzero rational
coefficients.  The zero polynomial has an empty term map.  All values are
immutable, apart from the partials a polynomial keeps once it has taken
them (``_partials``), and every operation is a pure function, so
polynomials can be shared freely between threads.

A coefficient has exactly one form, the one :func:`rational` gives: an
``int`` when it is an integer, otherwise a ``fractions.Fraction`` with
denominator greater than 1.  ``int`` op ``int`` stays an ``int`` and needs
no check; only a coefficient of ``+``, ``-``, ``*`` or ``derivative``
computed from a ``Fraction`` is folded back to an ``int`` when its
denominator is 1.  No coefficient is divided (``int / int`` gives a float).
:func:`scaled_values` is the one evaluator: it gives the values of a family
of polynomials at many points as integers over one common denominator.
``substitute``, the exact reference evaluation at one rational point that
the tests compare against, gives a ``Fraction``.

A monomial key is one ``int`` holding the exponent of the i-th variable in
bits ``[i*W, (i+1)*W)``, ``W = 32``: a multiply adds keys, ``derivative``
subtracts a unit and ``used_variables`` ORs them.  Exponents stay below
``EXPONENT_LIMIT = 2^(W-1)``, so two add without a carry, and an exponent
that reaches bit W-1 of its field (the guard) is a ``ValueError``.
``_partials`` takes every partial derivative in one walk: it visits the set
fields of each key once and files the lowered key under that field's
variable, so a polynomial is read once for all its partials.  The walk runs
on the first call only: its dict is kept in a slot of that polynomial
object, which every later call returns, so callers never mutate it.  It is
never keyed by the term map, which extensions share (below) while their
partials live over their own universes.  A key does not
depend on how many variables follow, so re-indexing onto an extension ``vs``
of the universe ``u`` (``vs[:len(u)] == u``) shares the term map:
polynomials on a base chart cross for free into its bundle charts, whose
coordinates begin with the base's.  Operands over different universes are
re-indexed by ``with_variables`` onto the longer one when it extends the
other, else onto their sorted union.  The universe order is read only where
positions become names: printing, ``compose`` and ``scaled_values`` walk the
set fields of each key (printing in its own loop, the others through
:func:`_fields`), so their cost per term follows the variables a term
uses, not the length of the universe.
Only the public constructor, the ``terms`` view and the reference evaluation
``substitute`` read dense exponent tuples.

Construction has three paths.  The public constructor
``Polynomial(variables, terms)`` validates everything: distinct variable
names, exponent tuples of the right length with entries in
``[0, EXPONENT_LIMIT)``, coefficients brought to their one form, repeated
keys summed and zeros dropped.  Arithmetic results are built by the internal
``Polynomial._make(variables, terms)``, which trusts that ``variables`` are
distinct names and that ``terms`` maps keys with no field at or past
``len(variables)`` to nonzero coefficients in their one form.  ``_make``
takes ownership of that dict; no term map is mutated once a polynomial holds
it, so polynomials share them freely.  ``+`` and ``-`` are one signed loop,
``_plus``.  A sum of products ``sum scale * a * b``, the shape of every
contraction in the package, is built by the internal
``Polynomial._sum_of_products(variables, products)``, the one loop that
multiplies terms; ``*`` is its sum of one product.  One product ``1 * a *
b`` whose ``a`` or ``b`` is the unit constant is the other factor: the
result is that factor when its universe is the result's, so its kept
partials carry over, and otherwise shares its term map, as ``_make``'s
ownership rule allows; it multiplies nothing.  All other products are added
into one term map: a key whose coefficient cancels is deleted at once and
appended again if it comes back, as ``_plus`` does, coefficients are folded
to their one form once, at the end, and the exponent guard is checked once.
Its operands are over prefixes of ``variables``, so their keys add as they
are.  The result has the value of the chain of ``*`` and ``+`` calls and,
unless a running sum cancels inside one product, its term order too; no
printed or sampled value reads that order.

For printing, terms are ordered graded-lexicographically (total degree first,
then exponents against the variable order), highest first; a polynomial of
one term has no order to find and is written from its key's set fields
alone.  The printed form is valid input for :func:`poissonlift.parser.parse_poly`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, Sequence

from .errors import MissingAssignmentError, UnknownSymbolError

Exponents = tuple[int, ...]

Rational = int | Fraction

W = 32  # bits per exponent field of a monomial key
EXPONENT_LIMIT = 1 << (W - 1)  # every exponent is below this
_FIELD = (1 << W) - 1
_UNIT = {0: 1}  # the term map of the constant 1


@cache
def _guard(n: int) -> int:  # bit W-1 of each of the first n fields
    return sum(EXPONENT_LIMIT << (i * W) for i in range(n))


def _fields(key: int) -> list[tuple[int, int]]:
    """The ``(index, exponent)`` pairs of the nonzero fields of a monomial
    key, lowest index first."""
    fields = []
    while key:
        shift = (key & -key).bit_length() - 1
        shift -= shift % W
        e = (key >> shift) & _FIELD
        fields.append((shift // W, e))
        key -= e << shift
    return fields


def rational(value) -> Rational:
    """The one form of a rational coefficient: an ``int`` when ``value`` is
    an integer, otherwise a ``Fraction`` with denominator greater than 1."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def rational_text(value: Rational) -> str:
    """The exact decimal text of a coefficient, ``a`` or ``a/b``, at any
    size.  ``str`` refuses an integer longer than the interpreter's
    conversion limit; such a one is printed in pieces, and the limit is
    left as it is."""
    try:
        return str(value)
    except ValueError:
        if type(value) is int:
            return _digits(value)
        return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _digits(n: int) -> str:
    """Decimal text of ``n`` from pieces of at most 2000 bits (603 digits),
    which ``str`` converts under any limit the interpreter accepts (640
    digits at least): the high part and the zero-padded low part of ``n``
    split at about half its digits."""
    if n < 0:
        return "-" + _digits(-n)
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20  # 10^k is about the square root of n
    high, low = divmod(n, 10 ** k)
    return _digits(high) + _digits(low).zfill(k)


def _term_text(coeff: Rational, product: str) -> str:
    """One term's text: its coefficient, a unit one left out, then its factors."""
    if not product:
        return rational_text(coeff)
    return product if coeff == 1 else "-" + product if coeff == -1 else f"{rational_text(coeff)}*{product}"


def _universe(variables: Iterable[str]) -> tuple[str, ...]:
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variable names in {vs}")
    return vs


class Polynomial:
    """Immutable exact polynomial with rational coefficients."""

    __slots__ = ("variables", "_terms", "_partials_memo")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Rational]):
        vs = _universe(variables)
        canon: dict[int, Rational] = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vs):
                raise ValueError(f"exponent tuple {exps} does not match variables {vs}")
            if any(not 0 <= e < EXPONENT_LIMIT for e in exps):
                raise ValueError(f"exponent in {exps} is negative or not below {EXPONENT_LIMIT}")
            key = sum(e << (i * W) for i, e in enumerate(exps))
            canon[key] = canon.get(key, 0) + rational(coeff)
        self.variables = vs
        self._terms = {k: rational(c) for k, c in canon.items() if c}
        self._partials_memo = None

    @classmethod
    def _make(cls, variables: tuple[str, ...], terms: dict[int, Rational]) -> "Polynomial":
        """Trusted constructor for canonical data (see the module docstring);
        the new polynomial owns ``terms``."""
        poly = object.__new__(cls)
        poly.variables = variables
        poly._terms = terms
        poly._partials_memo = None
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> "Polynomial":
        return cls._make(_universe(variables), {})

    @classmethod
    def constant(cls, value: Rational, variables: Iterable[str] = ()) -> "Polynomial":
        c = rational(value)
        return cls._make(_universe(variables), {0: c} if c else {})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> "Polynomial":
        """The polynomial ``name`` over ``variables`` (default: just itself)."""
        vs = _universe(variables) if variables is not None else (name,)
        if name not in vs:
            raise UnknownSymbolError(f"variable {name!r} not in {vs}")
        return cls._make(vs, {1 << (vs.index(name) * W): 1})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Rational]:
        """The term map keyed by dense exponent tuples over ``variables``: the
        public constructor's form, for callers and the reference
        ``substitute``; no check reads it."""
        shifts = range(0, len(self.variables) * W, W)
        return {tuple((key >> s) & _FIELD for s in shifts): c for key, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return self._terms.keys() <= {0}

    def constant_value(self) -> Rational:
        """Value of a constant polynomial (the constant term in general)."""
        return self._terms.get(0, 0)

    def used_variables(self) -> tuple[str, ...]:
        """The variables that occur in some term, in universe order; the
        partial derivative by any other variable of the universe is zero."""
        used = 0
        for key in self._terms:
            used |= key  # a field of the OR is set iff some key sets it
        return tuple(self.variables[i] for i, _ in _fields(used))

    # -- variable universe handling ----------------------------------------

    def with_variables(self, variables: Iterable[str]) -> "Polynomial":
        """Re-index onto a universe that holds every current variable; onto an
        extension of the current universe the term map is shared, and onto
        any other universe each key's set fields are moved (``_fields``)."""
        vs = tuple(variables)
        if vs == self.variables:
            return self
        vs = _universe(vs)
        if vs[:len(self.variables)] == self.variables:
            return Polynomial._make(vs, self._terms)
        where = {v: i for i, v in enumerate(vs)}
        missing = [v for v in self.variables if v not in where]
        if missing:
            raise UnknownSymbolError(f"variables {missing} absent from target universe {vs}")
        shifts = [where[v] * W for v in self.variables]  # each set field moves to its name's place
        return Polynomial._make(vs, {sum([e << shifts[i] for i, e in _fields(key)]): c
                                     for key, c in self._terms.items()})

    @staticmethod
    def _aligned(a: "Polynomial", b: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        va, vb = a.variables, b.variables
        if va == vb:
            return a, b
        vs = va if va[:len(vb)] == vb else vb if vb[:len(va)] == va else tuple(sorted({*va, *vb}))
        return a.with_variables(vs), b.with_variables(vs)

    @staticmethod
    def _coerce(value, variables: tuple[str, ...]) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, Rational):
            return Polynomial.constant(value, variables)
        raise TypeError(f"cannot combine polynomial with {type(value).__name__}")

    # -- ring operations ---------------------------------------------------

    def _plus(self, other, sign: int) -> "Polynomial":
        """``self + sign * other`` for ``sign`` 1 or -1, in one copied term map."""
        a, b = self._aligned(self, self._coerce(other, self.variables))
        if not b._terms:
            return a
        if sign > 0 and not a._terms:
            return b
        if sign < 0 and a._terms == b._terms:  # the two sides of an identity that holds
            return Polynomial._make(a.variables, {})
        terms = dict(a._terms)
        for key, coeff in b._terms.items():
            if sign < 0:
                coeff = -coeff
            c = terms.get(key)
            if c is None:
                terms[key] = coeff
            else:
                c += coeff
                if c:
                    terms[key] = c if type(c) is int or c.denominator != 1 else c.numerator
                else:
                    del terms[key]
        return Polynomial._make(a.variables, terms)

    def __add__(self, other) -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.variables, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other, self.variables) - self

    def __mul__(self, other) -> "Polynomial":
        a, b = self._aligned(self, self._coerce(other, self.variables))
        return Polynomial._sum_of_products(a.variables, ((1, a, b),))

    __rmul__ = __mul__

    @classmethod
    def _sum_of_products(cls, variables: tuple[str, ...],
                         products: Sequence[tuple[Rational, "Polynomial", "Polynomial"]]) -> "Polynomial":
        """``sum scale * a * b`` over ``products``, built in one term map.

        Trusted like ``_make``: ``variables`` are distinct and every operand's
        universe is a prefix of them, so the keys of ``a`` and ``b`` add as
        they are.  A key whose coefficient cancels is deleted at once and
        appended again if it comes back, as the ``+`` chain deletes it;
        coefficients are folded to their one form once, at the end, and a
        product exponent that reaches the guard is a ``ValueError``.  One
        product ``1 * a * b`` whose ``a`` or ``b`` is the unit constant is
        the other factor: that object when its universe is ``variables``, so
        its kept partials carry over, else a polynomial sharing its term map."""
        if len(products) == 1:
            (scale, a, b), = products
            if scale == 1 and (b._terms == _UNIT or a._terms == _UNIT):
                factor = a if b._terms == _UNIT else b
                return factor if factor.variables == variables else cls._make(variables, factor._terms)
        terms: dict[int, Rational] = {}
        get = terms.get
        for scale, a, b in products:
            b_terms = b._terms.items()
            for ka, ca in a._terms.items():
                if scale != 1:
                    ca *= scale
                for kb, cb in b_terms:
                    key = ka + kb
                    c = get(key)
                    if c is None:
                        terms[key] = ca * cb
                    else:
                        c += ca * cb
                        if c:
                            terms[key] = c
                        else:
                            del terms[key]
        used = 0
        for key, c in terms.items():
            used |= key
            if type(c) is not int and c.denominator == 1:
                terms[key] = c.numerator
        if used & _guard(len(variables)):
            raise ValueError(f"a product exponent is not below {EXPONENT_LIMIT}")
        return cls._make(variables, terms)

    def __pow__(self, exponent: int) -> "Polynomial":
        """Square-and-multiply over the bits of ``exponent``, highest first:
        about 2 log2(exponent) products, each partial power a power of at
        most ``exponent``, so a power below the guard never meets it."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integers only")
        if exponent == 0:
            return Polynomial.constant(1, self.variables)
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- calculus and evaluation -------------------------------------------

    def derivative(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to ``name``."""
        if name not in self.variables:
            raise UnknownSymbolError(f"unknown variable {name!r}; have {self.variables}")
        shift = self.variables.index(name) * W
        unit = 1 << shift
        # lowering one exponent is injective on the terms that contain it
        terms: dict[int, Rational] = {}
        for key, coeff in self._terms.items():
            e = (key >> shift) & _FIELD
            if e:
                c = coeff * e
                terms[key - unit] = c if type(c) is int or c.denominator != 1 else c.numerator
        return Polynomial._make(self.variables, terms)

    def _partials(self) -> dict[int, "Polynomial"]:
        """Every nonzero partial derivative, keyed by variable index in
        ascending order, from one walk over the set fields of each key.  The
        walk runs on the first call; its dict is kept in a slot of this
        polynomial and returned by every later call, so callers never
        mutate it."""
        if self._partials_memo is not None:
            return self._partials_memo
        parts: dict[int, dict[int, Rational]] = {}
        for key, coeff in self._terms.items():
            for i, e in _fields(key):
                c = coeff * e
                if i not in parts:
                    parts[i] = {}
                parts[i][key - (1 << (i * W))] = c if type(c) is int or c.denominator != 1 else c.numerator
        vs = self.variables
        self._partials_memo = partials = {i: Polynomial._make(vs, parts[i]) for i in sorted(parts)}
        return partials

    def substitute(self, assignment: Mapping[str, Rational]) -> Fraction:
        """Exact evaluation; every variable of the polynomial must be assigned."""
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise MissingAssignmentError(f"no value for variables {missing}")
        values = [Fraction(assignment[v]) for v in self.variables]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, exps):
                if e:
                    term *= val ** e
            total += term
        return total

    def compose(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute a polynomial for every variable.

        The result lives over the sorted union of the universes of the images
        of the variables that occur in some term.
        """
        missing = [v for v in self.variables if v not in images]
        if missing:
            raise MissingAssignmentError(f"no image for variables {missing}")
        used = self.used_variables()
        universe = tuple(sorted(set().union(*(images[v].variables for v in used))))
        lifted = {v: images[v].with_variables(universe) for v in used}
        acc = Polynomial._make(universe, {})
        for key, coeff in self._terms.items():
            term = Polynomial._make(universe, {0: coeff})
            for i, e in _fields(key):
                term = term * lifted[self.variables[i]] ** e
            acc = acc + term
        return acc

    # -- comparison and printing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Rational):
            c = rational(other)
            return self._terms == ({0: c} if c else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._aligned(self, other)
        return a._terms == b._terms

    __hash__ = None  # mutable-dict-backed value; identity-free semantics

    def to_string(self) -> str:
        if not self._terms:
            return "0"
        names = self.variables
        if len(self._terms) == 1:  # most printed values: the factor text alone, no order
            (key, coeff), = self._terms.items()
            factors = []
            while key:
                shift = (key & -key).bit_length() - 1
                shift -= shift % W
                e = (key >> shift) & _FIELD
                key -= e << shift
                factors.append(names[shift // W] if e == 1 else f"{names[shift // W]}^{e}")
            return _term_text(coeff, "*".join(factors))
        last = (len(names) - 1) * W
        # one walk over the set fields of each key gives the total degree,
        # the exponents repacked with variable 0 in the most significant
        # field (every field is below 2^W, so that int orders as the dense
        # exponent tuples do: graded lex) and the factor text
        rows = []
        for key, coeff in self._terms.items():
            degree = glex = 0
            factors = []
            while key:
                shift = (key & -key).bit_length() - 1
                shift -= shift % W
                e = (key >> shift) & _FIELD
                key -= e << shift
                degree += e
                glex += e << (last - shift)
                name = names[shift // W]
                factors.append(name if e == 1 else f"{name}^{e}")
            rows.append((degree, glex, "*".join(factors), coeff))
        rows.sort(reverse=True)
        chunks: list[str] = []
        for _, _, product, coeff in rows:
            text = _term_text(coeff, product)
            if chunks:
                text = " - " + text[1:] if text[0] == "-" else " + " + text
            chunks.append(text)
        return "".join(chunks)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r}, vars={self.variables})"


def scaled_values(polys: Sequence[Polynomial], variables: Sequence[str], points: Iterable[Sequence],
                  denominator: int) -> tuple[list[list], int]:
    """The one evaluator: ``values`` and one ``M`` with
    ``polys[k](n / denominator) = values[k][s] / M`` at the s-th tuple ``n``
    of ``points``, whose entries are the values of ``variables`` in that
    order; every variable of every polynomial must be among them.

    With ``top`` the largest total degree and ``L`` the lcm of the
    coefficient denominators over the whole family, ``M = L *
    denominator^top`` and ``values[k][s]`` is the sum of ``L * c *
    denominator^(top - deg) * n^e`` over the terms of ``polys[k]``.
    Integer entries cost integer arithmetic only; an entry may be any value
    that adds, multiplies and takes ``**`` with ints and with its own kind,
    such as a dual number.  The names are mapped to point positions once per
    call (``_positions``); ``_scaled_values`` evaluates over those positions,
    for a caller that maps a universe once for many calls."""
    where = {v: i for i, v in enumerate(variables)}
    return _scaled_values(polys, [_positions(poly.variables, where) for poly in polys], points, denominator)


def _positions(universe: Sequence[str], where: Mapping[str, int]) -> list[int]:
    """The point position of each variable of ``universe``, by the name map
    ``where``; a variable it lacks is a ``MissingAssignmentError``."""
    if missing := [v for v in universe if v not in where]:
        raise MissingAssignmentError(f"no value for variables {missing}")
    return [where[v] for v in universe]


def _scaled_values(polys: Sequence[Polynomial], positions: Sequence[Sequence[int]], points: Iterable[Sequence],
                   denominator: int) -> tuple[list[list], int]:
    """``scaled_values`` with the point position of the i-th variable of
    ``polys[k]`` given as ``positions[k][i]``."""
    points = list(points)
    families = []  # (coefficient, degree, (point position, exponent) pairs) per term
    top, scale = 0, 1  # the largest degree and the lcm of the coefficient denominators
    for poly, pos in zip(polys, positions):
        rows = []
        for key, c in poly._terms.items():
            factors = [(pos[i], e) for i, e in _fields(key)]
            degree = sum([e for _, e in factors])
            top, scale = max(top, degree), math.lcm(scale, c.denominator)
            rows.append((c, degree, factors))
        families.append(rows)
    values = []
    for rows in families:
        terms = [(int(c * scale) * denominator ** (top - degree), factors) for c, degree, factors in rows]
        column = []
        for n in points:
            total = 0
            for value, factors in terms:
                for p, e in factors:
                    value *= n[p] if e == 1 else n[p] ** e
                total += value
            column.append(total)
        values.append(column)
    return values, scale * denominator ** top
