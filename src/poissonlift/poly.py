"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a pair (variables, terms): ``variables`` is an ordered tuple
of symbol names and ``terms`` maps exponent tuples (one nonnegative int per
variable) to nonzero ``fractions.Fraction`` coefficients.  The zero
polynomial has an empty term map.  All values are immutable and every
operation is a pure function, so polynomials can be shared freely between
threads.

When two polynomials over different variable universes meet in an arithmetic
operation, the universes are merged into their sorted union and both operands
are re-indexed.  Operands over identical universes are combined directly, so
code that fixes a chart's coordinate order up front keeps that order.

Construction has two paths.  The public constructor ``Polynomial(variables,
terms)`` validates everything: distinct variable names, exponent tuples of
the right length with nonnegative entries, coefficients coerced to
``Fraction``, repeated keys summed and zeros dropped.  Arithmetic results are
built by the internal ``Polynomial._make(variables, terms)`` instead, which
trusts its input and sets the slots directly.  It relies on the invariant that
``variables`` is a tuple of distinct names and ``terms`` is a dict whose keys
are int tuples of length ``len(variables)`` with nonnegative entries and whose
values are nonzero ``Fraction`` objects.  ``_make`` takes ownership of that
dict: the caller must have built it freshly and must not keep or mutate it,
since the polynomial shares it and would otherwise stop being immutable.

For printing, terms are ordered graded-lexicographically (total degree first,
then exponents against the variable order), highest first.  The printed form
is valid input for :func:`poissonlift.parser.parse_poly`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .errors import MissingAssignmentError, UnknownSymbolError

Exponents = tuple[int, ...]

_RationalLike = (int, Fraction)

_ONE = Fraction(1)


def _universe(variables: Iterable[str]) -> tuple[str, ...]:
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variable names in {vs}")
    return vs


class Polynomial:
    """Immutable exact polynomial with rational coefficients."""

    __slots__ = ("variables", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Fraction | int]):
        vs = _universe(variables)
        canon: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            key = tuple(int(e) for e in exps)
            if len(key) != len(vs):
                raise ValueError(f"exponent tuple {key} does not match variables {vs}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            c = Fraction(coeff)
            if c != 0:
                canon[key] = canon.get(key, Fraction(0)) + c
        self.variables = vs
        self._terms = {k: c for k, c in canon.items() if c != 0}

    @classmethod
    def _make(cls, variables: tuple[str, ...], terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Trusted constructor for canonical data (see the module docstring);
        the new polynomial owns ``terms``."""
        poly = object.__new__(cls)
        poly.variables = variables
        poly._terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str] = ()) -> "Polynomial":
        return cls._make(_universe(variables), {})

    @classmethod
    def constant(cls, value: Fraction | int, variables: Iterable[str] = ()) -> "Polynomial":
        vs = _universe(variables)
        c = Fraction(value)
        return cls._make(vs, {(0,) * len(vs): c} if c else {})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> "Polynomial":
        """The polynomial ``name`` over ``variables`` (default: just itself)."""
        vs = _universe(variables) if variables is not None else (name,)
        if name not in vs:
            raise UnknownSymbolError(f"variable {name!r} not in {vs}")
        exps = [0] * len(vs)
        exps[vs.index(name)] = 1
        return cls._make(vs, {tuple(exps): _ONE})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self._terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (the constant term in general)."""
        zero = (0,) * len(self.variables)
        return self._terms.get(zero, Fraction(0))

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(exps) for exps in self._terms)

    def degree_in(self, names: Iterable[str]) -> int:
        """Maximum combined exponent of the given variables over all terms."""
        idx = [self.variables.index(n) for n in names if n in self.variables]
        if not self._terms or not idx:
            return 0
        return max(sum(exps[i] for i in idx) for exps in self._terms)

    def coefficient(self, exps: Exponents) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    # -- variable universe handling ----------------------------------------

    def with_variables(self, variables: Iterable[str]) -> "Polynomial":
        """Re-index over a larger (or reordered) universe.

        Every variable currently in use must appear in the new universe.
        """
        vs = tuple(variables)
        if vs == self.variables:
            return self
        vs = _universe(vs)
        where = {v: i for i, v in enumerate(vs)}
        missing = [v for v in self.variables if v not in where]
        if missing:
            raise UnknownSymbolError(f"variables {missing} absent from target universe {vs}")
        pos = [where[v] for v in self.variables]
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            out = [0] * len(vs)
            for p, e in zip(pos, exps):
                out[p] = e
            terms[tuple(out)] = coeff
        return Polynomial._make(vs, terms)

    @staticmethod
    def _aligned(a: "Polynomial", b: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if a.variables == b.variables:
            return a, b
        merged = tuple(sorted(set(a.variables) | set(b.variables)))
        return a.with_variables(merged), b.with_variables(merged)

    @staticmethod
    def _coerce(value, variables: Exponents | tuple[str, ...]) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, _RationalLike):
            return Polynomial.constant(value, variables)
        raise TypeError(f"cannot combine polynomial with {type(value).__name__}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        a, b = self._aligned(self, self._coerce(other, self.variables))
        if not b._terms:
            return a
        if not a._terms:
            return b
        terms = dict(a._terms)
        for exps, coeff in b._terms.items():
            c = terms.get(exps)
            if c is None:
                terms[exps] = coeff
            else:
                c += coeff
                if c:
                    terms[exps] = c
                else:
                    del terms[exps]
        return Polynomial._make(a.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.variables, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other, self.variables))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other, self.variables) - self

    def __mul__(self, other) -> "Polynomial":
        a, b = self._aligned(self, self._coerce(other, self.variables))
        terms: dict[Exponents, Fraction] = {}
        for ea, ca in a._terms.items():
            for eb, cb in b._terms.items():
                key = tuple(map(add, ea, eb))
                c = terms.get(key)
                if c is None:
                    terms[key] = ca * cb
                else:
                    c += ca * cb
                    if c:
                        terms[key] = c
                    else:
                        del terms[key]
        return Polynomial._make(a.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integers only")
        if exponent == 0:
            return Polynomial.constant(1, self.variables)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    # -- calculus and evaluation -------------------------------------------

    def derivative(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to ``name``."""
        if name not in self.variables:
            raise UnknownSymbolError(f"unknown variable {name!r}; have {self.variables}")
        i = self.variables.index(name)
        # lowering one exponent is injective on the terms that contain it
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            e = exps[i]
            if e:
                terms[exps[:i] + (e - 1,) + exps[i + 1:]] = coeff * e
        return Polynomial._make(self.variables, terms)

    def substitute(self, assignment: Mapping[str, Fraction | int]) -> Fraction:
        """Exact evaluation; every variable of the polynomial must be assigned."""
        missing = [v for v in self.variables if v not in assignment]
        if missing:
            raise MissingAssignmentError(f"no value for variables {missing}")
        values = [Fraction(assignment[v]) for v in self.variables]
        total = Fraction(0)
        for exps, coeff in self._terms.items():
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
        used = {i for exps in self._terms for i, e in enumerate(exps) if e}
        universe = tuple(sorted(set().union(*(images[self.variables[i]].variables for i in used))))
        lifted = {i: images[self.variables[i]].with_variables(universe) for i in used}
        unit = (0,) * len(universe)
        acc = Polynomial._make(universe, {})
        for exps, coeff in self._terms.items():
            term = Polynomial._make(universe, {unit: coeff})
            for i, e in enumerate(exps):
                if e:
                    term = term * lifted[i] ** e
            acc = acc + term
        return acc

    # -- comparison and printing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, _RationalLike):
            other = Polynomial.constant(other, self.variables)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._aligned(self, other)
        return a._terms == b._terms

    __hash__ = None  # mutable-dict-backed value; identity-free semantics

    def _sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def to_string(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for v, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                text = str(coeff)
            elif coeff == 1:
                text = "*".join(factors)
            elif coeff == -1:
                text = "-" + "*".join(factors)
            else:
                text = str(coeff) + "*" + "*".join(factors)
            chunks.append(text)
        out = chunks[0]
        for text in chunks[1:]:
            out += " - " + text[1:] if text.startswith("-") else " + " + text
        return out

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r}, vars={self.variables})"
