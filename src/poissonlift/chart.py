"""Differential forms and multivector fields on a single coordinate chart.

Both kinds of tensor are stored sparsely: a degree-k tensor on an
n-dimensional chart maps strictly increasing k-tuples of coordinate indices
to polynomial components.  A degree-0 tensor wraps a single polynomial
(keyed by the empty tuple).  Components are always normalized to the chart's
full coordinate universe, in chart order.  The public constructor validates
and normalizes its input; tensor operations whose components are already in
that form build their results through the trusted ``_Tensor._make``.

The Schouten bracket is computed by the coordinate formula: writing a
degree-a multivector as a polynomial in anticommuting symbols xi_i (one per
coordinate vector field), the bracket is

    [A, B] = A . B - (-1)^((a-1)(b-1)) B . A,
    A . B  = sum_i (dA/dxi_i) ^ (d_i B),

where dA/dxi_i is the left odd partial derivative and d_i differentiates
coefficients.  On two vector fields this reduces to the Lie bracket, and on
a (vector field, function) pair to the directional derivative.

Every kernel walks stored components only: A . B files the stored
components of A under each index they carry and those of B under each
coordinate their polynomial uses, and pairs the two lists of each
coordinate i.  Each component is differentiated only by the variables it
uses, [A, A] computes A . A once, and missing components are zero and are
never built.  All partials of a component come from one walk over its
terms (``_gradient``).  The wedge, the interior product, the Lie
derivative of forms and the Schouten bracket file their products
``scale * a * b`` by index and sum each index's list in one term map
(``_Tensor._from_products``), which keeps the term order of the ``+``
chain that the Schouten tests compare (see ``poly``); so does
``from_terms``, for ``exterior_derivative``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from ._value import _Value
from .errors import ChartMismatchError, DegreeError, KindMismatchError, UnknownSymbolError
from .poly import W, Polynomial

Index = tuple[int, ...]


class Chart(_Value, hashable=True):
    """A named chart of R^n with ordered coordinate symbols."""

    _fields = ("name", "coords")

    def __init__(self, name: str, coords: Iterable[str]):
        self.name = name
        self.coords = tuple(coords)
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"coordinate names must be distinct in {self.name}: {self.coords}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        return self.coords.index(name)

    def coord_poly(self, name: str) -> Polynomial:
        """The coordinate function ``name``, built trusted (the names are distinct)."""
        if name not in self.coords:
            raise UnknownSymbolError(f"variable {name!r} not in {self.coords}")
        return Polynomial._make(self.coords, {1 << (self.coords.index(name) * W): 1})

    @cached_property
    def _zero(self) -> Polynomial:
        return Polynomial.zero(self.coords)

    def zero_poly(self) -> Polynomial:
        """The zero polynomial over the chart's coordinates; one shared value,
        which is safe because polynomials are immutable."""
        return self._zero

    def constant_poly(self, value) -> Polynomial:
        return Polynomial.constant(value, self.coords)


def _sort_index(indices: Index) -> tuple[Index, int] | None:
    """Sort an index tuple, tracking permutation parity.

    Returns None when an index repeats (the component vanishes).  Pairs and
    triples, every 2-form and the Jacobi trivector, are sorted in closed
    form; longer tuples by insertion.
    """
    if len(indices) == 2:
        a, b = indices
        return (indices, 1) if a < b else ((b, a), -1) if a > b else None
    if len(indices) == 3:
        a, b, c = indices
        if a == b or b == c or a == c:
            return None
        if a < b:
            return (indices, 1) if b < c else ((a, c, b), -1) if a < c else ((c, a, b), 1)
        return ((b, a, c), -1) if a < c else ((b, c, a), 1) if b < c else ((c, b, a), -1)
    seq = list(indices)
    if len(set(seq)) != len(seq):
        return None
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return tuple(seq), sign


def _chart_poly(chart: Chart, value: Polynomial | int | Fraction) -> Polynomial:
    """A polynomial or rational scalar as a polynomial over the chart's coordinates."""
    if isinstance(value, Polynomial):
        return value.with_variables(chart.coords)
    return Polynomial.constant(value, chart.coords)


def _check_degree(chart: Chart, degree: int) -> None:
    if degree < 0 or degree > chart.dim:
        raise DegreeError(f"degree {degree} out of range for chart of dim {chart.dim}")


class _Tensor(_Value):
    """Shared implementation for DifferentialForm and Multivector."""

    kind = "tensor"
    _basis_fmt = "{}"

    __slots__ = ("chart", "degree", "_components")
    _fields = __slots__

    def __init__(self, chart: Chart, degree: int, components: Mapping[Index, Polynomial]):
        _check_degree(chart, degree)
        canon: dict[Index, Polynomial] = {}
        for idx, poly in components.items():
            key = tuple(idx)
            if len(key) != degree:
                raise DegreeError(f"index {key} does not match degree {degree}")
            if any(i < 0 or i >= chart.dim for i in key):
                raise DegreeError(f"index {key} out of range for chart {chart.coords}")
            if list(key) != sorted(set(key)):
                raise DegreeError(f"index {key} must be strictly increasing")
            poly = _chart_poly(chart, poly)
            if not poly.is_zero():
                canon[key] = canon[key] + poly if key in canon else poly
        self.chart = chart
        self.degree = degree
        self._components = {k: p for k, p in canon.items() if not p.is_zero()}

    @classmethod
    def _make(cls, chart: Chart, degree: int, components: dict[Index, Polynomial]):
        """Trusted constructor: ``components`` maps strictly increasing index
        tuples of length ``degree`` to nonzero polynomials over exactly
        ``chart.coords``.  The tensor takes ownership of the dict."""
        tensor = object.__new__(cls)
        tensor.chart = chart
        tensor.degree = degree
        tensor._components = components
        return tensor

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int = 0):
        _check_degree(chart, degree)
        return cls._make(chart, degree, {})

    @classmethod
    def from_poly(cls, chart: Chart, poly: Polynomial | int | Fraction):
        poly = _chart_poly(chart, poly)
        return cls._make(chart, 0, {} if poly.is_zero() else {(): poly})

    @classmethod
    def basis(cls, chart: Chart, name: str):
        """Basis element attached to one coordinate (dq for forms, e_q for vectors)."""
        return cls(chart, 1, {(chart.index(name),): chart.constant_poly(1)})

    @classmethod
    def from_terms(cls, chart: Chart, degree: int, terms: Iterable[tuple[Iterable[int], Polynomial]]):
        """Assemble from possibly unsorted, possibly repeating index tuples of
        length ``degree`` into the chart's coordinates."""
        _check_degree(chart, degree)
        one = chart.constant_poly(1)
        products = [(tuple(idx), 1, poly.with_variables(chart.coords), one) for idx, poly in terms]
        return cls._from_products(chart, degree, products)

    @classmethod
    def _from_products(cls, chart: Chart, degree: int,
                       products: Iterable[tuple[Index, int | Fraction, Polynomial, Polynomial]]):
        """Assemble terms ``scale * a * b`` under possibly unsorted, possibly
        repeating index tuples of length ``degree``, whose factors are over
        prefixes of the chart's coordinates: each index is sorted with its
        sign, and the products filed under one index are summed by one
        ``Polynomial._sum_of_products``."""
        grouped: dict[Index, list] = {}
        for idx, scale, a, b in products:
            if len(idx) > 1:
                sorted_idx = _sort_index(idx)
                if sorted_idx is None:
                    continue
                idx, sign = sorted_idx
                if sign < 0:
                    scale = -scale
            if idx in grouped:
                grouped[idx].append((scale, a, b))
            else:
                grouped[idx] = [(scale, a, b)]
        comps = {}
        for idx, group in grouped.items():
            poly = Polynomial._sum_of_products(chart.coords, group)
            if poly._terms:
                comps[idx] = poly
        return cls._make(chart, degree, comps)

    # -- inspection ---------------------------------------------------------

    @property
    def components(self) -> dict[Index, Polynomial]:
        return dict(self._components)

    def is_zero(self) -> bool:
        return not self._components

    def as_poly(self) -> Polynomial:
        if self.degree != 0:
            raise DegreeError(f"degree-{self.degree} tensor is not a function")
        return self._components.get((), self.chart.zero_poly())

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise KindMismatchError(f"cannot combine {self.kind} with {other.kind}")
        if self.chart != other.chart:
            raise ChartMismatchError(f"charts differ: {self.chart.name} vs {other.chart.name}")
        if self.degree != other.degree:
            raise DegreeError(f"degrees differ: {self.degree} vs {other.degree}")

    def _combine(self, other, sign: int):
        """self + sign * other, for sign +1 or -1."""
        self._check_compatible(other)
        comps = dict(self._components)
        for idx, poly in other._components.items():
            if idx not in comps:
                comps[idx] = poly if sign > 0 else -poly
            elif (total := comps[idx]._plus(poly, sign))._terms:
                comps[idx] = total
            else:
                del comps[idx]
        return self._make(self.chart, self.degree, comps)

    def __add__(self, other):
        return self._combine(other, 1)

    def __neg__(self):
        return self._make(self.chart, self.degree, {k: -p for k, p in self._components.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, scalar):
        """Multiplication by a polynomial or rational scalar."""
        if isinstance(scalar, _Tensor):
            raise KindMismatchError("use wedge() for tensor products")
        scalar = _chart_poly(self.chart, scalar)
        if scalar.is_zero():
            return self._make(self.chart, self.degree, {})
        # Q[x] has no zero divisors: no product of nonzero components vanishes
        return self._make(self.chart, self.degree, {k: p * scalar for k, p in self._components.items()})

    __rmul__ = __mul__

    # -- printing ------------------------------------------------------------

    def to_string(self) -> str:
        if self.degree == 0:
            return self.as_poly().to_string()
        if not self._components:
            return "0"
        fmt, coords = self._basis_fmt.format, self.chart.coords
        chunks = []
        for idx in sorted(self._components):
            poly = self._components[idx]
            basis = "^".join([fmt(coords[i]) for i in idx])
            unit = poly._terms.get(0) if len(poly._terms) == 1 else None
            if unit == 1:
                chunks.append(basis)
            elif unit == -1:
                chunks.append(f"-{basis}")
            else:
                chunks.append(f"({poly.to_string()})*{basis}")
        out = chunks[0]
        for text in chunks[1:]:
            out += " - " + text[1:] if text.startswith("-") else " + " + text
        return out

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_string()!r} on {self.chart.name})"


class DifferentialForm(_Tensor):
    kind = "form"
    _basis_fmt = "d{}"

    __slots__ = ()


class Multivector(_Tensor):
    kind = "multivector"
    _basis_fmt = "e_{}"

    __slots__ = ()


def wedge(a: _Tensor, b: _Tensor) -> _Tensor:
    """Exterior product of two tensors of the same kind on the same chart."""
    if type(a) is not type(b):
        raise KindMismatchError(f"cannot wedge {a.kind} with {b.kind}")
    if a.chart != b.chart:
        raise ChartMismatchError(f"charts differ: {a.chart.name} vs {b.chart.name}")
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        return type(a).zero(a.chart, a.chart.dim)
    products = [(ia + ib, 1, pa, pb) for ia, pa in a._components.items()
                for ib, pb in b._components.items()]
    return type(a)._from_products(a.chart, degree, products)


def _gradient(chart: Chart, poly: Polynomial) -> dict[int, Polynomial]:
    """The nonzero partials of ``poly`` by the chart's coordinates, keyed by
    coordinate index in ascending order, from one walk over its terms."""
    return poly.with_variables(chart.coords)._partials()


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """de Rham differential; raises KindMismatch on multivectors."""
    if not isinstance(omega, DifferentialForm):
        raise KindMismatchError("exterior derivative acts on differential forms")
    chart = omega.chart
    if omega.degree >= chart.dim:
        return DifferentialForm.zero(chart, chart.dim)
    if omega.degree == 0:
        # df: the keys (i,) of the gradient are distinct and ascending
        return DifferentialForm._make(chart, 1, {(i,): partial for i, partial in
                                                 _gradient(chart, omega.as_poly()).items()})
    terms = [
        ((i,) + idx, partial)
        for idx, poly in omega._components.items()
        for i, partial in _gradient(chart, poly).items()
    ]
    return DifferentialForm.from_terms(chart, omega.degree + 1, terms)


def interior_product(field: Multivector, omega: DifferentialForm) -> DifferentialForm:
    """Contraction of a vector field into the first slot of a form."""
    if not isinstance(field, Multivector) or field.degree != 1:
        raise KindMismatchError("interior product takes a degree-1 multivector")
    if not isinstance(omega, DifferentialForm):
        raise KindMismatchError("interior product acts on differential forms")
    if field.chart != omega.chart:
        raise ChartMismatchError(f"charts differ: {field.chart.name} vs {omega.chart.name}")
    if omega.degree == 0:
        raise DegreeError("interior product of a degree-0 form is undefined")
    return DifferentialForm._from_products(omega.chart, omega.degree - 1,
                                           _interior_products(field, omega, 1))


def _interior_products(field: Multivector, omega: DifferentialForm, scale: int) -> list:
    """The products of ``scale`` times i_X(omega), as ``_from_products``
    takes them: a component w_I with X^i for each index i of I, the sign
    that of i's position."""
    x = field._components
    return [(idx[:pos] + idx[pos + 1:], -scale if pos % 2 else scale, x[(i,)], poly)
            for idx, poly in omega._components.items()
            for pos, i in enumerate(idx) if (i,) in x]


def _lie_derivative_form(field: Multivector, omega: DifferentialForm,
                         dx: dict[int, dict[int, Polynomial]] | None = None) -> DifferentialForm:
    """L_X(w_I dx^I) = X(w_I) dx^I + w_I sum_a dx^(i_1) ^ .. ^ d(X^(i_a)) ^ ..,
    with d(X^i) = sum_k d_k X^i dx^k, in one pass over the stored components.
    ``dx`` holds the gradient of the field component X^i under i, when the
    caller keeps them across calls; otherwise each component is
    differentiated at most once, when an index of omega first asks for it.
    Repeated indices vanish in ``_from_products``."""
    chart = omega.chart
    x = field._components
    if dx is None:
        dx = {}
    products = []
    for idx, w in omega._components.items():
        products.extend((idx, 1, x[(k,)], partial)
                        for k, partial in _gradient(chart, w).items() if (k,) in x)
        for pos, i in enumerate(idx):
            if (i,) not in x:
                continue
            if i not in dx:
                dx[i] = _gradient(chart, x[(i,)])
            products.extend((idx[:pos] + (k,) + idx[pos + 1:], 1, w, partial)
                            for k, partial in dx[i].items())
    return DifferentialForm._from_products(chart, omega.degree, products)


def lie_derivative(field: Multivector, tensor: _Tensor) -> _Tensor:
    """Lie derivative along a vector field.

    On forms of every degree this is the coordinate formula of
    ``_lie_derivative_form`` (the directional derivative in degree 0); on
    multivectors it is the Schouten bracket with the field.
    """
    if not isinstance(field, Multivector) or field.degree != 1:
        raise KindMismatchError("Lie derivative takes a degree-1 multivector")
    if field.chart != tensor.chart:
        raise ChartMismatchError(f"charts differ: {field.chart.name} vs {tensor.chart.name}")
    if isinstance(tensor, DifferentialForm):
        return _lie_derivative_form(field, tensor)
    return schouten_bracket(field, tensor)


def _schouten_half(a: Multivector, b: Multivector) -> Multivector:
    """A . B = sum_i (dA/dxi_i) ^ (d_i B), over stored components only."""
    chart = a.chart
    deg = a.degree + b.degree - 1
    if a.degree == 0 or deg > chart.dim:
        return Multivector.zero(chart, min(max(deg, 0), chart.dim))
    # d_i B for each coordinate i: the stored components of B that use x_i,
    # in B's order, with their partials
    b_partials: dict[int, list[tuple[Index, Polynomial]]] = {}
    for idx_b, poly in b._components.items():
        for i, partial in _gradient(chart, poly).items():
            b_partials.setdefault(i, []).append((idx_b, partial))
    # dA/dxi_i for each such i: the stored components of A that carry i, in
    # A's order; the left odd partial drops i from idx_a with sign (-1)^pos
    a_partials: dict[int, list[tuple[Index, int, Polynomial]]] = {}
    for idx_a, poly_a in a._components.items():
        for pos, i in enumerate(idx_a):
            if i in b_partials:
                a_partials.setdefault(i, []).append((idx_a[:pos] + idx_a[pos + 1:],
                                                      -1 if pos % 2 else 1, poly_a))
    products = [(rest + idx_b, sign, poly_a, partial) for i in sorted(a_partials)
                for rest, sign, poly_a in a_partials[i] for idx_b, partial in b_partials[i]]
    return Multivector._from_products(chart, deg, products)


def schouten_bracket(a: Multivector, b: Multivector) -> Multivector:
    """Schouten bracket of multivector fields (degree |a|+|b|-1).

    With D(A, B) = sum_i (dA/dxi_i) ^ (d_i B) the bracket is

        [A, B] = (-1)^(|A|-1) D(A, B) - (-1)^((|A|-1)(|B|-1) + |B|-1) D(B, A),

    the unique sign layout for which [ , ] restricts to the Lie bracket on
    vector fields and the directional derivative on (field, function) pairs
    while staying graded antisymmetric and a graded derivation of the wedge
    in its second slot.
    """
    if not isinstance(a, Multivector) or not isinstance(b, Multivector):
        raise KindMismatchError("Schouten bracket acts on multivectors")
    if a.chart != b.chart:
        raise ChartMismatchError(f"charts differ: {a.chart.name} vs {b.chart.name}")
    if a.degree == 0 and b.degree == 0:
        return Multivector.zero(a.chart, 0)
    u, v = a.degree - 1, b.degree - 1
    first = _schouten_half(a, b)
    second = first if a is b else _schouten_half(b, a)
    if u % 2:
        first = -first
    if (u * v + v) % 2 == 0:
        second = -second
    return first + second


def jacobi_check(bivector: Multivector) -> Multivector:
    """The trivector [pi, pi]; the bivector is Poisson iff this vanishes."""
    if bivector.degree != 2:
        raise DegreeError("Jacobi check takes a bivector")
    return schouten_bracket(bivector, bivector)
