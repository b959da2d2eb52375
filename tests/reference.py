"""Dense reference routes for the block-by-block lift kernels and the
Koszul bracket.

The library applies the exchange map alpha and the involution kappa as block
permutations inside its residual kernels and builds no coordinate map.  The
routes here build the maps as ``CoordinateMap`` values, compose them and
compare every coordinate, so the tests can check the kernels against them.
They keep their own copy of alpha's block order: a wrong order in
``poissonlift.tangent`` does not carry over to the reference.

The complete-lift kernel f |-> f^c is read from ``poissonlift.tangent`` at
call time, so a test that replaces it there changes both routes alike.

The library builds f^c = v_k d_k f by shifting monomial keys, takes all
partials of a polynomial in one walk over its terms, and sums products in
one term map.  ``dense_complete_lift``, ``dense_gradient`` and
``dense_sum_of_products`` take the same values with the binary operators and
``Polynomial.derivative`` over every coordinate, and call none of those
kernels.

The library files the products of the Koszul bracket in Cartan form, with
d(pi(alpha, beta)) by the product rule, from the held sharps and
differentials; ``dense_koszul`` takes the defining formula with two
coordinate Lie derivatives, walking every coordinate index, and pairs by
hand, so it shares no kernel with that route.

The library sorts index pairs and triples in closed form; ``parity_sort``
counts inversions.  The cocycle check visits only the basis pairs that some
cobracket row enters; ``dense_cocycle`` is its loop over every pair.

The library files every product of a characteristic identity row into one
term map, reading the base components of the images as polynomials on TM;
``chained_characteristic_residuals`` pulls each image back with
``base_pullback``, derives its own twists and comomenta, and sums the row
with the tensor ``*``, ``+`` and ``-``.

The problem-file loader splits a pattern key such as ``[{},{}]`` with
``str.partition``; ``regex_key_holes`` reads it with a regular expression.

The library reads a literal straight into term maps.  ``ReferenceParser``
builds a ``Polynomial`` for every token and combines them with the binary
operators, and ``reference_parse_tensor`` assembles the terms with
``from_terms``; ``reference_combo`` reads bialgebra combinations token
object by token object.  ``reference_tokenize`` is a copy of the library's
tokenizer, so a change to one shows against the other.

The library prints a one-term polynomial without ordering its terms, and
reads a tensor's unit components from their term maps; ``poly_text`` and
``tensor_text`` are the general printing loops, which sort every
polynomial's terms graded-lexicographically, format each basis element
through the chart and ask each component whether it is constant.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from poissonlift import (
    Chart,
    CoordinateMap,
    DifferentialForm,
    LieBialgebra,
    Multivector,
    Polynomial,
    Resolved,
    TangentChart,
    base_pullback,
    bundle_chart,
    d_T,
    exterior_derivative,
    i_T,
    tangent,
)
from poissonlift.bialgebra import _prune, _wedge_add
from poissonlift.errors import ChartMismatchError, DegreeError, ParseError, UnknownSymbolError
from poissonlift.poly import _FIELD, EXPONENT_LIMIT, W, Rational, rational_text

from conftest import dense_matrix, dense_vector

# alpha: TT*M -> T*TM puts TT*M blocks (q, qdot, pdot, p) in the T*TM slots.
ALPHA_ORDER = (0, 2, 3, 1)


def compose(outer: CoordinateMap, inner: CoordinateMap) -> CoordinateMap:
    """outer after inner."""
    if inner.target != outer.source:
        raise ChartMismatchError(
            f"cannot compose: inner lands in {inner.target.name}, outer starts at {outer.source.name}"
        )
    images = dict(zip(outer.source.coords, inner.components))
    return CoordinateMap(inner.source, outer.target, tuple(p.compose(images) for p in outer.components))


def is_identity(m: CoordinateMap) -> bool:
    return m.source == m.target and all(
        p == m.source.coord_poly(c) for p, c in zip(m.components, m.source.coords)
    )


def _block_permutation(tc: TangentChart, source: str, target: str,
                       order: Sequence[int]) -> CoordinateMap:
    """The map between bundle charts whose target block b is source block order[b]."""
    src = bundle_chart(tc.base, source)
    n = tc.dim
    comps = tuple(src.coord_poly(c) for b in order for c in src.coords[b * n:(b + 1) * n])
    return CoordinateMap(src, bundle_chart(tc.base, target), comps)


def tulczyjew_alpha(tc: TangentChart) -> CoordinateMap:
    """The exchange map TT*M -> T*TM, (q, p, qdot, pdot) |-> (q, qdot, pdot, p)."""
    return _block_permutation(tc, "TT*", "T*T", ALPHA_ORDER)


def tulczyjew_alpha_inverse(tc: TangentChart) -> CoordinateMap:
    """Inverse exchange map T*TM -> TT*M, (q, v, a, b) |-> (q, b, v, a)."""
    return _block_permutation(tc, "T*T", "TT*", tuple(ALPHA_ORDER.index(b) for b in range(4)))


def canonical_involution(tc: TangentChart) -> CoordinateMap:
    """The flip of the double tangent bundle: (q, v, qdot, vdot) |-> (q, qdot, v, vdot)."""
    return _block_permutation(tc, "TT", "TT", (0, 2, 1, 3))


def one_form_prolongation(tc: TangentChart, theta: DifferentialForm) -> CoordinateMap:
    """T(theta): TM -> TT*M for a 1-form theta read as the map q |-> (q, theta(q))."""
    if theta.chart != tc.base or theta.degree != 1:
        raise DegreeError("prolongation takes a 1-form on the base chart")
    n = tc.dim
    q_v = list(tc.coord_polys)
    theta_comp = [theta.components.get((i,), tc.base.zero_poly()) for i in range(n)]
    comps = (q_v[:n] + theta_comp
             + q_v[n:] + [tangent._complete_lift_poly(tc, t) for t in theta_comp])
    return CoordinateMap(tc.total, bundle_chart(tc.base, "TT*"), tuple(comps))


def dense_lemma_residuals(tc: TangentChart, theta: DifferentialForm) -> dict:
    """alpha . T(theta) - d_T(theta) on every T*TM coordinate, from the
    composition of two coordinate maps: alpha after T(theta), against
    d_T(theta) read as the covector map (q, v, dq-, dv-coefficients)."""
    target = bundle_chart(tc.base, "T*T")
    covector = d_T(tc, theta)
    direct = CoordinateMap(tc.total, target, tc.coord_polys + tuple(
        covector.components.get((i,), tc.total.zero_poly()) for i in range(2 * tc.dim)))
    composed = compose(tulczyjew_alpha(tc), one_form_prolongation(tc, theta))
    return {name: lhs - rhs
            for name, lhs, rhs in zip(target.coords, composed.components, direct.components)}


def dense_complete_lift(tc: TangentChart, f: Polynomial) -> Polynomial:
    """f^c = sum_k v_k d_k f over every base coordinate, with + and *."""
    f = f.with_variables(tc.base.coords)
    out = tc.total.zero_poly()
    for k, ck in enumerate(tc.base.coords):
        out = out + tc.coord_blocks[1][k] * f.derivative(ck)
    return out


def dense_gradient(f: Polynomial) -> dict[int, Polynomial]:
    """The nonzero partials of ``f`` keyed by variable index, one
    ``derivative`` per variable of its universe, in universe order."""
    partials = {i: f.derivative(name) for i, name in enumerate(f.variables)}
    return {i: d for i, d in partials.items() if not d.is_zero()}


def dense_sum_of_products(variables: tuple[str, ...], products) -> Polynomial:
    """sum scale * a * b over ``(scale, a, b)`` triples, one binary operator
    call at a time, starting from zero over ``variables``."""
    out = Polynomial.zero(variables)
    for scale, a, b in products:
        out = out + a * b * scale
    return out


def dense_sharp(bivector: Multivector, alpha: DifferentialForm) -> Multivector:
    """pi#(alpha)_j = sum_i a_i pi^(ij), over every coordinate index."""
    if alpha.degree != 1:
        raise DegreeError("sharp takes a 1-form")
    if bivector.chart != alpha.chart:
        raise ChartMismatchError("sharp: operands on different charts")
    chart = bivector.chart
    mat = dense_matrix(bivector)
    comps = {}
    for j in range(chart.dim):
        out = chart.zero_poly()
        for (i,), a_i in alpha.components.items():
            out = out + a_i * mat[i][j]
        comps[(j,)] = out
    return Multivector(chart, 1, comps)


def dense_bracket(bivector: Multivector, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum_(i<j) pi^(ij) (d_i f d_j g - d_j f d_i g), over every stored
    component of pi, with no sharp and no pairing."""
    chart = bivector.chart
    f = f.with_variables(chart.coords)
    g = g.with_variables(chart.coords)
    out = chart.zero_poly()
    for (i, j), p in bivector.components.items():
        ci, cj = chart.coords[i], chart.coords[j]
        out = out + p * (f.derivative(ci) * g.derivative(cj) - f.derivative(cj) * g.derivative(ci))
    return out


def dense_d(omega: DifferentialForm) -> DifferentialForm:
    """d(omega), differentiating every component by every coordinate."""
    chart = omega.chart
    if omega.degree >= chart.dim:
        return DifferentialForm.zero(chart, chart.dim)
    terms = []
    for idx, poly in omega.components.items():
        for i, name in enumerate(chart.coords):
            terms.append(((i,) + idx, poly.derivative(name)))
    return DifferentialForm.from_terms(chart, omega.degree + 1, terms)


def dense_lie_one_form(field: Multivector, beta: DifferentialForm) -> DifferentialForm:
    """(L_X beta)_k = X^i d_i beta_k + beta_i d_k X^i, in coordinates."""
    chart = field.chart
    x, b = dense_vector(field), dense_vector(beta)
    comps = {}
    for k, ck in enumerate(chart.coords):
        out = chart.zero_poly()
        for i, ci in enumerate(chart.coords):
            out = out + x[i] * b[k].derivative(ci)
            out = out + b[i] * x[i].derivative(ck)
        comps[(k,)] = out
    return DifferentialForm(chart, 1, comps)


def dense_koszul(bivector: Multivector, alpha: DifferentialForm,
                 beta: DifferentialForm) -> DifferentialForm:
    """[alpha, beta]_pi = L_(pi#alpha) beta - L_(pi#beta) alpha - d(pi(alpha, beta)),
    with pi(alpha, beta) = <beta, pi#alpha> summed over every coordinate."""
    chart = alpha.chart
    pi_alpha = dense_sharp(bivector, alpha)
    value = chart.zero_poly()
    for b_k, x_k in zip(dense_vector(beta), dense_vector(pi_alpha)):
        value = value + b_k * x_k
    first = dense_lie_one_form(pi_alpha, beta)
    second = dense_lie_one_form(dense_sharp(bivector, beta), alpha)
    return first - second - dense_d(DifferentialForm.from_poly(chart, value))


def poly_text(poly: Polynomial) -> str:
    """``poly`` printed by sorting its terms graded-lexicographically, one
    walk over the set fields of each key giving degree, order and text."""
    if not poly._terms:
        return "0"
    names, last = poly.variables, (len(poly.variables) - 1) * W
    rows = []
    for key, coeff in poly._terms.items():
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
        if not product:
            text = rational_text(coeff)
        elif coeff == 1:
            text = product
        elif coeff == -1:
            text = "-" + product
        else:
            text = rational_text(coeff) + "*" + product
        if chunks:
            text = " - " + text[1:] if text[0] == "-" else " + " + text
        chunks.append(text)
    return "".join(chunks)


def tensor_text(tensor) -> str:
    """A form or multivector printed component by component in index order,
    each basis element formatted and each unit component read as it comes,
    with ``poly_text`` for the components."""
    if tensor.degree == 0:
        return poly_text(tensor.as_poly())
    if not tensor._components:
        return "0"
    chunks = []
    for idx in sorted(tensor._components):
        poly = tensor._components[idx]
        basis = "^".join(tensor._basis_fmt.format(tensor.chart.coords[i]) for i in idx)
        unit = poly.constant_value() if poly.is_constant() else None
        if unit == 1:
            chunks.append(basis)
        elif unit == -1:
            chunks.append(f"-{basis}")
        else:
            chunks.append(f"({poly_text(poly)})*{basis}")
    out = chunks[0]
    for text in chunks[1:]:
        out += " - " + text[1:] if text.startswith("-") else " + " + text
    return out


def parity_sort(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """The sorted tuple and the sign of the permutation that sorts it, the
    parity of its inversion count; None when an index repeats."""
    if len(set(indices)) != len(indices):
        return None
    inversions = sum(a > b for pos, a in enumerate(indices) for b in indices[pos + 1:])
    return tuple(sorted(indices)), -1 if inversions % 2 else 1


def dense_cocycle(b: LieBialgebra) -> dict[str, Rational]:
    """delta([e_i, e_j]) - ad_i delta(e_j) + ad_j delta(e_i) over every pair
    i < j, the rows read through the public accessors."""
    residuals = {}
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            acc = {}
            for m, cm in b.bracket(i, j).items():
                for (x, y), c in b.cobracket_row(m).items():
                    _wedge_add(acc, x, y, cm * c)
            for (x, y), c in b._adjoint_on_pairs(i, b.cobracket_row(j)).items():
                _wedge_add(acc, x, y, -c)
            for (x, y), c in b._adjoint_on_pairs(j, b.cobracket_row(i)).items():
                _wedge_add(acc, x, y, c)
            for (x, y), c in _prune(acc).items():
                residuals[f"cocycle[{b.basis[i]},{b.basis[j]} -> {b.basis[x]}^{b.basis[y]}]"] = c
    return residuals


def chained_characteristic_residuals(r: Resolved) -> dict[str, DifferentialForm]:
    """i_T(d phi_i) - sum_(j<k) gamma^(jk)_i (c_j tau*phi_k - c_k tau*phi_j),
    with tau* = ``base_pullback`` and one tensor operator call at a time."""
    pg, tc = r.pg, r.tc
    b = pg.bialgebra
    c = [i_T(tc, form).as_poly() for form in pg.images]
    residuals = {}
    for i in range(b.dim):
        rhs = DifferentialForm.zero(tc.total, 1)
        for (j, k), gamma in b.cobracket_row(i).items():
            pulled_k = base_pullback(tc, pg.images[k])
            pulled_j = base_pullback(tc, pg.images[j])
            rhs = rhs + (pulled_k * c[j] - pulled_j * c[k]) * gamma
        twist = i_T(tc, exterior_derivative(pg.images[i]))
        residuals[f"characteristic[{b.basis[i]}]"] = twist - rhs
    return residuals


def regex_key_holes(pattern: str, written: str) -> tuple[str, ...] | None:
    """The holes of the problem-file key ``pattern`` as the stripped key
    ``written`` fills them, or None when it does not match: each ``{}``
    matches the shortest text, with any blanks around it."""
    regex = re.compile(r"\s*(.*?)\s*".join(map(re.escape, pattern.split("{}"))))
    match = regex.fullmatch(written)
    return None if match is None else match.groups()


class Token(NamedTuple):
    kind: str  # int | ident | op | end
    text: str
    pos: int


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(Token("end", "", n))
    return tokens


class ReferenceParser:
    """Recursive descent that builds a ``Polynomial`` per token."""

    def __init__(self, text: str, variables: tuple[str, ...], chart: Chart | None, kind: str | None):
        self.text = text
        self.tokens = reference_tokenize(text)
        self.i = 0
        self.variables = variables
        self.chart = chart
        self.kind = kind  # None | "form" | "multivector"

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", position=tok.pos)
        return self.advance()

    def _classify_basis(self, name: str) -> int | None:
        if self.chart is None:
            return None
        if self.kind == "form" and name.startswith("d") and name[1:] in self.chart.coords:
            return self.chart.index(name[1:])
        if self.kind == "multivector" and name.startswith("e_") and name[2:] in self.chart.coords:
            return self.chart.index(name[2:])
        return None

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


def reference_parse_poly(text: str, variables: Iterable[str]) -> Polynomial:
    vs = tuple(variables)
    parser = ReferenceParser(text, vs, chart=None, kind=None)
    return sum((coeff for coeff, _ in parser.parse_expr()), Polynomial.zero(vs))


def reference_parse_tensor(text: str, chart: Chart, kind: str, degree: int | None = None):
    """A ``kind`` ("form" or "multivector") literal, its terms assembled by
    ``from_terms``."""
    cls = DifferentialForm if kind == "form" else Multivector
    terms = ReferenceParser(text, chart.coords, chart=chart, kind=kind).parse_expr()
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


def reference_combo(text: str, names: tuple[str, ...], wedge: bool) -> dict:
    """The problem-file loader's ``_combo``: ``2 e1^e2 - 1/2 e2^e3`` as a
    dict keyed by basis index (wedge=False) or ordered index pair."""
    tokens = reference_tokenize(text)
    result: dict = {}
    i = 0

    def err(msg):
        raise ValueError(f"{msg} in {text!r}")

    sign = 1
    expect_term = True
    while tokens[i].kind != "end":
        tok = tokens[i]
        if tok.kind == "op" and tok.text in "+-":
            sign = 1 if tok.text == "+" else -1
            i += 1
            expect_term = True
            continue
        if not expect_term:
            err("expected '+' or '-' between terms")
        coeff = 1
        if tok.kind == "int":
            coeff = int(tok.text)
            i += 1
            if tokens[i].kind == "op" and tokens[i].text == "/":
                i += 1
                if tokens[i].kind != "int":
                    err("expected integer denominator")
                coeff = Fraction(coeff, int(tokens[i].text))
                i += 1
            if tokens[i].kind == "op" and tokens[i].text == "*":
                i += 1
        tok = tokens[i]
        if tok.kind != "ident":
            if coeff == 0:
                expect_term = False
                continue  # a bare 0 term
            err("expected a basis symbol")
        if tok.text not in names:
            err(f"unknown basis symbol {tok.text!r}")
        first = names.index(tok.text)
        i += 1
        if wedge:
            if not (tokens[i].kind == "op" and tokens[i].text == "^"):
                err("expected '^' between basis symbols")
            i += 1
            tok = tokens[i]
            if tok.kind != "ident" or tok.text not in names:
                err("expected a basis symbol after '^'")
            second = names.index(tok.text)
            i += 1
            key = (first, second)
        else:
            key = first
        result[key] = result.get(key, 0) + sign * coeff
        sign = 1
        expect_term = False
    if expect_term and result:
        err("dangling sign")
    return result
