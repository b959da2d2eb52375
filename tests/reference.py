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

The library computes the Koszul bracket in Cartan form from the held
differentials; ``dense_koszul`` takes the defining formula with two
coordinate Lie derivatives, walking every coordinate index, and pairs by
hand, so it shares no kernel with that route.

The library files every product of a characteristic identity row into one
term map, reading the base components of the images as polynomials on TM;
``chained_characteristic_residuals`` pulls each image back with
``base_pullback``, derives its own twists and comomenta, and sums the row
with the tensor ``*``, ``+`` and ``-``.

The problem-file loader splits a pattern key such as ``[{},{}]`` with
``str.partition``; ``regex_key_holes`` reads it with a regular expression.
"""

from __future__ import annotations

import re
from typing import Sequence

from poissonlift import (
    CoordinateMap,
    DifferentialForm,
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
from poissonlift.errors import ChartMismatchError, DegreeError

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
