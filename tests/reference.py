"""Dense reference routes for the block-by-block lift kernels.

The library applies the exchange map alpha and the involution kappa as block
permutations inside its residual kernels and builds no coordinate map.  The
routes here build the maps as ``CoordinateMap`` values, compose them and
compare every coordinate, so the tests can check the kernels against them.
They keep their own copy of alpha's block order: a wrong order in
``poissonlift.tangent`` does not carry over to the reference.

The complete-lift kernel f |-> f^c is read from ``poissonlift.tangent`` at
call time, so a test that replaces it there changes both routes alike.
"""

from __future__ import annotations

from typing import Sequence

from poissonlift import CoordinateMap, DifferentialForm, TangentChart, bundle_chart, d_T, tangent
from poissonlift.errors import ChartMismatchError, DegreeError

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
