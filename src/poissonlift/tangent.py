"""The tangent bundle chart, tangent derivations, complete lifts, and the
coordinate maps that tie them together.

Iterated bundles are represented purely as coordinate tuples: one block of
base coordinates per entry of a fixed block table, each block named by a
prefix on the base coordinate names (see :func:`bundle_chart`):

    T     TM    (q, v)              v_<c>
    T*    T*M   (q, p)              p_<c>
    TT*   TT*M  (q, p, qdot, pdot)  p_<c>, dot_<c>, dot_p_<c>
    T*T   T*TM  (q, v, a, b)        v_<c>, a_<c>, b_<c>   (a: dq-coefficients, b: dv-coefficients)
    TT    TTM   (q, v, qdot, vdot)  v_<c>, dot_<c>, dot_v_<c>

The tangent derivations act on forms on M through their pullback to TM and
the tautological field T = sum_j v_j d/dq_j of TM (Yano-Ishihara 1973;
Grabowski-Urbanski 1995): the degree -1 derivation i_T is the contraction
with T, so it kills functions and sends a 1-form theta to the fiber-linear
function sum_j theta_j(q) v_j, and the degree 0 derivation d_T = [i_T, d] is
the Lie derivative along T, which on a function f is f^c = v_k d_k f.  Both
are the chart kernels ``interior_product`` and ``lie_derivative``; the
latter computes d_T by the coordinate formula for L_T in one pass, and the
tests keep i_T d + d i_T as its reference.  The complete lift of a verified
Poisson bivector is

    pi_TM = pi^(ij) e_q_i ^ e_v_j  +  (1/2) v_k d_k pi^(ij) e_v_i ^ e_v_j,

certified against the defining identity pi_TM# . alpha = kappa . T(pi#),
where alpha is the exchange map TT*M -> T*TM, (q, p, qdot, pdot) |->
(q, qdot, pdot, p), and kappa the involution flipping the middle blocks of
TTM.  Both only permute coordinate blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .chart import (
    Chart,
    DifferentialForm,
    Multivector,
    _gradient,
    interior_product,
    lie_derivative,
)
from .errors import (
    ChartMismatchError,
    DegreeError,
    DimensionMismatchError,
    NameCollisionError,
    NotPoissonError,
)
from .oracle import SamplePlan
from .poisson import PoissonStructure
from .poly import W, Polynomial
from .report import CheckReport, Statement, make_report

# Block prefixes of each bundle chart in chart order; "" is the base block.
_BLOCKS = {
    "T": ("", "v_"),
    "T*": ("", "p_"),
    "TT*": ("", "p_", "dot_", "dot_p_"),
    "T*T": ("", "v_", "a_", "b_"),
    "TT": ("", "v_", "dot_", "dot_v_"),
}

# alpha: TT*M -> T*TM puts TT*M blocks (q, qdot, pdot, p) in the T*TM slots.
_ALPHA_ORDER = (0, 2, 3, 1)


def bundle_chart(base: Chart, kind: str) -> Chart:
    """The chart of the bundle ``kind`` ("T", "T*", "TT*", "T*T" or "TT")
    over ``base``: one block of base coordinates per prefix of the kind."""
    if kind not in _BLOCKS:
        raise ValueError(f"unknown bundle {kind!r}; choose from {', '.join(_BLOCKS)}")
    return Chart(f"{kind}{base.name}", tuple(pre + c for pre in _BLOCKS[kind] for c in base.coords))


def _in_block_order(items: Sequence, order: Sequence[int]) -> tuple:
    """Split ``items`` into len(order) equal blocks and put block order[b] in slot b."""
    n = len(items) // len(order)
    return tuple(x for b in order for x in items[b * n:(b + 1) * n])


@dataclass(frozen=True)
class TangentChart:
    """Base chart together with its tangent-bundle chart (q, v)."""

    base: Chart
    total: Chart

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def coord_polys(self) -> tuple[Polynomial, ...]:
        """The coordinate functions of the total chart (q block, then v
        block), built on first use and then kept."""
        return tuple(self.total.coord_poly(c) for c in self.total.coords)

    @cached_property
    def coord_blocks(self) -> tuple[dict[int, Polynomial], dict[int, Polynomial]]:
        """The q block and the v block of ``coord_polys``, each a dict from
        base index to coordinate function, built on first use and then kept."""
        n = self.dim
        return tuple({j: self.coord_polys[b * n + j] for j in range(n)} for b in (0, 1))

    def fiber_poly(self, name: str) -> Polynomial:
        if name not in self.base.coords:
            raise ChartMismatchError(f"{name!r} is not a base coordinate")
        return self.coord_polys[self.dim + self.base.index(name)]

    @cached_property
    def tautological(self) -> Multivector:
        """The field T = sum_j v_j d/dq_j on the total chart."""
        n = self.dim
        return Multivector._make(self.total, 1, {(j,): self.coord_polys[n + j] for j in range(n)})


def tangent_chart(base: Chart) -> TangentChart:
    """Attach fiber coordinates v_<c>; rejects bases that already carry them."""
    for c in base.coords:
        if c.startswith("v_"):
            raise NameCollisionError(
                f"base coordinate {c!r} already carries the fiber prefix 'v_'"
            )
    return TangentChart(base, bundle_chart(base, "T"))


@dataclass(frozen=True)
class CoordinateMap:
    """Polynomial map between charts: one component per target coordinate,
    written in source coordinates."""

    source: Chart
    target: Chart
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.components) != self.target.dim:
            raise DimensionMismatchError(
                f"{len(self.components)} components for target of dim {self.target.dim}"
            )
        object.__setattr__(self, "components",
                           tuple(p.with_variables(self.source.coords) for p in self.components))

    def compose(self, inner: "CoordinateMap") -> "CoordinateMap":
        """self after inner."""
        if inner.target != self.source:
            raise ChartMismatchError(
                f"cannot compose: inner lands in {inner.target.name}, outer starts at {self.source.name}"
            )
        images = dict(zip(self.source.coords, inner.components))
        comps = tuple(p.compose(images) for p in self.components)
        return CoordinateMap(inner.source, self.target, comps)

    def jacobian(self) -> list[list[Polynomial]]:
        """Entry [a][k] = d(component_a)/d(source_k)."""
        return [
            [p.derivative(c) for c in self.source.coords]
            for p in self.components
        ]

    def is_identity(self) -> bool:
        return self.source == self.target and all(
            p == self.source.coord_poly(c) for p, c in zip(self.components, self.source.coords)
        )


# -- pullback along the bundle projection ----------------------------------
# A base polynomial already is one on every bundle chart over it (see poly).


def _require_base(tc: TangentChart, omega: DifferentialForm) -> None:
    if omega.chart != tc.base:
        raise ChartMismatchError(
            f"form lives on {omega.chart.name}, expected base chart {tc.base.name}"
        )


def _complete_lift_poly(tc: TangentChart, poly: Polynomial) -> Polynomial:
    """f^c = v_k d_k f on the tangent chart, for f on the base chart."""
    total = tc.total.zero_poly()
    for ck in poly.used_variables():
        total = total + tc.fiber_poly(ck) * poly.derivative(ck)
    return total


def base_pullback(tc: TangentChart, omega: DifferentialForm) -> DifferentialForm:
    """Pull a form on the base back along TM -> M (components unchanged)."""
    _require_base(tc, omega)
    coords = tc.total.coords
    pulled = {k: p.with_variables(coords) for k, p in omega._components.items()}
    return DifferentialForm._make(tc.total, omega.degree, pulled)


# -- tangent derivations -----------------------------------------------------


def i_T(tc: TangentChart, omega: DifferentialForm) -> DifferentialForm:
    """Degree -1 tangent derivation: zero on functions, theta |-> theta_j v_j."""
    pulled = base_pullback(tc, omega)
    if omega.degree == 0:
        return DifferentialForm.zero(tc.total, 0)
    return interior_product(tc.tautological, pulled)


def d_T(tc: TangentChart, omega: DifferentialForm) -> DifferentialForm:
    """Degree 0 tangent derivation (complete lift of forms): i_T d + d i_T,
    computed as the chart's coordinate Lie derivative along the tautological
    field; on a function it is f^c = v_k d_k f, which the Hamiltonian
    comomentum check compares with i_T(df)."""
    return lie_derivative(tc.tautological, base_pullback(tc, omega))


# -- exchange maps -----------------------------------------------------------


def _block_permutation(base: Chart, source: str, target: str,
                       order: Sequence[int]) -> CoordinateMap:
    """The map between bundle charts whose target block b is source block order[b]."""
    src = bundle_chart(base, source)
    comps = tuple(src.coord_poly(c) for c in _in_block_order(src.coords, order))
    return CoordinateMap(src, bundle_chart(base, target), comps)


def tulczyjew_alpha(tc: TangentChart) -> CoordinateMap:
    """The exchange map TT*M -> T*TM, (q, p, qdot, pdot) |-> (q, qdot, pdot, p)."""
    return _block_permutation(tc.base, "TT*", "T*T", _ALPHA_ORDER)


def tulczyjew_alpha_inverse(tc: TangentChart) -> CoordinateMap:
    """Inverse exchange map T*TM -> TT*M, (q, v, a, b) |-> (q, b, v, a)."""
    inverse = tuple(_ALPHA_ORDER.index(b) for b in range(len(_ALPHA_ORDER)))
    return _block_permutation(tc.base, "T*T", "TT*", inverse)


def canonical_involution(tc: TangentChart) -> CoordinateMap:
    """The flip of the double tangent bundle: (q, v, qdot, vdot) |-> (q, qdot, v, vdot)."""
    return _block_permutation(tc.base, "TT", "TT", (0, 2, 1, 3))


# -- complete lifts -----------------------------------------------------------


def complete_lift_vf(tc: TangentChart, field: Multivector) -> Multivector:
    """X^c = X^i d/dq_i + v_k d_k X^i d/dv_i on the tangent chart."""
    if field.chart != tc.base or field.degree != 1:
        raise ChartMismatchError("complete lift takes a vector field on the base chart")
    n = tc.dim
    comps: dict[tuple[int, ...], Polynomial] = {}
    for (i,), poly in field.components.items():
        comps[(i,)] = poly
        comps[(n + i,)] = _complete_lift_poly(tc, poly)
    return Multivector(tc.total, 1, comps)


def complete_lift_bivector(pi: PoissonStructure, tc: TangentChart) -> PoissonStructure:
    """The fiberwise-linear lift of a verified Poisson bivector to TM.

    The lift is Poisson because [P^c, Q^c] = [P, Q]^c, so its own Jacobi
    verdict is computed only if something reads it."""
    if not pi.jacobi_verified:
        raise NotPoissonError("complete lift requires a verified Poisson structure")
    if tc.base != pi.chart:
        raise ChartMismatchError("tangent chart does not extend the structure's chart")
    n = tc.dim
    comps = {}
    for (i, j), p in pi.bivector._components.items():
        comps[(i, n + j)] = p
        comps[(j, n + i)] = -p
        comps[(n + i, n + j)] = _complete_lift_poly(tc, p)
    return PoissonStructure(Multivector(tc.total, 2, dict(sorted(comps.items()))))


# -- identity checks -----------------------------------------------------------


def tangent_lift_residuals(pi: PoissonStructure, candidate) -> dict[str, Polynomial]:
    """Residual of pi_TM# . alpha = kappa . T(pi#), per output coordinate of TTM.

    Both sides are assembled as polynomial maps on the TT*M block coordinates
    (q, p, qdot, pdot) and subtracted.  The candidate may be a bivector or a
    Poisson structure on the tangent chart of pi's chart.
    """
    cand = candidate.bivector if isinstance(candidate, PoissonStructure) else candidate
    base = pi.chart
    tc = tangent_chart(base)
    if cand.chart != tc.total or cand.degree != 2:
        raise ChartMismatchError("candidate must be a bivector on the tangent chart")
    n = base.dim
    zchart = bundle_chart(base, "TT*")
    z = [zchart.coord_poly(c) for c in zchart.coords]
    p, qdot, pdot = z[n:2 * n], z[2 * n:3 * n], z[3 * n:]

    # right-hand side: kappa . T(pi#), from both orientations of each stored
    # pi^(ab): slot j gets p_i pi^(ij) and slot n + j gets
    # pdot_i pi^(ij) + p_i qdot_k d_k pi^(ij), with pi^(ba) = -pi^(ab)
    rhs = [zchart.zero_poly() for _ in range(2 * n)]  # qdot block, then vdot block
    for (a, b), c in pi.bivector._components.items():
        dc = zchart.zero_poly()  # qdot_k d_k pi^(ab)
        for k, partial in _gradient(base, c).items():
            dc = dc + partial * qdot[k]
        rhs[b] = rhs[b] + p[a] * c
        rhs[a] = rhs[a] - p[b] * c
        rhs[n + b] = rhs[n + b] + pdot[a] * c + p[a] * dc
        rhs[n + a] = rhs[n + a] - pdot[b] * c - p[b] * dc

    # left-hand side: pi_TM# . alpha, with alpha(q, p, qdot, pdot) the covector
    # at (q, v=qdot) whose dq-coefficients xi are pdot and dv-coefficients p,
    # built the way sharp is: slot b gets xi_a c and slot a gets -xi_b c.
    # Setting v = qdot moves the v fields of each monomial key of c, over
    # (q, v), up n fields onto the qdot block of (q, p, qdot, pdot); renaming
    # through with_variables would rebuild a universe map per component.
    shift = n * W
    q_mask = (1 << shift) - 1
    xi = pdot + p
    lhs = [zchart.zero_poly() for _ in range(2 * n)]
    for (a, b), c in cand._components.items():
        cz = Polynomial._make(zchart.coords, {(key & q_mask) | (key >> shift << 2 * shift): coeff
                                              for key, coeff in c._terms.items()})
        lhs[b] = lhs[b] + xi[a] * cz
        lhs[a] = lhs[a] - xi[b] * cz

    names = bundle_chart(base, "TT").coords[2 * n:]  # the (qdot, vdot) blocks of TTM
    return {name: r - l for name, r, l in zip(names, rhs, lhs)}


TANGENT_LIFT_IDENTITY = Statement(
    "tangent-lift-identity",
    "pi_TM# . alpha = kappa . T(pi#) on TT*M block coordinates",
)


def verify_tangent_lift_identity(pi: PoissonStructure, candidate,
                                 plan: SamplePlan | None = None) -> CheckReport:
    """Exact check of the lift identity; pass iff every residual is zero."""
    return make_report(*TANGENT_LIFT_IDENTITY, tangent_lift_residuals(pi, candidate), plan=plan)


def _require_base_one_form(tc: TangentChart, theta: DifferentialForm) -> None:
    if theta.chart != tc.base or theta.degree != 1:
        raise DegreeError("prolongation takes a 1-form on the base chart")


def one_form_prolongation(tc: TangentChart, theta: DifferentialForm) -> CoordinateMap:
    """T(theta): TM -> TT*M for a 1-form theta read as the map q |-> (q, theta(q))."""
    _require_base_one_form(tc, theta)
    n = tc.dim
    src = tc.total
    q_v = list(tc.coord_polys)
    # a missing component is the total chart's kept zero, which needs no re-index
    theta_comp = [theta._components.get((i,), src.zero_poly()) for i in range(n)]
    comps = (q_v[:n] + theta_comp
             + q_v[n:] + [_complete_lift_poly(tc, t) for t in theta_comp])
    return CoordinateMap(src, bundle_chart(tc.base, "TT*"), tuple(comps))


def one_form_lift_residuals(tc: TangentChart, theta: DifferentialForm) -> dict[str, Polynomial]:
    """Residual of alpha . T(theta) = d_T(theta) on the T*TM coordinates
    where the two sides can differ, in coordinate order.

    Each side is four sparse blocks, base index -> component: T(theta) =
    (q, theta, v, theta^c) in alpha's block order against the covector
    d_T(theta) = (q, v, dq-, dv-coefficients).  A slot neither side fills is
    zero on both; a block both take from one object needs no subtraction."""
    _require_base_one_form(tc, theta)
    n = tc.dim
    q, v = tc.coord_blocks
    form = {j: t for (j,), t in theta._components.items()}
    prolonged = (q, form, v, {j: _complete_lift_poly(tc, t) for j, t in form.items()})
    covector = (q, v, {}, {})
    for (i,), c in d_T(tc, theta)._components.items():
        covector[2 + i // n][i % n] = c
    zero = tc.total.zero_poly()
    residuals = {}
    for prefix, lhs, rhs in zip(_BLOCKS["T*T"], _in_block_order(prolonged, _ALPHA_ORDER), covector):
        if lhs is not rhs:
            for j in sorted(lhs.keys() | rhs.keys()):
                residuals[prefix + tc.base.coords[j]] = lhs.get(j, zero) - rhs.get(j, zero)
    return residuals
