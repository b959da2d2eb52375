"""The tangent bundle chart, tangent derivations, complete lifts, and the
coordinate maps that tie them together.

Iterated bundles are represented purely as coordinate tuples with fixed
block orders and deterministic names derived from the base coordinates:

    TM    (q, v)            v_<c>
    T*M   (q, p)            p_<c>
    TT*M  (q, p, qdot, pdot)  p_<c>, dot_<c>, dot_p_<c>
    T*TM  (q, v, a, b)      v_<c>, a_<c>, b_<c>   (a: dq-coefficients, b: dv-coefficients)
    TTM   (q, v, qdot, vdot)  v_<c>, dot_<c>, dot_v_<c>

The degree -1 tangent derivation i_T kills functions and sends a 1-form
theta to the fiber-linear function sum_j theta_j(q) v_j; on higher forms it
is the contraction with the vertical tautological vector sum_j v_j d/dq_j.
The degree 0 derivation is d_T = i_T d + d i_T, and the complete lift of a
verified Poisson bivector is

    pi_TM = pi^(ij) e_q_i ^ e_v_j  +  (1/2) v_k d_k pi^(ij) e_v_i ^ e_v_j,

certified against the defining identity pi_TM# . alpha = kappa . T(pi#),
where alpha is the exchange map TT*M -> T*TM, (q, p, qdot, pdot) |->
(q, qdot, pdot, p), and kappa the involution flipping the middle blocks of
TTM.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .chart import Chart, DifferentialForm, Multivector, exterior_derivative
from .errors import (
    ChartMismatchError,
    DegreeError,
    DimensionMismatchError,
    NameCollisionError,
    NotPoissonError,
)
from .oracle import SamplePlan
from .poisson import PoissonStructure, full_matrix
from .poly import Polynomial
from .report import CheckReport, make_report


@dataclass(frozen=True)
class TangentChart:
    """Base chart together with its tangent-bundle chart (q, v)."""

    base: Chart
    total: Chart

    @property
    def dim(self) -> int:
        return self.base.dim

    def fiber_of(self, name: str) -> str:
        if name not in self.base.coords:
            raise ChartMismatchError(f"{name!r} is not a base coordinate")
        return f"v_{name}"

    def fiber_poly(self, name: str) -> Polynomial:
        return self.total.coord_poly(self.fiber_of(name))


def tangent_chart(base: Chart) -> TangentChart:
    """Attach fiber coordinates v_<c>; rejects bases that already carry them."""
    for c in base.coords:
        if c.startswith("v_"):
            raise NameCollisionError(
                f"base coordinate {c!r} already carries the fiber prefix 'v_'"
            )
    total = Chart(f"T{base.name}", base.coords + tuple(f"v_{c}" for c in base.coords))
    return TangentChart(base, total)


def cotangent_chart(base: Chart) -> Chart:
    return Chart(f"T*{base.name}", base.coords + tuple(f"p_{c}" for c in base.coords))


def double_cotangent_chart(base: Chart) -> Chart:
    """TT*M block coordinates (q, p, qdot, pdot)."""
    return Chart(
        f"TT*{base.name}",
        base.coords
        + tuple(f"p_{c}" for c in base.coords)
        + tuple(f"dot_{c}" for c in base.coords)
        + tuple(f"dot_p_{c}" for c in base.coords),
    )


def cotangent_tangent_chart(base: Chart) -> Chart:
    """T*TM block coordinates (q, v, a, b)."""
    return Chart(
        f"T*T{base.name}",
        base.coords
        + tuple(f"v_{c}" for c in base.coords)
        + tuple(f"a_{c}" for c in base.coords)
        + tuple(f"b_{c}" for c in base.coords),
    )


def double_tangent_chart(base: Chart) -> Chart:
    """TTM block coordinates (q, v, qdot, vdot)."""
    return Chart(
        f"TT{base.name}",
        base.coords
        + tuple(f"v_{c}" for c in base.coords)
        + tuple(f"dot_{c}" for c in base.coords)
        + tuple(f"dot_v_{c}" for c in base.coords),
    )


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
        object.__setattr__(
            self,
            "components",
            tuple(p.with_variables(self.source.coords) for p in self.components),
        )

    @classmethod
    def identity(cls, chart: Chart) -> "CoordinateMap":
        return cls(chart, chart, tuple(chart.coord_poly(c) for c in chart.coords))

    def compose(self, inner: "CoordinateMap") -> "CoordinateMap":
        """self after inner."""
        if inner.target != self.source:
            raise ChartMismatchError(
                f"cannot compose: inner lands in {inner.target.name}, outer starts at {self.source.name}"
            )
        images = dict(zip(self.source.coords, inner.components))
        comps = tuple(p.compose(images) for p in self.components)
        return CoordinateMap(inner.source, self.target, comps)

    def evaluate(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        assignment = dict(zip(self.source.coords, (Fraction(x) for x in point)))
        return tuple(p.substitute(assignment) for p in self.components)

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


def pull_poly(tc: TangentChart, poly: Polynomial) -> Polynomial:
    return poly.with_variables(tc.total.coords)


def base_pullback(tc: TangentChart, omega: DifferentialForm) -> DifferentialForm:
    """Pull a form on the base back along TM -> M (components unchanged)."""
    if omega.chart != tc.base:
        raise ChartMismatchError(
            f"form lives on {omega.chart.name}, expected base chart {tc.base.name}"
        )
    comps = {idx: pull_poly(tc, p) for idx, p in omega.components.items()}
    return DifferentialForm(tc.total, omega.degree, comps)


# -- tangent derivations -----------------------------------------------------


def i_T(tc: TangentChart, omega: DifferentialForm) -> DifferentialForm:
    """Degree -1 tangent derivation: zero on functions, theta |-> theta_j v_j."""
    if omega.chart != tc.base:
        raise ChartMismatchError(
            f"form lives on {omega.chart.name}, expected base chart {tc.base.name}"
        )
    if omega.degree == 0:
        return DifferentialForm.zero(tc.total, 0)
    terms = []
    for idx, poly in omega.components.items():
        pulled = pull_poly(tc, poly)
        for pos, i in enumerate(idx):
            v = tc.fiber_poly(tc.base.coords[i])
            contrib = pulled * v
            if pos % 2:
                contrib = -contrib
            terms.append((idx[:pos] + idx[pos + 1:], contrib))
    return DifferentialForm.from_terms(tc.total, omega.degree - 1, terms)


def d_T(tc: TangentChart, omega: DifferentialForm) -> DifferentialForm:
    """Degree 0 tangent derivation (complete lift of forms): i_T d + d i_T."""
    first = i_T(tc, exterior_derivative(omega))
    if omega.degree == 0:
        return first  # i_T omega is the zero function, so the second term vanishes
    second = exterior_derivative(i_T(tc, omega))
    if first.degree != second.degree:
        # d(omega) of a top-degree base form is a degree-clamped zero tensor
        assert first.is_zero()
        return second
    return first + second


# -- exchange maps -----------------------------------------------------------


def tulczyjew_alpha(tc: TangentChart) -> CoordinateMap:
    """The exchange map TT*M -> T*TM, (q, p, qdot, pdot) |-> (q, qdot, pdot, p)."""
    src = double_cotangent_chart(tc.base)
    tgt = cotangent_tangent_chart(tc.base)
    comps = (
        tuple(src.coord_poly(c) for c in tc.base.coords)
        + tuple(src.coord_poly(f"dot_{c}") for c in tc.base.coords)
        + tuple(src.coord_poly(f"dot_p_{c}") for c in tc.base.coords)
        + tuple(src.coord_poly(f"p_{c}") for c in tc.base.coords)
    )
    return CoordinateMap(src, tgt, comps)


def tulczyjew_alpha_inverse(tc: TangentChart) -> CoordinateMap:
    """Inverse exchange map T*TM -> TT*M."""
    src = cotangent_tangent_chart(tc.base)
    tgt = double_cotangent_chart(tc.base)
    comps = (
        tuple(src.coord_poly(c) for c in tc.base.coords)
        + tuple(src.coord_poly(f"b_{c}") for c in tc.base.coords)
        + tuple(src.coord_poly(f"v_{c}") for c in tc.base.coords)
        + tuple(src.coord_poly(f"a_{c}") for c in tc.base.coords)
    )
    return CoordinateMap(src, tgt, comps)


def canonical_involution(tc: TangentChart) -> CoordinateMap:
    """The flip of the double tangent bundle: (q, v, qdot, vdot) |-> (q, qdot, v, vdot)."""
    chart = double_tangent_chart(tc.base)
    comps = (
        tuple(chart.coord_poly(c) for c in tc.base.coords)
        + tuple(chart.coord_poly(f"dot_{c}") for c in tc.base.coords)
        + tuple(chart.coord_poly(f"v_{c}") for c in tc.base.coords)
        + tuple(chart.coord_poly(f"dot_v_{c}") for c in tc.base.coords)
    )
    return CoordinateMap(chart, chart, comps)


# -- complete lifts -----------------------------------------------------------


def complete_lift_vf(tc: TangentChart, field: Multivector) -> Multivector:
    """X^c = X^i d/dq_i + v_k d_k X^i d/dv_i on the tangent chart."""
    if field.chart != tc.base or field.degree != 1:
        raise ChartMismatchError("complete lift takes a vector field on the base chart")
    n = tc.dim
    comps: dict[tuple[int, ...], Polynomial] = {}
    for (i,), poly in field.components.items():
        comps[(i,)] = pull_poly(tc, poly)
        vertical = tc.total.zero_poly()
        for k, ck in enumerate(tc.base.coords):
            dpk = poly.derivative(ck)
            if dpk.is_zero():
                continue
            vertical = vertical + tc.fiber_poly(ck) * pull_poly(tc, dpk)
        if not vertical.is_zero():
            comps[(n + i,)] = vertical
    return Multivector(tc.total, 1, comps)


def complete_lift_bivector(pi: PoissonStructure, tc: TangentChart | None = None) -> PoissonStructure:
    """The fiberwise-linear lift of a verified Poisson bivector to TM."""
    if not pi.jacobi_verified:
        raise NotPoissonError("complete lift requires a verified Poisson structure")
    if tc is None:
        tc = tangent_chart(pi.chart)
    if tc.base != pi.chart:
        raise ChartMismatchError("tangent chart does not extend the structure's chart")
    n = tc.dim
    mat = full_matrix(pi.bivector)
    comps: dict[tuple[int, ...], Polynomial] = {}
    for i in range(n):
        for j in range(n):
            if not mat[i][j].is_zero():
                comps[(i, n + j)] = pull_poly(tc, mat[i][j])
    for i in range(n):
        for j in range(i + 1, n):
            vertical = tc.total.zero_poly()
            for k, ck in enumerate(tc.base.coords):
                d = mat[i][j].derivative(ck)
                if not d.is_zero():
                    vertical = vertical + tc.fiber_poly(ck) * pull_poly(tc, d)
            if not vertical.is_zero():
                comps[(n + i, n + j)] = vertical
    lifted = Multivector(tc.total, 2, comps)
    return PoissonStructure.from_bivector(lifted)


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
    zchart = double_cotangent_chart(base)

    def zvar(name: str) -> Polynomial:
        return zchart.coord_poly(name)

    def on_z(poly: Polynomial) -> Polynomial:
        return poly.with_variables(zchart.coords)

    # right-hand side: kappa . T(pi#)
    mat = full_matrix(pi.bivector)
    rhs_qdot = []
    rhs_vdot = []
    for j in range(n):
        qdot = zchart.zero_poly()
        vdot = zchart.zero_poly()
        for i in range(n):
            pij = on_z(mat[i][j])
            if pij.is_zero():
                continue
            qdot = qdot + zvar(f"p_{base.coords[i]}") * pij
            vdot = vdot + zvar(f"dot_p_{base.coords[i]}") * pij
            for k in range(n):
                d = mat[i][j].derivative(base.coords[k])
                if not d.is_zero():
                    vdot = vdot + zvar(f"p_{base.coords[i]}") * on_z(d) * zvar(f"dot_{base.coords[k]}")
        rhs_qdot.append(qdot)
        rhs_vdot.append(vdot)

    # left-hand side: pi_TM# . alpha, with alpha(q, p, qdot, pdot) the covector
    # at (q, v=qdot) whose dq-coefficients are pdot and dv-coefficients are p.
    subs = {c: zvar(c) for c in base.coords}
    subs.update({f"v_{c}": zvar(f"dot_{c}") for c in base.coords})
    cmat = full_matrix(cand)
    csub = [[entry.compose(subs) for entry in row] for row in cmat]
    lhs_qdot = []
    lhs_vdot = []
    for j in range(n):
        qdot = zchart.zero_poly()
        vdot = zchart.zero_poly()
        for i in range(n):
            a_i = zvar(f"dot_p_{base.coords[i]}")
            b_i = zvar(f"p_{base.coords[i]}")
            qdot = qdot + a_i * csub[i][j] + b_i * csub[n + i][j]
            vdot = vdot + a_i * csub[i][n + j] + b_i * csub[n + i][n + j]
        lhs_qdot.append(qdot)
        lhs_vdot.append(vdot)

    residuals: dict[str, Polynomial] = {}
    for j, c in enumerate(base.coords):
        residuals[f"dot_{c}"] = rhs_qdot[j] - lhs_qdot[j]
    for j, c in enumerate(base.coords):
        residuals[f"dot_v_{c}"] = rhs_vdot[j] - lhs_vdot[j]
    return residuals


def verify_tangent_lift_identity(pi: PoissonStructure, candidate,
                                 plan: SamplePlan | None = None) -> CheckReport:
    """Exact check of the lift identity; pass iff every residual is zero."""
    residuals = tangent_lift_residuals(pi, candidate)
    return make_report(
        "tangent-lift-identity",
        "pi_TM# . alpha = kappa . T(pi#) on TT*M block coordinates",
        residuals,
        plan=plan,
    )


def one_form_prolongation(tc: TangentChart, theta: DifferentialForm) -> CoordinateMap:
    """T(theta): TM -> TT*M for a 1-form theta read as the map q |-> (q, theta(q))."""
    if theta.chart != tc.base or theta.degree != 1:
        raise DegreeError("prolongation takes a 1-form on the base chart")
    base = tc.base
    src = tc.total
    tgt = double_cotangent_chart(base)
    theta_comp = [theta.component((i,)) for i in range(base.dim)]
    comps = list(src.coord_poly(c) for c in base.coords)
    comps += [pull_poly(tc, t) for t in theta_comp]
    comps += [src.coord_poly(f"v_{c}") for c in base.coords]
    for t in theta_comp:
        total = src.zero_poly()
        for k, ck in enumerate(base.coords):
            d = t.derivative(ck)
            if not d.is_zero():
                total = total + pull_poly(tc, d) * src.coord_poly(f"v_{ck}")
        comps.append(total)
    return CoordinateMap(src, tgt, tuple(comps))


def one_form_as_covector_map(tc: TangentChart, omega: DifferentialForm) -> CoordinateMap:
    """Read a 1-form on TM as the coordinate map TM -> T*TM."""
    if omega.chart != tc.total or omega.degree != 1:
        raise DegreeError("expected a 1-form on the tangent chart")
    base = tc.base
    n = base.dim
    src = tc.total
    tgt = cotangent_tangent_chart(base)
    comps = [src.coord_poly(c) for c in src.coords]  # q block then v block
    comps += [omega.component((i,)) for i in range(n)]          # dq-coefficients
    comps += [omega.component((n + i,)) for i in range(n)]      # dv-coefficients
    return CoordinateMap(src, tgt, tuple(comps))


def one_form_lift_residuals(theta: DifferentialForm) -> dict[str, Polynomial]:
    """Residual of alpha . T(theta) = d_T(theta), per T*TM coordinate."""
    tc = tangent_chart(theta.chart)
    composed = tulczyjew_alpha(tc).compose(one_form_prolongation(tc, theta))
    direct = one_form_as_covector_map(tc, d_T(tc, theta))
    return {
        name: lhs - rhs
        for name, lhs, rhs in zip(composed.target.coords, composed.components, direct.components)
    }


def verify_lemma_alpha_dT(theta: DifferentialForm, plan: SamplePlan | None = None) -> CheckReport:
    """Exact check that the prolongation-exchange composite equals the complete lift."""
    residuals = one_form_lift_residuals(theta)
    return make_report(
        "tangent-prolongation-1form",
        "alpha . T(theta) = d_T(theta) as maps TM -> T*TM",
        residuals,
        plan=plan,
    )
