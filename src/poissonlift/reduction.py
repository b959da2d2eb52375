"""Momentum-map machinery: bracket/cobracket-compatible families of 1-forms,
their fiber-linear counterparts on the tangent bundle, and the exact
identities that make the zero level set coisotropic and tie the lifted
generators to Hamiltonian fields.

A certified family phi: g -> 1-forms satisfies, for the attached bialgebra,

    (i)  phi_[x, y] = [phi_x, phi_y]_pi            (Koszul bracket)
    (ii) d(phi_i)   = sum_(j<k) gamma^(jk)_i phi_j ^ phi_k

and the induced fiber-linear functions c_i = i_T(phi_i) then close under the
lifted Poisson bracket: {c_i, c_j}_TM = c_[e_i, e_j].  The lifted checks
take a ``Resolved`` value, which certifies the map and lifts pi once and
passes both on.  A lifted check whose prerequisites fail (pi not Poisson,
the bialgebra not verified or, past ``certify_pgmap``, a map with a nonzero
axiom residual) returns its ``fail`` report with one ``unverified-input``
residual naming the first that fails.  Negative controls observe the nonzero
residuals of such a map through the ``*_residuals`` functions, which take no
certification step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import _linalg
from .bialgebra import LieBialgebra, abelian_bialgebra
from .chart import (
    Chart,
    DifferentialForm,
    Multivector,
    exterior_derivative,
    wedge,
)
from .errors import ChartMismatchError, DegreeError, DimensionMismatchError, LevelSetError
from .oracle import SamplePlan
from .poisson import (
    PoissonStructure,
    SymplecticForm,
    _koszul,
    differential,
    hamiltonian_vf,
    poisson_bracket,
    sharp,
)
from .poly import Polynomial, rational
from .report import CheckReport, Statement, make_report
from .tangent import (
    CoordinateMap,
    TangentChart,
    base_pullback,
    bundle_chart,
    complete_lift_bivector,
    complete_lift_vf,
    i_T,
    tangent_chart,
)


@dataclass(frozen=True)
class PGMap:
    """Linear map from a bialgebra into 1-forms, stored as basis images."""

    bialgebra: LieBialgebra
    chart: Chart
    images: tuple[DifferentialForm, ...]

    def __post_init__(self):
        if len(self.images) != self.bialgebra.dim:
            raise DimensionMismatchError(
                f"{len(self.images)} images for bialgebra of dim {self.bialgebra.dim}"
            )
        for form in self.images:
            if form.chart != self.chart:
                raise ChartMismatchError("image form lives on the wrong chart")
            if form.degree != 1:
                raise DegreeError("images must be 1-forms")

    def image(self, xs: Sequence) -> DifferentialForm:
        """Linear combination of basis images."""
        vec = tuple(rational(x) for x in xs)
        if len(vec) != self.bialgebra.dim:
            raise DimensionMismatchError(f"expected {self.bialgebra.dim} coefficients, got {len(vec)}")
        out = DifferentialForm.zero(self.chart, 1)
        for coeff, form in zip(vec, self.images):
            if coeff != 0:
                out = out + form * coeff
        return out


@dataclass(frozen=True)
class FiberLinearFunction:
    """A function on TM of the shape sum_j theta_j(q) v_j, kept as its base 1-form."""

    base_form: DifferentialForm

    def __post_init__(self):
        if self.base_form.degree != 1:
            raise DegreeError("fiber-linear functions come from 1-forms")

    @property
    def chart(self) -> Chart:
        return self.base_form.chart

    def as_polynomial(self, tc: TangentChart) -> Polynomial:
        return i_T(tc, self.base_form).as_poly()


@dataclass(frozen=True)
class MomentumMapData:
    """Components of a map into the dual of the bialgebra, one polynomial each."""

    chart: Chart
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "components",
                           tuple(p.with_variables(self.chart.coords) for p in self.components))


PGMAP_CERTIFICATION = Statement(
    "pgmap-certification",
    "phi_[x,y] = [phi_x, phi_y]_pi and d(phi_i) = sum gamma^(jk)_i phi_j^phi_k",
)
BRACKET_CLOSURE = Statement(
    "bracket-closure",
    "{c_i, c_j}_TM = c_[e_i, e_j] for the fiber-linear momentum components",
)
TANGENT_GENERATOR_AGREEMENT = Statement(
    "tangent-generator-agreement",
    "X_(i_T phi) + pi_TM#(i_T d phi) equals the complete lift of pi#(phi)",
)
CHARACTERISTIC_IDENTITY = Statement(
    "characteristic-identity",
    "i_T(d phi_i) = sum gamma^(jk)_i (c_j tau*phi_k - c_k tau*phi_j)",
)
SYMPLECTIC_IMAGES_CLOSED = Statement(
    "symplectic-images-closed",
    "L_X(omega) = 0 implies d(i_X omega) = 0",
)


# -- certification --------------------------------------------------------------


def pgmap_residuals(pg: PGMap, pi: PoissonStructure) -> dict[str, DifferentialForm]:
    """Residual forms of the two compatibility axioms, named per basis datum."""
    b = pg.bialgebra
    sharps = [sharp(pi, image) for image in pg.images]
    residuals: dict[str, DifferentialForm] = {}
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            expected = DifferentialForm.zero(pg.chart, 1)
            for m, coeff in b.bracket(i, j).items():
                expected = expected + pg.images[m] * coeff
            actual = _koszul(pg.images[i], pg.images[j], sharps[i], sharps[j])
            residuals[f"bracket-axiom[{b.basis[i]},{b.basis[j]}]"] = expected - actual
    for i in range(b.dim):
        rhs = DifferentialForm.zero(pg.chart, 2)
        for (j, k), gamma in b.cobracket_row(i).items():
            rhs = rhs + wedge(pg.images[j], pg.images[k]) * gamma
        residuals[f"cocycle-axiom[{b.basis[i]}]"] = exterior_derivative(pg.images[i]) - rhs
    return residuals


class Resolved:
    """A Poisson structure ``pi``, optionally a map ``pg``, and what the lifted
    checks derive from them, each member computed on first use and then kept:
    the tangent chart ``tc``, the complete lift ``pi_tm``, the axiom residuals
    ``certification`` and the lifted ``generators``.  ``pi_tm`` is built only
    from a ``pi`` whose Jacobi verdict is true, and the complete lift
    preserves the Schouten bracket, so no check computes [pi_TM, pi_TM].

    Computing a member twice gives the same value, so an instance can be
    shared without locks.  Checks return ``require``'s refusal, when there is
    one, before reading members that presuppose a certified map."""

    def __init__(self, pi: PoissonStructure, pg: PGMap | None = None):
        self.pi = pi
        self.pg = pg

    @cached_property
    def tc(self) -> TangentChart:
        return tangent_chart(self.pi.chart)

    @cached_property
    def pi_tm(self) -> PoissonStructure:
        return complete_lift_bivector(self.pi, self.tc)

    @cached_property
    def certification(self) -> dict[str, DifferentialForm]:
        """Residuals of both axioms of ``pg`` against ``pi``."""
        return pgmap_residuals(self.pg, self.pi)

    @cached_property
    def generators(self) -> tuple[tuple[Multivector, Multivector], ...]:
        """Per basis element: its lifted generator by the lift formula and
        the complete lift of its base generator."""
        dim = self.pg.bialgebra.dim
        units = [[int(i == j) for j in range(dim)] for i in range(dim)]
        return tuple((tangent_generator(self, unit), tangent_generator_direct(self, unit))
                     for unit in units)

    def require_poisson(self, statement: Statement) -> CheckReport | None:
        """None when pi is Jacobi-verified, else ``statement``'s ``fail``
        report saying that it is not; the one input the lift of pi needs."""
        if self.pi.jacobi_verified:
            return None
        return _refusal(statement, "Poisson structure is not Jacobi-verified")

    def require(self, statement: Statement, certified: bool = True) -> CheckReport | None:
        """None when the inputs ``statement`` presupposes hold, else its
        ``fail`` report naming the first that does not: a Jacobi-verified pi,
        a verified bialgebra and, when ``certified``, zero axiom residuals."""
        if self.pg.chart != self.pi.chart:
            raise ChartMismatchError("map images and Poisson structure on different charts")
        if refusal := self.require_poisson(statement):
            return refusal
        if not self.pg.bialgebra.verified:
            return _refusal(statement, "bialgebra failed (or skipped) its structure checks")
        if certified and (bad := [name for name, res in self.certification.items()
                                  if not res.is_zero()]):
            return _refusal(statement, f"map is not certified; failing residuals: {', '.join(bad)}")
        return None


def _refusal(statement: Statement, reason: str) -> CheckReport:
    return CheckReport(*statement, verdict="fail", residuals=(("unverified-input", reason),))


def certify_pgmap(r: Resolved, plan: SamplePlan | None = None) -> CheckReport:
    """Exact verdict on both axioms; refused unless the bialgebra and the
    Poisson data are verified."""
    return (r.require(PGMAP_CERTIFICATION, certified=False)
            or make_report(*PGMAP_CERTIFICATION, r.certification, plan=plan))


# -- generators and fiber-linear functions ---------------------------------------


def generator(pg: PGMap, pi: PoissonStructure, xs: Sequence) -> Multivector:
    """Action generator pi#(phi_x) for a coefficient vector x."""
    return sharp(pi, pg.image(xs))


def comomentum(pg: PGMap, xs: Sequence) -> FiberLinearFunction:
    """The fiber-linear function i_T(phi_x) on the tangent chart."""
    return FiberLinearFunction(pg.image(xs))


def comomentum_components(pg: PGMap, tc: TangentChart) -> list[Polynomial]:
    return [i_T(tc, form).as_poly() for form in pg.images]


# -- bracket closure of the zero level set ----------------------------------------


def bracket_closure_residuals(r: Resolved) -> dict[str, Polynomial]:
    """{c_i, c_j}_TM - c_[e_i, e_j] for every ordered basis pair."""
    b = r.pg.bialgebra
    tc = r.tc
    c = comomentum_components(r.pg, tc)
    residuals: dict[str, Polynomial] = {}
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            lifted = poisson_bracket(r.pi_tm, c[i], c[j])
            expected = tc.total.zero_poly()
            for k, coeff in b.bracket(i, j).items():
                expected = expected + coeff * c[k]
            residuals[f"closure[{b.basis[i]},{b.basis[j]}]"] = lifted - expected
    return residuals


def bracket_closure_check(r: Resolved, *, plan: SamplePlan | None = None) -> CheckReport:
    """Certifies that the zero level set of c is coisotropic: the lifted
    bracket of generators lands back in the generated ideal."""
    return (r.require(BRACKET_CLOSURE)
            or make_report(*BRACKET_CLOSURE, bracket_closure_residuals(r), plan=plan))


# -- lifted generators --------------------------------------------------------------


def tangent_generator(r: Resolved, xs: Sequence) -> Multivector:
    """Lifted generator X_(i_T phi_x) + pi_TM#(i_T d phi_x) on the tangent chart."""
    tc = r.tc
    phi = r.pg.image(xs)
    hamiltonian_part = hamiltonian_vf(r.pi_tm, i_T(tc, phi).as_poly())
    twist = i_T(tc, exterior_derivative(phi))
    if twist.is_zero():
        return hamiltonian_part
    return hamiltonian_part + sharp(r.pi_tm, twist)


def tangent_generator_direct(r: Resolved, xs: Sequence) -> Multivector:
    """Complete lift of the base generator; must agree with tangent_generator."""
    return complete_lift_vf(r.tc, generator(r.pg, r.pi, xs))


def tangent_generator_check(r: Resolved, *, plan: SamplePlan | None = None) -> CheckReport:
    return r.require(TANGENT_GENERATOR_AGREEMENT) or make_report(
        *TANGENT_GENERATOR_AGREEMENT,
        {f"generator[{name}]": lifted - direct
         for name, (lifted, direct) in zip(r.pg.bialgebra.basis, r.generators)},
        plan=plan,
    )


# -- the ideal-coefficient identity ----------------------------------------------------


def characteristic_identity_residuals(r: Resolved) -> dict[str, DifferentialForm]:
    """i_T(d phi_i) - sum_(j<k) gamma^(jk)_i (c_j tau*phi_k - c_k tau*phi_j).

    A formal consequence of the cobracket axiom; exhibits the lifted
    generator minus the Hamiltonian field of c_i with coefficients in the
    ideal generated by the c_j."""
    pg, tc = r.pg, r.tc
    b = pg.bialgebra
    c = comomentum_components(pg, tc)
    residuals: dict[str, DifferentialForm] = {}
    for i in range(b.dim):
        lhs = i_T(tc, exterior_derivative(pg.images[i]))
        rhs = DifferentialForm.zero(tc.total, 1)
        for (j, k), gamma in b.cobracket_row(i).items():
            pulled_k = base_pullback(tc, pg.images[k])
            pulled_j = base_pullback(tc, pg.images[j])
            rhs = rhs + (pulled_k * c[j] - pulled_j * c[k]) * gamma
        residuals[f"characteristic[{b.basis[i]}]"] = lhs - rhs
    return residuals


def characteristic_identity_check(r: Resolved, *, plan: SamplePlan | None = None) -> CheckReport:
    return (r.require(CHARACTERISTIC_IDENTITY)
            or make_report(*CHARACTERISTIC_IDENTITY, characteristic_identity_residuals(r), plan=plan))


# -- Hamiltonian special case -----------------------------------------------------------


def hamiltonian_comomentum(momentum: MomentumMapData) -> list[FiberLinearFunction]:
    """c_i = d_T(J_i), packaged via the exact 1-forms dJ_i."""
    chart = momentum.chart
    return [FiberLinearFunction(differential(chart, j)) for j in momentum.components]


def hamiltonian_pgmap(momentum: MomentumMapData, bialgebra: LieBialgebra) -> PGMap:
    """The family with images dJ_i."""
    chart = momentum.chart
    return PGMap(bialgebra, chart, tuple(differential(chart, j) for j in momentum.components))


def require_zero_level(momentum: MomentumMapData, parametrization: CoordinateMap) -> CoordinateMap:
    """The parametrization, once every component of J is shown to vanish
    identically on it; LevelSetError otherwise."""
    chart = momentum.chart
    if parametrization.target != chart:
        raise ChartMismatchError("parametrization must land in the momentum chart")
    for j_comp in momentum.components:
        pulled = j_comp.compose(dict(zip(chart.coords, parametrization.components)))
        if not pulled.is_zero():
            raise LevelSetError(
                f"J does not vanish on the parametrized set: residual {pulled}"
            )
    return parametrization


def level_set_tangency_check(momentum: MomentumMapData, parametrization: CoordinateMap,
                             points: Sequence[Sequence[int]], denominator: int) -> CheckReport:
    """At sampled points of a zero-level parametrization, the kernel of dJ
    at the image is the parametrization's tangent span (exact rank test).

    At a sample, G is dJ at its image (k x n) and C the parametrization's
    Jacobian (n x m).  ``require_zero_level`` shows J o phi = 0, so the chain
    rule gives G.C = d(J o phi) = 0: span C lies in ker G, and the two are
    equal exactly when rank C = n - rank G.  Each sample is an integer tuple
    ``p`` of ``points``, one entry per parameter, standing for the point
    ``p / denominator``, as ``SamplePlan.stream`` draws them.  Every entry is
    evaluated once over all samples; scaling a row of G or a column of C to
    integers keeps the ranks.

    Samples where the differential of J drops rank are reported as
    RankDeficient and make the verdict informative rather than pass/fail.
    """
    chart = momentum.chart
    require_zero_level(momentum, parametrization)
    params = parametrization.source.coords
    m, n, k = len(params), chart.dim, len(momentum.components)
    for s_index, s in enumerate(points):
        if len(s) != m:
            raise DimensionMismatchError(f"sample {s_index} has {len(s)} coordinates, need {m}")
    (image,), (image_den,) = _scaled_entries([parametrization.components], params, points, denominator)
    # rows of G and columns of C, each scaled to integers by one factor
    g_values, _ = _scaled_entries(
        [[j_comp.derivative(c) for c in chart.coords] for j_comp in momentum.components],
        chart.coords, list(zip(*image)), image_den)
    c_values, _ = _scaled_entries(list(zip(*parametrization.jacobian())), params, points, denominator)
    entries: list[tuple[str, str]] = []
    informative_entries: list[tuple[str, str]] = []
    for s_index in range(len(points)):
        g_rank = _linalg.rank([[entry[s_index] for entry in row] for row in g_values])
        if g_rank < k:
            informative_entries.append(
                (f"RankDeficient[sample {s_index}]",
                 "differential of J drops rank at this level-set point")
            )
        elif _linalg.rank([[entry[s_index] for entry in col] for col in c_values]) != n - g_rank:
            entries.append((f"kernel-not-spanned[sample {s_index}]", "1"))
    if entries:
        verdict = "fail"
    elif informative_entries:
        verdict = "informative"
    else:
        verdict = "pass"
    return CheckReport(
        check_id="level-set-tangency",
        identity="(d_T J)^-1(0) restricted over J^-1(0) equals the tangent of J^-1(0)",
        verdict=verdict,
        residuals=tuple(entries + informative_entries),
        samples=(),
    )


def _scaled_entries(rows: Sequence[Sequence[Polynomial]], variables: Sequence[str],
                    points: list[Sequence[int]], den: int) -> tuple[list[list[list[int]]], list[int]]:
    """A matrix of polynomials at the points ``n / den`` of ``points``:
    ``values[r][j][s]`` is entry (r, j) at point s times ``scales[r]``, the
    lcm of row r's denominators, so each value is an integer."""
    values, scales = [], []
    for row in rows:
        evaluated = [p.scaled_values(variables, points, den) for p in row]
        scale = math.lcm(*(m for _, m in evaluated))
        values.append([[v * (scale // m) for v in entry] for entry, m in evaluated])
        scales.append(scale)
    return values, scales


# -- symplectic actions --------------------------------------------------------------------


def symplectic_pgmap(omega: SymplecticForm, generators: Sequence[Multivector],
                     bialgebra: LieBialgebra | None = None) -> tuple[PGMap | None, CheckReport]:
    """Images i_X(omega) for a family of symplectic generators.

    The report certifies that each image is closed.  A generator that does
    not preserve the form exactly gives no map and a failing report with the
    first such generator's L_X(omega).  Without an explicit bialgebra the
    family is attached to the abelian one with zero cobracket.
    """
    chart = omega.chart
    for index, field in enumerate(generators):
        if field.chart != chart or field.degree != 1:
            raise ChartMismatchError(f"generator #{index} is not a vector field on {chart.name}")
        lie = omega.is_invariant_under(field)
        if not lie.is_zero():
            return None, make_report(*SYMPLECTIC_IMAGES_CLOSED, {f"L_X(omega)[{index}]": lie})
    if bialgebra is None:
        bialgebra = abelian_bialgebra(tuple(f"e{i + 1}" for i in range(len(generators))))
    images = tuple(omega.flat(field) for field in generators)
    pg = PGMap(bialgebra, chart, images)
    residuals = {
        f"closed[{bialgebra.basis[i]}]": exterior_derivative(images[i])
        for i in range(len(images))
    }
    return pg, make_report(*SYMPLECTIC_IMAGES_CLOSED, residuals)


def cotangent_momentum_relation(omega: SymplecticForm, generators: Sequence[Multivector],
                                pg: PGMap, plan: SamplePlan | None = None) -> CheckReport:
    """Compare the tangent-side momentum c_x = i_T(i_X omega) with the
    cotangent-lift momentum j_x(alpha) = <alpha, X> through the bundle map
    omega_flat: c + j . omega_flat = sum X^i v_k (omega_ik + omega_ki), which
    vanishes for every antisymmetric omega; a nonzero residual exposes a sign
    or convention error in one of the two routes.

    ``pg`` is the map :func:`symplectic_pgmap` built from ``omega`` and
    these generators."""
    chart = omega.chart
    if pg.chart != chart or len(pg.images) != len(generators):
        raise DimensionMismatchError(
            f"PG map has {len(pg.images)} images on {pg.chart.name}, "
            f"expected {len(generators)} on {chart.name}"
        )
    tc = tangent_chart(chart)
    tstar = bundle_chart(chart, "T*")
    # p_k = sum_i v_i omega_ik, from both orientations of each stored omega_ab
    v = tc.coord_polys[chart.dim:]
    flat = [tc.total.zero_poly() for _ in chart.coords]
    for (a, b), w in omega.two_form._components.items():
        flat[b] = flat[b] + v[a] * w
        flat[a] = flat[a] - v[b] * w
    flat_images: dict[str, Polynomial] = {c: tc.total.coord_poly(c) for c in chart.coords}
    flat_images.update({f"p_{ck}": p_k for ck, p_k in zip(chart.coords, flat)})
    c_polys = comomentum_components(pg, tc)
    residuals: dict[str, Polynomial] = {}
    for index, field in enumerate(generators):
        j_fun = tstar.zero_poly()
        for (k,), comp in field._components.items():
            j_fun = j_fun + tstar.coord_poly(f"p_{chart.coords[k]}") * comp
        j_through_flat = j_fun.compose(flat_images)
        residuals[f"relation[{pg.bialgebra.basis[index]}]"] = c_polys[index] + j_through_flat
    return make_report(
        "cotangent-momentum-relation",
        "tangent and cotangent momenta agree through omega_flat: c = -(j . omega_flat)",
        residuals,
        plan=plan,
    )
