"""Momentum-map machinery: bracket/cobracket-compatible families of 1-forms,
their fiber-linear counterparts on the tangent bundle, and the exact
identities that make the zero level set coisotropic and tie the lifted
generators to Hamiltonian fields.

A certified family phi: g -> 1-forms satisfies, for the attached bialgebra,

    (i)  phi_[x, y] = [phi_x, phi_y]_pi            (Koszul bracket)
    (ii) d(phi_i)   = sum_(j<k) gamma^(jk)_i phi_j ^ phi_k

and the induced fiber-linear functions c_i = i_T(phi_i) then close under the
lifted Poisson bracket: {c_i, c_j}_TM = c_[e_i, e_j].  A family is kept as
its basis images phi_i, and every function here takes a basis index, not a
coefficient vector.  Each object derived per basis element has one owner
that computes it once and passes it on.  ``PGMap.differentials`` holds the
d(phi_i), which both axioms read: (i) through the Koszul bracket in Cartan
form, (ii) as its left side.  The ``Resolved`` value that the lifted checks
take holds the base generators pi#(phi_i), the axiom residuals, the c_i,
their Hamiltonian fields X_(c_i) on TM, the twists i_T(d phi_i) and the
lifted generators, and lifts pi.  A lifted check whose prerequisites fail
(pi not Poisson, the bialgebra not verified or, past ``certify_pgmap``, a
map with a nonzero axiom residual) returns its ``fail`` report with one
``unverified-input`` residual naming the first that fails.  Negative
controls observe the nonzero residuals of such a map through the
``*_residuals`` functions, which take no certification step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import _linalg
from .bialgebra import LieBialgebra
from .chart import (
    Chart,
    DifferentialForm,
    Multivector,
    exterior_derivative,
    lie_derivative,
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
    pairing,
    sharp,
)
from .poly import Polynomial
from .report import CheckReport, Statement, make_report
from .tangent import (
    CoordinateMap,
    TangentChart,
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

    @cached_property
    def differentials(self) -> tuple[DifferentialForm, ...]:
        """d(phi_i), one 2-form per basis element."""
        return tuple(exterior_derivative(form) for form in self.images)


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


def pgmap_residuals(pg: PGMap, sharps: Sequence[Multivector]) -> dict[str, DifferentialForm]:
    """Residual forms of the two compatibility axioms, named per basis datum;
    ``sharps`` holds pi#(phi_i) for the Poisson structure pi."""
    b = pg.bialgebra
    one = pg.chart.constant_poly(1)
    residuals: dict[str, DifferentialForm] = {}
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            expected = DifferentialForm._from_products(pg.chart, 1, [
                (idx, coeff, phi, one) for m, coeff in b.bracket(i, j).items()
                for idx, phi in pg.images[m]._components.items()])
            actual = _koszul(pg.images[j], sharps[i], sharps[j],
                             pg.differentials[i], pg.differentials[j])
            residuals[f"bracket-axiom[{b.basis[i]},{b.basis[j]}]"] = expected - actual
    for i in range(b.dim):
        rhs = DifferentialForm.zero(pg.chart, 2)
        for (j, k), gamma in b.cobracket_row(i).items():
            rhs = rhs + wedge(pg.images[j], pg.images[k]) * gamma
        residuals[f"cocycle-axiom[{b.basis[i]}]"] = pg.differentials[i] - rhs
    return residuals


class Resolved:
    """A Poisson structure ``pi``, optionally a map ``pg``, and what the lifted
    checks derive from them, each member computed on first use and then kept:
    the tangent chart ``tc``, the complete lift ``pi_tm``, the base generators
    ``sharps``, the axiom residuals ``certification``, the comomenta
    ``comomenta``, their Hamiltonian fields ``hamiltonians``, the twists
    ``twists`` and the lifted ``generators``.
    ``pi_tm`` is built only from a ``pi`` whose Jacobi verdict is true, and
    the complete lift preserves the Schouten bracket, so no check computes
    [pi_TM, pi_TM].

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
    def sharps(self) -> tuple[Multivector, ...]:
        """The base generators pi#(phi_i), one per basis element."""
        return tuple(sharp(self.pi, image) for image in self.pg.images)

    @cached_property
    def certification(self) -> dict[str, DifferentialForm]:
        """Residuals of both axioms of ``pg`` against ``pi``."""
        return pgmap_residuals(self.pg, self.sharps)

    @cached_property
    def comomenta(self) -> tuple[Polynomial, ...]:
        """The fiber-linear functions c_i = i_T(phi_i), one per basis element."""
        return tuple(comomentum_components(self.pg, self.tc))

    @cached_property
    def hamiltonians(self) -> tuple[Multivector, ...]:
        """The Hamiltonian fields X_(c_i) = pi_TM#(dc_i), one per basis element."""
        return tuple(hamiltonian_vf(self.pi_tm, c) for c in self.comomenta)

    @cached_property
    def twists(self) -> tuple[DifferentialForm, ...]:
        """The tangent twists i_T(d phi_i), one per basis element."""
        return tuple(i_T(self.tc, d) for d in self.pg.differentials)

    @cached_property
    def generators(self) -> tuple[tuple[Multivector, Multivector], ...]:
        """Per basis element: its lifted generator by the lift formula and
        the complete lift of its base generator."""
        return tuple((tangent_generator(self, i), tangent_generator_direct(self, i))
                     for i in range(len(self.pg.images)))

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


# -- fiber-linear functions --------------------------------------------------------


def comomentum_components(pg: PGMap, tc: TangentChart) -> list[Polynomial]:
    return [i_T(tc, form).as_poly() for form in pg.images]


# -- bracket closure of the zero level set ----------------------------------------


def bracket_closure_residuals(r: Resolved) -> dict[str, Polynomial]:
    """{c_i, c_j}_TM - c_[e_i, e_j] for every ordered basis pair, with
    {c_i, c_j}_TM = <dc_j, X_(c_i)> read from ``Resolved.hamiltonians``."""
    b = r.pg.bialgebra
    tc, c = r.tc, r.comomenta
    dc = [differential(tc.total, c_j) for c_j in c]
    one = tc.total.constant_poly(1)
    residuals: dict[str, Polynomial] = {}
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            lifted = pairing(dc[j], r.hamiltonians[i])
            expected = Polynomial._sum_of_products(
                tc.total.coords, [(coeff, c[k], one) for k, coeff in b.bracket(i, j).items()])
            residuals[f"closure[{b.basis[i]},{b.basis[j]}]"] = lifted - expected
    return residuals


def bracket_closure_check(r: Resolved, *, plan: SamplePlan | None = None) -> CheckReport:
    """Certifies that the zero level set of c is coisotropic: the lifted
    bracket of generators lands back in the generated ideal."""
    return (r.require(BRACKET_CLOSURE)
            or make_report(*BRACKET_CLOSURE, bracket_closure_residuals(r), plan=plan))


# -- lifted generators --------------------------------------------------------------


def tangent_generator(r: Resolved, i: int) -> Multivector:
    """Lifted generator X_(c_i) + pi_TM#(i_T d phi_i) of basis element i on
    the tangent chart."""
    hamiltonian_part = r.hamiltonians[i]
    twist = r.twists[i]
    if twist.is_zero():
        return hamiltonian_part
    return hamiltonian_part + sharp(r.pi_tm, twist)


def tangent_generator_direct(r: Resolved, i: int) -> Multivector:
    """Complete lift of the base generator pi#(phi_i); must agree with
    tangent_generator."""
    return complete_lift_vf(r.tc, r.sharps[i])


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
    pg, tc, c = r.pg, r.tc, r.comomenta
    b = pg.bialgebra
    one = tc.total.constant_poly(1)
    residuals: dict[str, DifferentialForm] = {}
    for i in range(b.dim):
        # a base component already is a polynomial on TM (see poly)
        products = [(idx, 1, twist, one) for idx, twist in r.twists[i]._components.items()]
        for (j, k), gamma in b.cobracket_row(i).items():
            products.extend((idx, -gamma, c[j], phi) for idx, phi in pg.images[k]._components.items())
            products.extend((idx, gamma, c[k], phi) for idx, phi in pg.images[j]._components.items())
        residuals[f"characteristic[{b.basis[i]}]"] = DifferentialForm._from_products(tc.total, 1, products)
    return residuals


def characteristic_identity_check(r: Resolved, *, plan: SamplePlan | None = None) -> CheckReport:
    return (r.require(CHARACTERISTIC_IDENTITY)
            or make_report(*CHARACTERISTIC_IDENTITY, characteristic_identity_residuals(r), plan=plan))


# -- Hamiltonian special case -----------------------------------------------------------


def hamiltonian_pgmap(momentum: CoordinateMap, bialgebra: LieBialgebra) -> PGMap:
    """The family with images dJ_i of the momentum map J: M -> g*."""
    chart = momentum.source
    return PGMap(bialgebra, chart, tuple(differential(chart, j) for j in momentum.components))


def require_zero_level(momentum: CoordinateMap, parametrization: CoordinateMap) -> CoordinateMap:
    """The parametrization, once every component of J is shown to vanish
    identically on it; LevelSetError otherwise.  The parser proves a
    ``levelset`` block here, once, and ``ProblemFile.levelset`` holds the
    value returned."""
    chart = momentum.source
    if parametrization.target != chart:
        raise ChartMismatchError("parametrization must land in the momentum chart")
    for j_comp in momentum.components:
        pulled = j_comp.compose(dict(zip(chart.coords, parametrization.components)))
        if not pulled.is_zero():
            raise LevelSetError(
                f"J does not vanish on the parametrized set: residual {pulled}"
            )
    return parametrization


def level_set_tangency_check(momentum: CoordinateMap, parametrization: CoordinateMap,
                             points: Sequence[Sequence[int]], denominator: int) -> CheckReport:
    """At sampled points of a zero-level parametrization, the kernel of dJ
    at the image is the parametrization's tangent span (exact rank test).

    ``parametrization`` is the value ``require_zero_level`` returned for
    ``momentum``, which proved J o phi = 0; this check does not prove it
    again.  At a sample, G is dJ at its image (k x n) and C the
    parametrization's Jacobian (n x m), so the chain rule gives
    G.C = d(J o phi) = 0: span C lies in ker G, and the two are equal
    exactly when rank C = n - rank G.  Each sample is an integer tuple
    ``p`` of ``points``, one entry per parameter, standing for the point
    ``p / denominator``, as ``SamplePlan.stream`` draws them.  Every entry is
    evaluated once over all samples; scaling a row of G or a column of C to
    integers keeps the ranks.

    Samples where the differential of J drops rank are reported as
    RankDeficient and make the verdict informative rather than pass/fail.
    """
    chart = momentum.source
    params = parametrization.source.coords
    m, n, k = len(params), chart.dim, len(momentum.components)
    for s_index, s in enumerate(points):
        if len(s) != m:
            raise DimensionMismatchError(f"sample {s_index} has {len(s)} coordinates, need {m}")
    (image,), (image_den,) = _scaled_entries([parametrization.components], params, points, denominator)
    # rows of G and columns of C, each scaled to integers by one factor
    g_values, _ = _scaled_entries(momentum.jacobian(), chart.coords, list(zip(*image)), image_den)
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
                     bialgebra: LieBialgebra) -> tuple[PGMap | None, CheckReport]:
    """Images i_X(omega) for a family of symplectic generators, one per
    basis element of ``bialgebra``.

    The report certifies that each image is closed.  A generator that does
    not preserve the form exactly gives no map and a failing report with the
    first such generator's L_X(omega).
    """
    chart = omega.chart
    for index, field in enumerate(generators):
        if field.chart != chart or field.degree != 1:
            raise ChartMismatchError(f"generator #{index} is not a vector field on {chart.name}")
        lie = lie_derivative(field, omega.two_form)
        if not lie.is_zero():
            return None, make_report(*SYMPLECTIC_IMAGES_CLOSED, {f"L_X(omega)[{index}]": lie})
    images = tuple(omega.flat(field) for field in generators)
    pg = PGMap(bialgebra, chart, images)
    residuals = {f"closed[{name}]": d for name, d in zip(bialgebra.basis, pg.differentials)}
    return pg, make_report(*SYMPLECTIC_IMAGES_CLOSED, residuals)


def cotangent_momentum_relation(tc: TangentChart, omega: SymplecticForm,
                                generators: Sequence[Multivector], pg: PGMap,
                                plan: SamplePlan | None = None) -> CheckReport:
    """Compare the tangent-side momentum c_x = i_T(i_X omega) with the
    cotangent-lift momentum j_x(alpha) = <alpha, X> through the bundle map
    omega_flat: c + j . omega_flat = sum X^i v_k (omega_ik + omega_ki), which
    vanishes for every antisymmetric omega; a nonzero residual exposes a sign
    or convention error in one of the two routes.  j . omega_flat is summed
    as p_k X^k by hand, not through ``i_T`` or ``pairing``: a second route.

    ``pg`` is the map :func:`symplectic_pgmap` built from ``omega`` and
    these generators, and ``tc`` the tangent chart of omega's chart."""
    chart = omega.chart
    if pg.chart != chart or len(pg.images) != len(generators):
        raise DimensionMismatchError(
            f"PG map has {len(pg.images)} images on {pg.chart.name}, "
            f"expected {len(generators)} on {chart.name}"
        )
    if tc.base != chart:
        raise ChartMismatchError("tangent chart does not extend the form's chart")
    # p_k = sum_i v_i omega_ik, from both orientations of each stored omega_ab
    coords, v = tc.total.coords, tc.coord_blocks[1]
    slots: list[list] = [[] for _ in chart.coords]
    for (a, b), w in omega.two_form._components.items():
        slots[b].append((1, v[a], w))
        slots[a].append((-1, v[b], w))
    flat = [Polynomial._sum_of_products(coords, products) for products in slots]
    c_polys = comomentum_components(pg, tc)
    residuals: dict[str, Polynomial] = {}
    for index, field in enumerate(generators):
        j_through_flat = Polynomial._sum_of_products(
            coords, [(1, flat[k], comp) for (k,), comp in field._components.items()])
        residuals[f"relation[{pg.bialgebra.basis[index]}]"] = c_polys[index] + j_through_flat
    return make_report(
        "cotangent-momentum-relation",
        "tangent and cotangent momenta agree through omega_flat: c = -(j . omega_flat)",
        residuals,
        plan=plan,
    )
