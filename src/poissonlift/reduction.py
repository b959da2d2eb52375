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
form, which contracts the sharps into them and takes d(pi(phi_i, phi_j)) by
the product rule over the partials of phi_j and pi#(phi_i), each residual
one sum of these products and phi_[i,j]'s; (ii) as its left side.  The
``Resolved`` value that the lifted checks read holds the base generators
pi#(phi_i), the axiom residuals, the c_i, their differentials dc_i and
Hamiltonian fields X_(c_i) on TM, the twists i_T(d phi_i) and the lifted
generators, and lifts pi.

Each function here computes residuals, or the values a check lists; the
check registry (:mod:`poissonlift.checks`) names each check, states its
identity and builds its report.  ``Resolved.require`` says which of a
check's prerequisites (pi Poisson, the bialgebra verified, the map
certified) fails first, and the registry refuses the check with that
reason.  Negative controls observe the nonzero residuals of an uncertified
map through the ``*_residuals`` functions, which take no certification
step.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from . import _linalg
from ._value import _Value
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
from .poisson import (
    PoissonStructure,
    SymplecticForm,
    _koszul,
    differential,
    pairing,
    sharp,
)
from .poly import Polynomial, scaled_values
from .tangent import (
    CoordinateMap,
    TangentChart,
    complete_lift_bivector,
    complete_lift_vf,
    i_T,
    tangent_chart,
)


class PGMap(_Value):
    """Linear map from a bialgebra into 1-forms, stored as basis images."""

    _fields = ("bialgebra", "chart", "images")

    def __init__(self, bialgebra: LieBialgebra, chart: Chart, images: tuple[DifferentialForm, ...]):
        if len(images) != bialgebra.dim:
            raise DimensionMismatchError(
                f"{len(images)} images for bialgebra of dim {bialgebra.dim}"
            )
        for form in images:
            if form.chart != chart:
                raise ChartMismatchError("image form lives on the wrong chart")
            if form.degree != 1:
                raise DegreeError("images must be 1-forms")
        self.bialgebra = bialgebra
        self.chart = chart
        self.images = images

    @cached_property
    def differentials(self) -> tuple[DifferentialForm, ...]:
        """d(phi_i), one 2-form per basis element."""
        return tuple(exterior_derivative(form) for form in self.images)


# -- certification --------------------------------------------------------------


def pgmap_residuals(pg: PGMap, sharps: Sequence[Multivector]) -> dict[str, DifferentialForm]:
    """Residual forms of the two compatibility axioms, named per basis datum;
    ``sharps`` holds pi#(phi_i) for the Poisson structure pi."""
    b = pg.bialgebra
    one = pg.chart.constant_poly(1)
    residuals: dict[str, DifferentialForm] = {}
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            products = [(idx, coeff, phi, one) for m, coeff in b.bracket(i, j).items()
                        for idx, phi in pg.images[m]._components.items()]
            products += _koszul(pg.images[j], sharps[i], sharps[j],
                                pg.differentials[i], pg.differentials[j], -1)
            residuals[f"bracket-axiom[{b.basis[i]},{b.basis[j]}]"] = DifferentialForm._from_products(
                pg.chart, 1, products)
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
    ``comomenta``, their differentials ``dc`` and Hamiltonian fields
    ``hamiltonians``, the twists
    ``twists`` and the lifted ``generators``.
    ``pi_tm`` is built only from a ``pi`` whose Jacobi verdict is true, and
    the complete lift preserves the Schouten bracket, so no check computes
    [pi_TM, pi_TM].

    Computing a member twice gives the same value, so an instance can be
    shared without locks.  A check reads the members that presuppose a
    certified map only after ``require`` has found nothing missing."""

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
    def dc(self) -> tuple[DifferentialForm, ...]:
        """The differentials dc_i on TM, one per basis element."""
        return tuple(differential(self.tc.total, c) for c in self.comomenta)

    @cached_property
    def hamiltonians(self) -> tuple[Multivector, ...]:
        """The Hamiltonian fields X_(c_i) = pi_TM#(dc_i), one per basis element."""
        return tuple(sharp(self.pi_tm, d) for d in self.dc)

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

    def require(self, needs: str) -> str | None:
        """None when the inputs ``needs`` names hold, else the first that
        does not, as a reason: ``"pi"`` a Jacobi-verified pi, ``"bialgebra"``
        that and a verified bialgebra, ``"map"`` both and zero axiom
        residuals.  Images on another chart than pi are an error."""
        if needs != "pi" and self.pg.chart != self.pi.chart:
            raise ChartMismatchError("map images and Poisson structure on different charts")
        if not self.pi.jacobi_verified:
            return "Poisson structure is not Jacobi-verified"
        if needs != "pi" and not self.pg.bialgebra.verified:
            return "bialgebra failed (or skipped) its structure checks"
        if needs == "map" and (bad := [name for name, res in self.certification.items()
                                       if not res.is_zero()]):
            return f"map is not certified; failing residuals: {', '.join(bad)}"
        return None


# -- fiber-linear functions --------------------------------------------------------


def comomentum_components(pg: PGMap, tc: TangentChart) -> list[Polynomial]:
    return [i_T(tc, form).as_poly() for form in pg.images]


# -- bracket closure of the zero level set ----------------------------------------


def bracket_closure_residuals(r: Resolved) -> dict[str, Polynomial]:
    """{c_i, c_j}_TM - c_[e_i, e_j] for every ordered basis pair, with
    {c_i, c_j}_TM = <dc_j, X_(c_i)> read from ``Resolved.dc`` and
    ``Resolved.hamiltonians``."""
    b = r.pg.bialgebra
    tc, c, dc = r.tc, r.comomenta, r.dc
    one = tc.total.constant_poly(1)
    residuals: dict[str, Polynomial] = {}
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            lifted = pairing(dc[j], r.hamiltonians[i])
            expected = Polynomial._sum_of_products(
                tc.total.coords, [(coeff, c[k], one) for k, coeff in b.bracket(i, j).items()])
            residuals[f"closure[{b.basis[i]},{b.basis[j]}]"] = lifted - expected
    return residuals


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


def tangent_generator_residuals(r: Resolved) -> dict[str, Multivector]:
    """The lifted generator minus the complete lift of the base generator,
    per basis element."""
    return {f"generator[{name}]": lifted - direct
            for name, (lifted, direct) in zip(r.pg.bialgebra.basis, r.generators)}


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


def level_set_tangency_residuals(momentum: CoordinateMap, parametrization: CoordinateMap,
                                 points: Sequence[Sequence[int]], denominator: int) -> dict:
    """At sampled points of a zero-level parametrization, the kernel of dJ
    at the image is the parametrization's tangent span (exact rank test).

    ``parametrization`` is the value ``require_zero_level`` returned for
    ``momentum``, which proved J o phi = 0; this check does not prove it
    again.  At a sample, G is dJ at its image (k x n) and C the
    parametrization's Jacobian (n x m), so the chain rule gives
    G.C = d(J o phi) = 0: span C lies in ker G, and the two are equal
    exactly when rank C = n - rank G.  Each sample is an integer tuple
    ``p`` of ``points``, one entry per parameter, standing for the point
    ``p / denominator``, as ``SamplePlan.stream`` draws them.  The image is
    one :func:`~poissonlift.poly.scaled_values` call over all samples, and
    each row of G and each column of C one more: a row or column over one
    common denominator keeps the ranks.

    A sample where the span is smaller gives the residual 1 under
    ``kernel-not-spanned[sample s]``.  A sample where the differential of J
    drops rank gives a ``RankDeficient[sample s]`` note, text that makes a
    report with no failing residual informative rather than pass/fail.
    """
    chart = momentum.source
    params = parametrization.source.coords
    m, n, k = len(params), chart.dim, len(momentum.components)
    for s_index, s in enumerate(points):
        if len(s) != m:
            raise DimensionMismatchError(f"sample {s_index} has {len(s)} coordinates, need {m}")
    image, image_den = scaled_values(parametrization.components, params, points, denominator)
    # rows of G and columns of C, each over one common denominator
    image_points = list(zip(*image))
    g_values = [scaled_values(row, chart.coords, image_points, image_den)[0]
                for row in momentum.jacobian()]
    c_values = [scaled_values(col, params, points, denominator)[0]
                for col in zip(*parametrization.jacobian())]
    residuals: dict = {}
    for s_index in range(len(points)):
        g_rank = _linalg.rank([[entry[s_index] for entry in row] for row in g_values])
        if g_rank < k:
            residuals[f"RankDeficient[sample {s_index}]"] = (
                "differential of J drops rank at this level-set point")
        elif _linalg.rank([[entry[s_index] for entry in col] for col in c_values]) != n - g_rank:
            residuals[f"kernel-not-spanned[sample {s_index}]"] = 1
    return residuals


# -- symplectic actions --------------------------------------------------------------------


def symplectic_pgmap(omega: SymplecticForm, generators: Sequence[Multivector],
                     bialgebra: LieBialgebra) -> tuple[PGMap | None, dict[str, DifferentialForm]]:
    """Images i_X(omega) for a family of symplectic generators, one per
    basis element of ``bialgebra``, and the residuals that show each image
    closed: the d(i_X omega).  A generator that does not preserve the form
    exactly gives no map, and the residual is the first such generator's
    L_X(omega).
    """
    chart = omega.chart
    for index, field in enumerate(generators):
        if field.chart != chart or field.degree != 1:
            raise ChartMismatchError(f"generator #{index} is not a vector field on {chart.name}")
        lie = lie_derivative(field, omega.two_form)
        if not lie.is_zero():
            return None, {f"L_X(omega)[{index}]": lie}
    images = tuple(omega.flat(field) for field in generators)
    pg = PGMap(bialgebra, chart, images)
    return pg, {f"closed[{name}]": d for name, d in zip(bialgebra.basis, pg.differentials)}


def cotangent_momentum_residuals(tc: TangentChart, omega: SymplecticForm,
                                 generators: Sequence[Multivector], pg: PGMap) -> dict[str, Polynomial]:
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
    return residuals
