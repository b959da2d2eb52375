"""The tangent bundle chart, tangent derivations, complete lifts, and the
two lift identities that tie them together.

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
are chart kernels: ``interior_product``, and the form kernel of
``lie_derivative``, which computes d_T by the coordinate formula for L_T in
one pass, reading the partials of the v_j that the tangent chart holds; the
tests keep i_T d + d i_T as its reference.  The complete lift of a verified
Poisson bivector is

    pi_TM = pi^(ij) e_q_i ^ e_v_j  +  (1/2) v_k d_k pi^(ij) e_v_i ^ e_v_j,

certified against the defining identity pi_TM# . alpha = kappa . T(pi#),
where alpha is the exchange map TT*M -> T*TM, (q, p, qdot, pdot) |->
(q, qdot, pdot, p), and kappa the involution flipping the middle blocks of
TTM.  Both only permute coordinate blocks, so ``tangent_lift_residuals`` and
``one_form_lift_residuals`` apply them block by block and build no
coordinate map; the tests keep the composed maps as the reference.
``CoordinateMap`` is a polynomial map between charts, such as the
parametrization of a level set.

The lift of pi, the lift of a vector field and the prolongation T(theta) of
a 1-form all take the complete lift f^c = v_k d_k f of base polynomials,
which is computed as a key shift, not by differentiating and multiplying:
each variable k of a term c q^e gives the term c e_k q^(e - 1_k) v_k, whose
monomial key moves one unit from field k to field n + k, and no two such
terms meet.  So the prolongation shares no differentiation code with d_T,
which takes its partials from the chart's one-walk gradient.
"""

from __future__ import annotations

from functools import cached_property

from .chart import (
    Chart,
    DifferentialForm,
    Multivector,
    _gradient,
    _lie_derivative_form,
    interior_product,
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
from .poly import W, Polynomial, Rational, _fields
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


def check_names(base: Chart) -> None:
    """The naming rule of the bundle charts: no base coordinate carries the
    fiber prefix ``v_``, and no bundle chart over ``base`` repeats a name."""
    for c in base.coords:
        if c.startswith("v_"):
            raise NameCollisionError(f"base coordinate {c!r} already carries the fiber prefix 'v_'")
    for kind, prefixes in _BLOCKS.items():
        names = tuple(pre + c for pre in prefixes for c in base.coords)
        if len(set(names)) != len(names):
            raise ValueError(f"coordinate names must be distinct in {kind}{base.name}: {names}")


def bundle_chart(base: Chart, kind: str) -> Chart:
    """The chart of the bundle ``kind`` ("T", "T*", "TT*", "T*T" or "TT")
    over ``base``: one block of base coordinates per prefix of the kind."""
    if kind not in _BLOCKS:
        raise ValueError(f"unknown bundle {kind!r}; choose from {', '.join(_BLOCKS)}")
    return Chart(f"{kind}{base.name}", tuple(pre + c for pre in _BLOCKS[kind] for c in base.coords))


class TangentChart:
    """Base chart together with its tangent-bundle chart (q, v)."""

    def __init__(self, base: Chart, total: Chart):
        self.base = base
        self.total = total

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.total) == (other.base, other.total)

    def __hash__(self):
        return hash((self.base, self.total))

    def __repr__(self):
        return f"TangentChart(base={self.base!r}, total={self.total!r})"

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

    @cached_property
    def tautological(self) -> Multivector:
        """The field T = sum_j v_j d/dq_j on the total chart."""
        n = self.dim
        return Multivector._make(self.total, 1, {(j,): self.coord_polys[n + j] for j in range(n)})

    @cached_property
    def tautological_partials(self) -> dict[int, dict[int, Polynomial]]:
        """The gradient of each component v_j of ``tautological``, keyed by
        j, taken on first use and then kept for every ``d_T``."""
        return {j: _gradient(self.total, v) for j, v in self.coord_blocks[1].items()}


def tangent_chart(base: Chart) -> TangentChart:
    """Attach fiber coordinates v_<c>; rejects bases that break :func:`check_names`."""
    check_names(base)
    return TangentChart(base, bundle_chart(base, "T"))


class CoordinateMap:
    """Polynomial map between charts: one component per target coordinate,
    written in source coordinates."""

    def __init__(self, source: Chart, target: Chart, components: tuple[Polynomial, ...]):
        if len(components) != target.dim:
            raise DimensionMismatchError(
                f"{len(components)} components for target of dim {target.dim}"
            )
        self.source = source
        self.target = target
        self.components = tuple(p.with_variables(source.coords) for p in components)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.components)
                == (other.source, other.target, other.components))

    def __repr__(self):
        return (f"CoordinateMap(source={self.source!r}, target={self.target!r}, "
                f"components={self.components!r})")

    def jacobian(self) -> list[list[Polynomial]]:
        """Entry [a][k] = d(component_a)/d(source_k)."""
        return [
            [p.derivative(c) for c in self.source.coords]
            for p in self.components
        ]


# -- pullback along the bundle projection ----------------------------------
# A base polynomial already is one on every bundle chart over it (see poly).


def _require_base(tc: TangentChart, omega: DifferentialForm) -> None:
    if omega.chart != tc.base:
        raise ChartMismatchError(
            f"form lives on {omega.chart.name}, expected base chart {tc.base.name}"
        )


def _complete_lift_poly(tc: TangentChart, poly: Polynomial) -> Polynomial:
    """f^c = v_k d_k f on the tangent chart, for f on the base chart, as key
    arithmetic: a term c q^e with e_k > 0 gives the term c e_k q^(e - 1_k) v_k,
    whose key moves one unit from field k to field n + k.  The v field of
    the new key names k and its q fields then name e, so no two terms meet."""
    shift = tc.dim * W
    terms: dict[int, Rational] = {}
    for key, coeff in poly.with_variables(tc.base.coords)._terms.items():
        for k, e in _fields(key):
            unit = 1 << (k * W)
            c = coeff * e
            terms[key - unit + (unit << shift)] = c if type(c) is int or c.denominator != 1 else c.numerator
    return Polynomial._make(tc.total.coords, terms)


def base_pullback(tc: TangentChart, omega: DifferentialForm) -> DifferentialForm:
    """Pull a form on the base back along TM -> M (components keep their term maps)."""
    _require_base(tc, omega)
    coords = tc.total.coords
    pulled = {k: Polynomial._make(coords, p._terms) for k, p in omega._components.items()}
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
    return _lie_derivative_form(tc.tautological, base_pullback(tc, omega), tc.tautological_partials)


# -- complete lifts -----------------------------------------------------------


def complete_lift_vf(tc: TangentChart, field: Multivector) -> Multivector:
    """X^c = X^i d/dq_i + v_k d_k X^i d/dv_i on the tangent chart."""
    if field.chart != tc.base or field.degree != 1:
        raise ChartMismatchError("complete lift takes a vector field on the base chart")
    n, coords = tc.dim, tc.total.coords
    comps: dict[tuple[int, ...], Polynomial] = {}
    for (i,), poly in field._components.items():
        comps[(i,)] = poly.with_variables(coords)
        lift = _complete_lift_poly(tc, poly)
        if not lift.is_zero():
            comps[(n + i,)] = lift
    return Multivector._make(tc.total, 1, comps)


def complete_lift_bivector(pi: PoissonStructure, tc: TangentChart) -> PoissonStructure:
    """The fiberwise-linear lift of a verified Poisson bivector to TM.

    The lift is Poisson because [P^c, Q^c] = [P, Q]^c, so its own Jacobi
    verdict is computed only if something reads it."""
    if not pi.jacobi_verified:
        raise NotPoissonError("complete lift requires a verified Poisson structure")
    if tc.base != pi.chart:
        raise ChartMismatchError("tangent chart does not extend the structure's chart")
    n, coords = tc.dim, tc.total.coords
    comps = {}
    for (i, j), p in pi.bivector._components.items():
        lift = _complete_lift_poly(tc, p)
        p = p.with_variables(coords)
        comps[(i, n + j)] = p
        comps[(j, n + i)] = -p
        if not lift.is_zero():
            comps[(n + i, n + j)] = lift
    return PoissonStructure(Multivector._make(tc.total, 2, dict(sorted(comps.items()))))


# -- identity checks -----------------------------------------------------------


def tangent_lift_residuals(pi: PoissonStructure, candidate: PoissonStructure) -> dict[str, Polynomial]:
    """Residual of pi_TM# . alpha = kappa . T(pi#), per output coordinate of TTM.

    Both sides are assembled as polynomial maps on the TT*M block coordinates
    (q, p, qdot, pdot) and subtracted.  The candidate for pi_TM is a
    structure on the tangent chart of pi's chart; its Jacobi verdict is not
    read, so an unverified candidate is compared all the same.
    """
    base = pi.chart
    if candidate.chart != bundle_chart(base, "T"):
        raise ChartMismatchError("candidate must be a bivector on the tangent chart")
    n = base.dim
    zchart = bundle_chart(base, "TT*")
    coords = zchart.coords
    z = [zchart.coord_poly(c) for c in coords]
    p, qdot, pdot = z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
    # the residual of each slot, qdot block then vdot block, is one sum of
    # the right-hand side's products minus the left-hand side's
    slots: list[list] = [[] for _ in range(2 * n)]

    # right-hand side: kappa . T(pi#), from both orientations of each stored
    # pi^(ab): slot j gets p_i pi^(ij) and slot n + j gets
    # pdot_i pi^(ij) + p_i qdot_k d_k pi^(ij), with pi^(ba) = -pi^(ab)
    for (a, b), c in pi.bivector._components.items():
        dc = Polynomial._sum_of_products(  # qdot_k d_k pi^(ab)
            coords, [(1, partial, qdot[k]) for k, partial in _gradient(base, c).items()])
        slots[b].append((1, p[a], c))
        slots[a].append((-1, p[b], c))
        slots[n + b] += [(1, pdot[a], c), (1, p[a], dc)]
        slots[n + a] += [(-1, pdot[b], c), (-1, p[b], dc)]

    # left-hand side: pi_TM# . alpha, with alpha(q, p, qdot, pdot) the covector
    # at (q, v=qdot) whose dq-coefficients xi are pdot and dv-coefficients p,
    # built the way sharp is: slot b gets xi_a c and slot a gets -xi_b c.
    # Setting v = qdot moves the v fields of each monomial key of c, over
    # (q, v), up n fields onto the qdot block of (q, p, qdot, pdot); renaming
    # through with_variables would rebuild a universe map per component.
    shift = n * W
    q_mask = (1 << shift) - 1
    xi = pdot + p
    for (a, b), c in candidate.bivector._components.items():
        cz = Polynomial._make(coords, {(key & q_mask) | (key >> shift << 2 * shift): coeff
                                       for key, coeff in c._terms.items()})
        slots[b].append((-1, xi[a], cz))
        slots[a].append((1, xi[b], cz))

    names = bundle_chart(base, "TT").coords[2 * n:]  # the (qdot, vdot) blocks of TTM
    return {name: Polynomial._sum_of_products(coords, products)
            for name, products in zip(names, slots)}


TANGENT_LIFT_IDENTITY = Statement(
    "tangent-lift-identity",
    "pi_TM# . alpha = kappa . T(pi#) on TT*M block coordinates",
)


def verify_tangent_lift_identity(pi: PoissonStructure, candidate: PoissonStructure,
                                 plan: SamplePlan | None = None) -> CheckReport:
    """Exact check of the lift identity; pass iff every residual is zero."""
    return make_report(*TANGENT_LIFT_IDENTITY, tangent_lift_residuals(pi, candidate), plan=plan)


def one_form_lift_residuals(tc: TangentChart, theta: DifferentialForm) -> dict[str, Polynomial]:
    """Residual of alpha . T(theta) = d_T(theta) on the T*TM coordinates
    where the two sides differ, in coordinate order.

    Each side is four sparse blocks, base index -> component: T(theta) =
    (q, theta, v, theta^c) in alpha's block order against the covector
    d_T(theta) = (q, v, dq-, dv-coefficients).  A slot neither side fills is
    zero on both, a block both take from one object is equal on both, and
    any other slot is kept when the term maps of its sides differ, which a
    base polynomial and a TM one show as they are (see ``poly``)."""
    if theta.chart != tc.base or theta.degree != 1:
        raise DegreeError("prolongation takes a 1-form on the base chart")
    n = tc.dim
    q, v = tc.coord_blocks
    form = {j: t for (j,), t in theta._components.items()}
    prolonged = (q, form, v, {j: _complete_lift_poly(tc, t) for j, t in form.items()})
    covector = (q, v, {}, {})
    for (i,), c in d_T(tc, theta)._components.items():
        covector[2 + i // n][i % n] = c
    zero = tc.total.zero_poly()
    residuals = {}
    for prefix, lhs, rhs in zip(_BLOCKS["T*T"], (prolonged[b] for b in _ALPHA_ORDER), covector):
        if lhs is not rhs:
            for j in sorted(lhs.keys() | rhs.keys()):
                left, right = lhs.get(j, zero), rhs.get(j, zero)
                if left._terms != right._terms:
                    residuals[prefix + tc.base.coords[j]] = left - right
    return residuals
