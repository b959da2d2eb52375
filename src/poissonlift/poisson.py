"""Poisson structures, symplectic forms and the operations they induce.

Sign conventions (fixed here once; every identity in the package and the
test suite is stated relative to these):

* bracket:        {f, g} := pi(df, dg)
* musical sharp:  pi#(alpha) := pi(alpha, .), i.e. <beta, pi#(alpha)> = pi(alpha, beta)
* Hamiltonian:    X_f := pi#(df), so X_f(g) = {f, g}
* Koszul bracket: [alpha, beta]_pi := L_{pi#alpha} beta - L_{pi#beta} alpha - d(pi(alpha, beta)),
                  which satisfies [df, dg]_pi = d{f, g}
* flat map:       omega_flat(X) := i_X omega

With these choices, a symplectic form and its inverse bivector (component
matrices exact mutual inverses) satisfy pi# . omega_flat = id, and for the
canonical form dq^dp the induced bracket is {q, p} = -1.

The kernels walk stored components only, as the chart kernels do: ``sharp``
is the one kernel that walks the stored components of a bivector,
``pairing`` walks those of the 1-form, ``poisson_bracket`` is the
composition <dg, X_f> of the two, and the symplectic checks read the
stored components of the 2-form.  No dense component matrix is built.

The Koszul bracket is computed in Cartan form.  With L_X = i_X d + d i_X and
the conventions above, i_(pi#alpha) beta = pi(alpha, beta) and
i_(pi#beta) alpha = pi(beta, alpha) = -pi(alpha, beta), so

    [alpha, beta]_pi = i_(pi#alpha) d(beta) - i_(pi#beta) d(alpha) + d(pi(alpha, beta)),

and no Lie derivative is taken.  ``_koszul`` is the one kernel: it returns
the bracket as products ``(index, scale, a, b)`` for
``DifferentialForm._from_products``, the two contractions from the two
sharps and the two differentials (a zero 2-form, such as every d(phi_i) of
a Lie-Poisson momentum map, adds none), and d(pi(alpha, beta)) =
d<beta, pi#alpha> by the product rule, sum_k (d beta_k X^k + beta_k dX^k),
over the memoized partials of the components of beta and X = pi#alpha.
``koszul_bracket`` computes both sharps and both differentials and sums the
products; a caller bracketing many pairs of one family
(``reduction.pgmap_residuals``) takes each sharp from
``reduction.Resolved.sharps`` and each differential from
``reduction.PGMap.differentials``, which compute them once, and files the
products with its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import _linalg
from ._value import _Value
from .chart import (
    Chart,
    DifferentialForm,
    Multivector,
    _interior_products,
    exterior_derivative,
    interior_product,
    jacobi_check,
)
from .errors import ChartMismatchError, DegreeError
from .poly import Polynomial


class PoissonStructure(_Value):
    """A bivector field together with an exact Jacobi verdict.

    The constructor checks only the degree.  [pi, pi] is evaluated when
    ``jacobiator`` or ``jacobi_verified`` is first read, and then kept, so a
    structure whose verdict nothing reads never pays for it.  Bivectors
    failing the identity can still be carried around for negative tests,
    but operations that need a Poisson structure refuse them."""

    _fields = ("bivector",)

    def __init__(self, bivector: Multivector):
        if bivector.degree != 2:
            raise DegreeError("a Poisson structure is a degree-2 multivector")
        self.bivector = bivector

    @cached_property
    def jacobiator(self) -> Multivector:
        """[pi, pi], evaluated on first use and then kept."""
        return jacobi_check(self.bivector)

    @cached_property
    def jacobi_verified(self) -> bool:
        """Whether [pi, pi] vanishes, decided on first read and then kept."""
        return self.jacobiator.is_zero()

    @property
    def chart(self) -> Chart:
        return self.bivector.chart


def sharp(pi: PoissonStructure, alpha: DifferentialForm) -> Multivector:
    """pi#(alpha) = pi(alpha, .) mapped into vector fields."""
    bivector = pi.bivector
    if alpha.degree != 1:
        raise DegreeError("sharp takes a 1-form")
    if bivector.chart != alpha.chart:
        raise ChartMismatchError("sharp: operands on different charts")
    a = {i: a_i for (i,), a_i in alpha._components.items()}
    slots: dict[int, list] = {}
    for (i, j), p in bivector._components.items():
        # pi^(ij) e_i ^ e_j sends alpha to a_i pi^(ij) e_j - a_j pi^(ij) e_i
        if i in a:
            slots.setdefault(j, []).append((1, a[i], p))
        if j in a:
            slots.setdefault(i, []).append((-1, a[j], p))
    coords = bivector.chart.coords
    comps = {}
    for j in sorted(slots):
        out = Polynomial._sum_of_products(coords, slots[j])
        if not out.is_zero():
            comps[(j,)] = out
    return Multivector._make(bivector.chart, 1, comps)


def pairing(alpha: DifferentialForm, field: Multivector) -> Polynomial:
    """<alpha, X> for a 1-form and a vector field."""
    if alpha.degree != 1 or field.degree != 1:
        raise DegreeError("pairing takes a 1-form and a vector field")
    if alpha.chart != field.chart:
        raise ChartMismatchError("pairing: operands on different charts")
    x = field._components
    return Polynomial._sum_of_products(alpha.chart.coords, [
        (1, a_i, x[(i,)]) for (i,), a_i in alpha._components.items() if (i,) in x])


def poisson_bracket(pi: PoissonStructure, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = pi(df, dg) = <dg, X_f>."""
    x_f = hamiltonian_vf(pi, f)
    return pairing(differential(pi.chart, g), x_f)


def differential(chart: Chart, f: Polynomial) -> DifferentialForm:
    """df as a 1-form on the chart."""
    return exterior_derivative(DifferentialForm.from_poly(chart, f))


def hamiltonian_vf(pi: PoissonStructure, f: Polynomial) -> Multivector:
    """X_f = pi#(df)."""
    return sharp(pi, differential(pi.chart, f))


def koszul_bracket(pi: PoissonStructure, alpha: DifferentialForm,
                   beta: DifferentialForm) -> DifferentialForm:
    """Bracket on 1-forms induced by pi; satisfies [df, dg]_pi = d{f, g}."""
    if alpha.degree != 1 or beta.degree != 1:
        raise DegreeError("Koszul bracket takes 1-forms")
    return DifferentialForm._from_products(alpha.chart, 1, _koszul(
        beta, sharp(pi, alpha), sharp(pi, beta), exterior_derivative(alpha), exterior_derivative(beta), 1))


def _koszul(beta: DifferentialForm, pi_alpha: Multivector, pi_beta: Multivector,
            d_alpha: DifferentialForm, d_beta: DifferentialForm, scale: int) -> list:
    """The products of ``scale`` times
    [alpha, beta]_pi = i_(pi#alpha) d(beta) - i_(pi#beta) d(alpha) + d(pi(alpha, beta)),
    as ``DifferentialForm._from_products`` takes them, from the sharps
    pi#(alpha), pi#(beta) and the differentials d(alpha), d(beta), so that a
    caller bracketing many pairs computes each once.  d(pi(alpha, beta)) =
    d<beta, pi#alpha> is taken by the product rule over the memoized
    partials of the components of beta and pi#alpha."""
    x = pi_alpha._components
    products = []
    # sum_k (d beta_k X^k + beta_k dX^k); tensor components are over the
    # chart's coordinates, so their partials need no re-indexing
    for (k,), b_k in beta._components.items():
        if (k,) in x:
            x_k = x[(k,)]
            products.extend(((l,), scale, partial, x_k) for l, partial in b_k._partials().items())
            products.extend(((l,), scale, b_k, partial) for l, partial in x_k._partials().items())
    products += _interior_products(pi_alpha, d_beta, scale)
    products += _interior_products(pi_beta, d_alpha, -scale)
    return products


class SymplecticForm(_Value):
    """A closed 2-form with its Poisson structure, the exact inverse bivector.

    The component matrices of ``two_form`` and ``poisson.bivector`` multiply
    to the identity, which under the conventions above makes
    pi# . omega_flat the identity bundle map.
    """

    _fields = ("two_form", "poisson")

    def __init__(self, two_form: DifferentialForm, poisson: PoissonStructure):
        self.two_form = two_form
        self.poisson = poisson
        if two_form.degree != 2:
            raise DegreeError("symplectic data consists of a 2-form and a bivector")
        if two_form.chart != poisson.chart:
            raise ChartMismatchError("symplectic data on different charts")
        self.d_omega = exterior_derivative(two_form)  # zero; the symplectic-closed check reads it
        if not self.d_omega.is_zero():
            raise ValueError(f"two-form is not closed: d(omega) = {self.d_omega}")
        if not self._pairing_is_identity():
            raise ValueError("two-form and bivector component matrices are not mutual inverses")

    def _pairing_is_identity(self) -> bool:
        """pi# . omega_flat = id on every coordinate field, which is the
        product of the two component matrices read row by row."""
        chart = self.two_form.chart
        return all(
            sharp(self.poisson, self.flat(field)) == field
            for field in (Multivector.basis(chart, c) for c in chart.coords)
        )

    @classmethod
    def from_two_form(cls, two_form: DifferentialForm,
                      inverse: Multivector | None = None) -> "SymplecticForm":
        """Build from a closed 2-form; the inverse, given or computed, is
        wrapped once as ``poisson``.

        With no explicit inverse the component matrix must be constant; it is
        then inverted exactly.  Polynomial matrices require the inverse to be
        supplied (general polynomial matrix inversion is out of scope).
        """
        chart = two_form.chart
        if inverse is None:
            if two_form.degree != 2:
                raise DegreeError("symplectic data consists of a 2-form and a bivector")
            if any(not entry.is_constant() for entry in two_form._components.values()):
                raise ValueError("non-constant symplectic matrix: supply the inverse bivector")
            const = [[Fraction(0)] * chart.dim for _ in range(chart.dim)]
            for (i, j), entry in two_form._components.items():
                const[i][j] = entry.constant_value()
                const[j][i] = -const[i][j]
            try:
                inv = _linalg.invert(const)
            except ValueError as exc:
                raise ValueError(f"two-form is degenerate: {exc}") from exc
            comps = {}
            for i in range(chart.dim):
                for j in range(i + 1, chart.dim):
                    if inv[i][j] != 0:
                        comps[(i, j)] = chart.constant_poly(inv[i][j])
            inverse = Multivector(chart, 2, comps)
        return cls(two_form, PoissonStructure(inverse))

    @property
    def chart(self) -> Chart:
        return self.two_form.chart

    def flat(self, field: Multivector) -> DifferentialForm:
        """omega_flat(X) = i_X omega."""
        return interior_product(field, self.two_form)

