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
and ``poisson_bracket`` visit the stored components of the bivector,
``pairing`` those of the 1-form, ``poisson_bracket`` differentiates each
operand once, by the variables it uses, and the symplectic checks read the
stored components of the 2-form.  No dense component matrix is built.  The
Koszul bracket is one formula, ``_koszul``, over the two 1-forms and their
sharps: ``koszul_bracket`` computes both sharps, and a caller bracketing many
pairs of one family (``reduction.pgmap_residuals``) computes each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _linalg
from .chart import (
    Chart,
    DifferentialForm,
    Multivector,
    _gradient,
    exterior_derivative,
    interior_product,
    jacobi_check,
    lie_derivative,
)
from .errors import ChartMismatchError, DegreeError
from .poly import Polynomial


@dataclass(frozen=True)
class PoissonStructure:
    """A bivector field together with an exact Jacobi verdict.

    The constructor checks only the degree.  [pi, pi] is evaluated when
    ``jacobiator`` or ``jacobi_verified`` is first read, and then kept, so a
    structure whose verdict nothing reads never pays for it.  Bivectors
    failing the identity can still be carried around for negative tests,
    but operations that need a Poisson structure refuse them."""

    bivector: Multivector

    def __post_init__(self):
        if self.bivector.degree != 2:
            raise DegreeError("a Poisson structure is a degree-2 multivector")

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


def _as_bivector(pi) -> Multivector:
    return pi.bivector if isinstance(pi, PoissonStructure) else pi


def sharp(pi, alpha: DifferentialForm) -> Multivector:
    """pi#(alpha) = pi(alpha, .) mapped into vector fields."""
    bivector = _as_bivector(pi)
    if alpha.degree != 1:
        raise DegreeError("sharp takes a 1-form")
    if bivector.chart != alpha.chart:
        raise ChartMismatchError("sharp: operands on different charts")
    if bivector.degree != 2:
        raise DegreeError("sharp takes a bivector")
    a = {i: a_i for (i,), a_i in alpha._components.items()}
    slots: dict[int, Polynomial] = {}
    for (i, j), p in bivector._components.items():
        # pi^(ij) e_i ^ e_j sends alpha to a_i pi^(ij) e_j - a_j pi^(ij) e_i
        if i in a:
            slots[j] = slots[j] + a[i] * p if j in slots else a[i] * p
        if j in a:
            slots[i] = slots[i] - a[j] * p if i in slots else -(a[j] * p)
    comps = {(j,): out for j, out in sorted(slots.items()) if not out.is_zero()}
    return Multivector._make(bivector.chart, 1, comps)


def pairing(alpha: DifferentialForm, field: Multivector) -> Polynomial:
    """<alpha, X> for a 1-form and a vector field."""
    if alpha.degree != 1 or field.degree != 1:
        raise DegreeError("pairing takes a 1-form and a vector field")
    if alpha.chart != field.chart:
        raise ChartMismatchError("pairing: operands on different charts")
    x = field._components
    out = alpha.chart.zero_poly()
    for (i,), a_i in alpha._components.items():
        if (i,) in x:
            out = out + a_i * x[(i,)]
    return out


def bivector_pairing(pi, alpha: DifferentialForm, beta: DifferentialForm) -> Polynomial:
    """pi(alpha, beta) = <beta, pi#(alpha)>."""
    return pairing(beta, sharp(pi, alpha))


def poisson_bracket(pi, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = pi(df, dg)."""
    bivector = _as_bivector(pi)
    chart = bivector.chart
    df = _gradient(chart, f)
    dg = _gradient(chart, g)
    out = chart.zero_poly()
    for (i, j), p in bivector._components.items():
        # p (d_i f d_j g - d_j f d_i g), leaving out products of a zero partial
        ij = i in df and j in dg
        ji = j in df and i in dg
        if ij and ji:
            cross = df[i] * dg[j] - df[j] * dg[i]
        elif ij:
            cross = df[i] * dg[j]
        elif ji:
            cross = -(df[j] * dg[i])
        else:
            continue
        out = out + p * cross
    return out


def differential(chart: Chart, f: Polynomial) -> DifferentialForm:
    """df as a 1-form on the chart."""
    return exterior_derivative(DifferentialForm.from_poly(chart, f))


def hamiltonian_vf(pi, f: Polynomial) -> Multivector:
    """X_f = pi#(df)."""
    chart = _as_bivector(pi).chart
    return sharp(pi, differential(chart, f))


def koszul_bracket(pi, alpha: DifferentialForm, beta: DifferentialForm) -> DifferentialForm:
    """Bracket on 1-forms induced by pi; satisfies [df, dg]_pi = d{f, g}."""
    if alpha.degree != 1 or beta.degree != 1:
        raise DegreeError("Koszul bracket takes 1-forms")
    return _koszul(alpha, beta, sharp(pi, alpha), sharp(pi, beta))


def _koszul(alpha: DifferentialForm, beta: DifferentialForm,
            pi_alpha: Multivector, pi_beta: Multivector) -> DifferentialForm:
    """[alpha, beta]_pi from the 1-forms and their sharps pi#(alpha), pi#(beta),
    so that a caller bracketing many pairs computes each sharp once."""
    first = lie_derivative(pi_alpha, beta)
    second = lie_derivative(pi_beta, alpha)
    exact = differential(alpha.chart, pairing(beta, pi_alpha))  # pi(alpha, beta)
    return first - second - exact


@dataclass(frozen=True)
class SymplecticForm:
    """A closed 2-form with an exact inverse bivector.

    The component matrices of ``two_form`` and ``inverse_bivector`` multiply
    to the identity, which under the conventions above makes
    pi# . omega_flat the identity bundle map.
    """

    two_form: DifferentialForm
    inverse_bivector: Multivector

    def __post_init__(self):
        if self.two_form.degree != 2 or self.inverse_bivector.degree != 2:
            raise DegreeError("symplectic data consists of a 2-form and a bivector")
        if self.two_form.chart != self.inverse_bivector.chart:
            raise ChartMismatchError("symplectic data on different charts")
        closed = exterior_derivative(self.two_form)
        if not closed.is_zero():
            raise ValueError(f"two-form is not closed: d(omega) = {closed}")
        if not self._pairing_is_identity():
            raise ValueError("two-form and bivector component matrices are not mutual inverses")

    def _pairing_is_identity(self) -> bool:
        """pi# . omega_flat = id on every coordinate field, which is the
        product of the two component matrices read row by row."""
        chart = self.two_form.chart
        return all(
            sharp(self.inverse_bivector, self.flat(field)) == field
            for field in (Multivector.basis(chart, c) for c in chart.coords)
        )

    @classmethod
    def from_two_form(cls, two_form: DifferentialForm,
                      inverse: Multivector | None = None) -> "SymplecticForm":
        """Build from a closed 2-form.

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
        return cls(two_form, inverse)

    @property
    def chart(self) -> Chart:
        return self.two_form.chart

    def poisson(self) -> PoissonStructure:
        return PoissonStructure(self.inverse_bivector)

    def flat(self, field: Multivector) -> DifferentialForm:
        """omega_flat(X) = i_X omega."""
        return interior_product(field, self.two_form)

    def is_invariant_under(self, field: Multivector) -> DifferentialForm:
        """L_X omega, returned as a residual 2-form (zero iff invariant)."""
        return lie_derivative(field, self.two_form)

