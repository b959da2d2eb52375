"""Shared generators for randomized exact tests.

Counted acceptance loops use seeded random.Random streams so the number of
cases is exactly what the criterion demands; algebraic laws additionally run
under hypothesis in the per-module suites.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from poissonlift import (
    Chart,
    CoordinateMap,
    DifferentialForm,
    LieBialgebra,
    Multivector,
    Polynomial,
    _linalg,
    poisson,
    tangent,
)
from poissonlift.errors import DegreeError


def abelian(k: int) -> LieBialgebra:
    """The abelian bialgebra on e1..ek, with zero bracket and cobracket."""
    return LieBialgebra(tuple(f"e{i + 1}" for i in range(k)), {})


def momentum_map(chart: Chart, components) -> CoordinateMap:
    """The momentum map J: M -> g* with the given components, g* charted by
    e1..ek as the basis of ``abelian(k)``."""
    components = tuple(components)
    return CoordinateMap(chart, Chart("g*", tuple(f"e{i + 1}" for i in range(len(components)))),
                         components)


def rand_fraction(rng: random.Random, span: int = 6, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def cayley_rotation(rng: random.Random) -> list[list[Fraction]]:
    """(I - S)(I + S)^-1 for a random rational skew matrix S: a rational
    special orthogonal matrix, hence a bracket automorphism of so(3)."""
    a, b, c = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
    S = [[Fraction(0), a, b], [-a, Fraction(0), c], [-b, -c, Fraction(0)]]
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    i_minus = [[eye[i][j] - S[i][j] for j in range(3)] for i in range(3)]
    i_plus = [[eye[i][j] + S[i][j] for j in range(3)] for i in range(3)]
    inv = _linalg.invert(i_plus)
    return [
        [sum(i_minus[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def integer_points(points) -> tuple[list[tuple[int, ...]], int]:
    """Rational points as integer numerators over their least common
    denominator: the point format of ``SamplePlan.stream``, in the
    ``(points, denominator)`` order of ``Polynomial.scaled_values``."""
    points = [tuple(Fraction(x) for x in point) for point in points]
    denominator = math.lcm(*(x.denominator for point in points for x in point))
    return [tuple(int(x * denominator) for x in point) for point in points], denominator


def rand_poly(rng: random.Random, variables, max_degree: int = 3, terms: int = 3) -> Polynomial:
    vs = tuple(variables)
    poly = Polynomial.zero(vs)
    for _ in range(rng.randint(1, terms)):
        exps = [0] * len(vs)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(vs))] += 1
        poly = poly + Polynomial(vs, {tuple(exps): rand_fraction(rng)})
    return poly


def rand_form(rng: random.Random, chart: Chart, degree: int, max_degree: int = 2) -> DifferentialForm:
    comps = {}
    indices = _increasing_tuples(chart.dim, degree)
    for idx in indices:
        if rng.random() < 0.8:
            comps[idx] = rand_poly(rng, chart.coords, max_degree)
    return DifferentialForm(chart, degree, comps)


def rand_multivector(rng: random.Random, chart: Chart, degree: int, max_degree: int = 2) -> Multivector:
    comps = {}
    for idx in _increasing_tuples(chart.dim, degree):
        if rng.random() < 0.8:
            comps[idx] = rand_poly(rng, chart.coords, max_degree)
    return Multivector(chart, degree, comps)


def dense_matrix(tensor) -> list[list[Polynomial]]:
    """The antisymmetric n-by-n component matrix of a bivector or a 2-form,
    entry [i][j] the (ij) component: a dense reference for the kernels, which
    walk stored components only."""
    chart = tensor.chart
    if tensor.degree != 2:
        raise DegreeError("component matrix takes a bivector or a 2-form")
    mat = [[chart.zero_poly() for _ in range(chart.dim)] for _ in range(chart.dim)]
    for (i, j), poly in tensor.components.items():
        mat[i][j] = poly
        mat[j][i] = -poly
    return mat


def dense_vector(tensor) -> list[Polynomial]:
    """The n components of a vector field or a 1-form, zero where none is
    stored."""
    zero = tensor.chart.zero_poly()
    return [tensor.components.get((i,), zero) for i in range(tensor.chart.dim)]


def count_bialgebra_checks(monkeypatch) -> list[str]:
    """Record the name of every LieBialgebra structure check that runs."""
    calls = []
    for name in ("check_jacobi", "check_cocycle", "check_cojacobi"):
        original = getattr(LieBialgebra, name)

        def counted(self, _original=original, _name=name):
            calls.append(_name)
            return _original(self)

        monkeypatch.setattr(LieBialgebra, name, counted)
    return calls


def count_jacobi_checks(monkeypatch) -> list[Multivector]:
    """Record the bivector of every [pi, pi] a PoissonStructure evaluates."""
    calls = []
    original = poisson.jacobi_check

    def counted(bivector):
        calls.append(bivector)
        return original(bivector)

    monkeypatch.setattr(poisson, "jacobi_check", counted)
    return calls


def count_polynomial_calls(monkeypatch, name: str) -> list:
    """Record the receiver of every call of the Polynomial method ``name``
    (the class, for a classmethod such as ``zero``)."""
    calls = []
    original = Polynomial.__dict__[name]
    is_classmethod = isinstance(original, classmethod)
    function = original.__func__ if is_classmethod else original

    def counted(receiver, *args, **kwargs):
        calls.append(receiver)
        return function(receiver, *args, **kwargs)

    monkeypatch.setattr(Polynomial, name, classmethod(counted) if is_classmethod else counted)
    return calls


def count_constructions(monkeypatch, cls) -> list:
    """Record every instance of ``cls`` that is constructed."""
    built = []
    original = cls.__init__

    def counted(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


def use_wrong_lift_kernel(monkeypatch, kind: str) -> None:
    """Replace the complete-lift kernel f |-> f^c by f |-> 2 f^c ("doubled")
    or f |-> -f^c ("negated"), so that the lemma fails."""
    exact = tangent._complete_lift_poly
    wrong = {"doubled": lambda tc, poly: exact(tc, poly) * 2,
             "negated": lambda tc, poly: -exact(tc, poly)}
    monkeypatch.setattr(tangent, "_complete_lift_poly", wrong[kind])


# A problem whose polynomials are at most quadratic, so central differences
# with its step 1 are exact, and the edits that make one of them cubic.
QUADRATIC = """
manifold { coords: q, p; poisson: (q^2 + p)*e_q^e_p }
bialgebra { basis: e1 }
pgmap { e1 = q*p*dq - dp }
momentum { e1 = q^2 - p }
oracle { fd_step: 1 }
"""

CUBIC_EDITS = {
    "poisson": ("(q^2 + p)*e_q", "(q^3 + p)*e_q"),
    "pgmap": ("q*p*dq", "q^3*dq"),
    "momentum": ("e1 = q^2 - p", "e1 = q^3 - p"),
}


def gl_problem(n: int, non_poisson: bool = False, perturb_map: bool = False) -> str:
    """Problem text for the Lie-Poisson structure on gl(n)* with the closed
    pgmap phi_ab = dx_ab, sampled with seed 7.

    ``perturb_map`` replaces phi_E11 by dx11 + x12*dx21 and phi_E12 by
    dx12 + x11^2*dx22, which are not closed.  ``non_poisson`` adds x11 e_x12^e_x13 to the bivector (n >= 3), which
    breaks the Jacobi identity, and keeps only the manifold block."""
    idx = [f"{a}{b}" for a in range(1, n + 1) for b in range(1, n + 1)]
    brackets, bivector = [], []
    for k, ab in enumerate(idx):
        for cd in idx[k + 1:]:
            # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb
            signed = [("", ab[0] + cd[1])] * (ab[1] == cd[0]) + [("-", cd[0] + ab[1])] * (cd[1] == ab[0])
            if not signed:
                continue
            e_text, x_text = (" + ".join(sign + prefix + e for sign, e in signed).replace("+ -", "- ")
                              for prefix in "Ex")
            brackets.append(f"    [E{ab},E{cd}] = {e_text}")
            bivector.append((f"({x_text})" if len(signed) > 1 else x_text) + f"*e_x{ab}^e_x{cd}")
    if non_poisson:
        bivector.append("x11*e_x12^e_x13")
    poisson = " + ".join(bivector).replace("+ -", "- ")
    lines = ["manifold {", "  coords: " + ", ".join(f"x{ab}" for ab in idx), f"  poisson: {poisson}", "}"]
    if not non_poisson:
        lines += ["bialgebra {", "  basis: " + ", ".join(f"E{ab}" for ab in idx),
                  "  bracket {", *brackets, "  }", "}"]
        images = {f"E{ab}": f"dx{ab}" for ab in idx}
        if perturb_map:
            images["E11"] = "dx11 + x12*dx21"
            images["E12"] = "dx12 + x11^2*dx22"
        lines += ["pgmap {", *(f"  {name} = {form}" for name, form in images.items()), "}"]
    lines += ["oracle {", "  samples: 100", "  seed: 7", "  box: -2, 2", "}"]
    return "\n".join(lines) + "\n"


def _increasing_tuples(n: int, k: int):
    if k == 0:
        return [()]
    out = []

    def rec(start, prefix):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for i in range(start, n):
            rec(i + 1, prefix + [i])

    rec(0, [])
    return out


@pytest.fixture
def chart_qp() -> Chart:
    return Chart("M", ("q", "p"))


@pytest.fixture
def chart_xyz() -> Chart:
    return Chart("g", ("x", "y", "z"))
