"""Shared generators for randomized exact tests.

Counted acceptance loops use seeded random.Random streams so the number of
cases is exactly what the criterion demands; algebraic laws additionally run
under hypothesis in the per-module suites.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import poissonlift
from poissonlift import (
    Chart,
    CoordinateMap,
    DifferentialForm,
    LieBialgebra,
    Multivector,
    Polynomial,
    ProblemFile,
    _linalg,
    cotangent_momentum_residuals,
    level_set_tangency_residuals,
    make_report,
    tangent,
)
from poissonlift.checks import CHECKS, run_checks
from poissonlift.errors import DegreeError


def abelian(k: int) -> LieBialgebra:
    """The abelian bialgebra on e1..ek, with zero bracket and cobracket."""
    return LieBialgebra(tuple(f"e{i + 1}" for i in range(k)), {})


def run_lifted(check_id: str, pi, pg=None):
    """The report of the check ``check_id`` on the problem made of the
    Poisson structure ``pi`` and, when given, the map ``pg``."""
    (report,) = run_checks(ProblemFile("lifted", pi.chart, pi, pgmap=pg), check_id)
    return report


def report_of(check_id: str, residuals):
    """The unsampled report the registry row ``check_id`` makes of
    ``residuals``, for the residual functions called on their own."""
    (row,) = [row for rows in CHECKS.values() for row in rows if row.check_id == check_id]
    return make_report(row.check_id, row.identity, residuals)


def tangency_report(momentum, parametrization, points, denominator):
    return report_of("level-set-tangency",
                     level_set_tangency_residuals(momentum, parametrization, points, denominator))


def relation_report(tc, omega, generators, pg):
    return report_of("cotangent-momentum-relation",
                     cotangent_momentum_residuals(tc, omega, generators, pg))


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
    ``(points, denominator)`` order of ``poly.scaled_values``."""
    points = [tuple(Fraction(x) for x in point) for point in points]
    denominator = math.lcm(*(x.denominator for point in points for x in point))
    return [tuple(int(x * denominator) for x in point) for point in points], denominator


def is_one_form(coeff) -> bool:
    """A coefficient in its one form: a nonzero value whose type is int if
    and only if it is an integer, and Fraction otherwise."""
    if type(coeff) is int:
        return coeff != 0
    return type(coeff) is Fraction and coeff.denominator != 1


def rand_poly(rng: random.Random, variables, max_degree: int = 3, terms: int = 3) -> Polynomial:
    vs = tuple(variables)
    poly = Polynomial.zero(vs)
    for _ in range(rng.randint(1, terms)):
        exps = [0] * len(vs)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(vs))] += 1
        poly = poly + Polynomial(vs, {tuple(exps): rand_fraction(rng)})
    return poly


def sparse_random_poly(rng: random.Random, variables, max_exponent: int) -> Polynomial:
    """A few terms, each on a few variables, with int or Fraction coefficients
    (±1 among them) and exponents up to ``max_exponent``; some terms share a
    total degree so the lex tie-break decides their order."""
    n = len(variables)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = [0] * n
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(n)] = rng.choice([1, 2, 3, rng.randint(1, max_exponent), max_exponent])
        if rng.random() < 0.5 and any(exps):  # the same degree, the exponents elsewhere
            terms[tuple(exps[1:] + exps[:1])] = rng.choice([1, -1, 2])
        terms[tuple(exps)] = rng.choice([1, -1, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(2, 7))])
    return Polynomial(variables, terms)


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


def run_child(script: str, *args: str) -> str:
    """Stdout of ``script`` run by a fresh interpreter that imports this
    package from the tree under test."""
    src = str(Path(poissonlift.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-B", "-c", script, *args],
                          env=env, capture_output=True, text=True, check=True).stdout


def count_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Record the positional arguments of every call of ``owner.name``.  On a
    class the attribute is found through the MRO (an inherited ``__init__``)
    and a classmethod stays one; on a module the function is replaced in
    every poissonlift module that holds it, as modules call it by that name."""
    calls = []
    is_class = isinstance(owner, type)
    original = next(vars(c)[name] for c in owner.__mro__ if name in vars(c)) if is_class else getattr(owner, name)
    is_classmethod = isinstance(original, classmethod)
    function = original.__func__ if is_classmethod else original

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    if is_class:
        monkeypatch.setattr(owner, name, classmethod(counted) if is_classmethod else counted)
        return calls
    for key, module in list(sys.modules.items()):
        if key.startswith("poissonlift") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def use_wrong_lift_kernel(monkeypatch, kind: str) -> None:
    """Replace the complete-lift kernel f |-> f^c by f |-> 2 f^c ("doubled")
    or f |-> -f^c ("negated"), so that the lemma fails."""
    exact = tangent._complete_lift_poly
    wrong = {"doubled": lambda tc, poly: exact(tc, poly) * 2,
             "negated": lambda tc, poly: -exact(tc, poly)}
    monkeypatch.setattr(tangent, "_complete_lift_poly", wrong[kind])


# A problem whose polynomials are at most quadratic, and the edits that
# make one of them cubic.
QUADRATIC = """
manifold { coords: q, p; poisson: (q^2 + p)*e_q^e_p }
bialgebra { basis: e1 }
pgmap { e1 = q*p*dq - dp }
momentum { e1 = q^2 - p }
"""

CUBIC_EDITS = {
    "poisson": ("(q^2 + p)*e_q", "(q^3 + p)*e_q"),
    "pgmap": ("q*p*dq", "q^3*dq"),
    "momentum": ("e1 = q^2 - p", "e1 = q^3 - p"),
}


def load_bench(name: str) -> types.ModuleType:
    """bench/<name>.py, run from its source so nothing is written under bench/;
    registered in sys.modules first, where dataclasses looks a class's module up."""
    key = f"bench.{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
        module = sys.modules[key] = types.ModuleType(key)
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return sys.modules[key]


# the benchmark's gl(n) Lie-Poisson problems are the tests' too
gl_problem = load_bench("workloads").gl_problem


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
