"""Shared generators for randomized exact tests.

Counted acceptance loops use seeded random.Random streams so the number of
cases is exactly what the criterion demands; algebraic laws additionally run
under hypothesis in the per-module suites.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from poissonlift import Chart, DifferentialForm, LieBialgebra, Multivector, Polynomial


def rand_fraction(rng: random.Random, span: int = 6, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


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
