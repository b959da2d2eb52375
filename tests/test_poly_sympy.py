"""Differential check of the polynomial core against sympy.

sympy is a test-only oracle here; the package itself never imports it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from poissonlift import Polynomial

from conftest import rand_fraction, rand_poly

sympy = pytest.importorskip("sympy")

VARIABLES = ("q", "p", "r")
CASES = 60


def to_sympy(poly: Polynomial):
    symbols = [sympy.Symbol(v) for v in poly.variables]
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
        for exps, c in poly.terms.items()
    ))


def same(poly: Polynomial, expr) -> bool:
    return sympy.expand(to_sympy(poly) - expr) == 0


def seeded_pairs(seed: int):
    rng = random.Random(seed)
    for _ in range(CASES):
        yield (rand_poly(rng, VARIABLES, max_degree=4, terms=5),
               rand_poly(rng, VARIABLES, max_degree=4, terms=5), rng)


def test_mul_matches_sympy():
    for a, b, _ in seeded_pairs(11):
        assert same(a * b, to_sympy(a) * to_sympy(b))


def test_compose_matches_sympy():
    for a, b, rng in seeded_pairs(12):
        images = {"q": b, "p": rand_poly(rng, ("p", "r")), "r": Polynomial.constant(3)}
        expected = to_sympy(a).subs(
            {sympy.Symbol(v): to_sympy(image) for v, image in images.items()}, simultaneous=True
        )
        assert same(a.compose(images), expected)


def test_derivative_matches_sympy():
    for a, _, _ in seeded_pairs(13):
        for v in VARIABLES:
            assert same(a.derivative(v), sympy.diff(to_sympy(a), sympy.Symbol(v)))


def test_substitute_matches_sympy():
    for a, _, rng in seeded_pairs(14):
        point = {v: rand_fraction(rng) for v in VARIABLES}
        expected = to_sympy(a).subs(
            {sympy.Symbol(v): sympy.Rational(x.numerator, x.denominator) for v, x in point.items()}
        )
        value = a.substitute(point)
        assert value == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))
