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


@pytest.mark.parametrize("left,right,universe", [
    (("q",), ("q", "p", "r"), ("q", "p", "r")),  # one extends the other: the longer one
    (("p",), ("q", "r"), ("p", "q", "r")),  # neither does: the sorted union
])
def test_mixed_universes_match_sympy(left, right, universe):
    rng = random.Random(15)
    for _ in range(CASES // 2):
        a = rand_poly(rng, left, max_degree=3, terms=4)
        b = rand_poly(rng, right, max_degree=3, terms=4)
        sa, sb = to_sympy(a), to_sympy(b)
        for x, y, sx, sy in ((a, b, sa, sb), (b, a, sb, sa)):
            for got, expected in ((x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy)):
                assert same(got, expected) and got.variables == universe
        for v in universe:
            got = (a * b).derivative(v)
            assert same(got, sympy.diff(sa * sb, sympy.Symbol(v))) and got.variables == universe
        # every image is over the merged universe; compose keeps its own rule,
        # the sorted union of the images' universes
        images = {v: b + Polynomial.variable(v, left) * rand_fraction(rng) for v in left}
        expected = sa.subs({sympy.Symbol(v): to_sympy(image) for v, image in images.items()},
                           simultaneous=True)
        got = a.compose(images)
        assert same(got, expected)
        assert got.variables == (tuple(sorted(universe)) if a.used_variables() else ())
