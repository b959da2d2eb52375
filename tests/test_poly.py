"""Exact polynomial ring, parser and printer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlift import Polynomial, parse_poly
from poissonlift.poly import EXPONENT_LIMIT
from poissonlift.errors import (
    MissingAssignmentError,
    ParseError,
    UnknownSymbolError,
)

from conftest import count_polynomial_calls, rand_poly


def P(text, *variables):
    return parse_poly(text, variables or ("q", "p"))


class TestParse:
    def test_direct_reading(self):
        poly = P("q^2*p - 1/2")
        assert poly.terms == {(2, 1): Fraction(1), (0, 0): Fraction(-1, 2)}

    def test_zero(self):
        assert parse_poly("0", ("q",)).terms == {}

    def test_expand_and_cancel(self):
        # hand oracle: q*(q+p) - q^2 = q^2 + q*p - q^2 = q*p
        assert P("q*(q+p) - q^2") == P("q*p")

    def test_rational_coefficients(self):
        assert P("3/4*q").terms == {(1, 0): Fraction(3, 4)}

    def test_power_of_group(self):
        assert P("(q+p)^2") == P("q^2 + 2*q*p + p^2")

    def test_unary_minus(self):
        assert P("-q + p") == P("p") - P("q")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse_poly("q + r", ("q", "p"))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("q + * p", ("q", "p"))
        assert err.value.position == 4

    def test_power_needs_integer_literal(self):
        with pytest.raises(ParseError):
            parse_poly("q^p", ("q", "p"))
        with pytest.raises(ParseError):
            parse_poly("q^(2)", ("q", "p"))

    def test_power_literal_below_the_exponent_limit(self):
        # refused before a single multiplication, at the literal's position
        with pytest.raises(ParseError) as err:
            parse_poly("p + q^2147483648", ("q", "p"))
        assert err.value.position == 6
        assert parse_poly("q^200000", ("q",)).terms == {(200000,): 1}

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_poly("2 q", ("q",))

    def test_division_only_for_literals(self):
        with pytest.raises(ParseError):
            parse_poly("q/2", ("q",))


class TestArithmetic:
    def test_additive_inverse(self):
        assert (P("q") + P("-q")).is_zero()

    def test_difference_of_squares(self):
        assert P("q+p") * P("q-p") == P("q^2 - p^2")

    def test_absorbing_zero(self):
        assert (P("0") * P("q^3 + p")).is_zero()

    def test_variable_universes_merge_sorted(self):
        a = Polynomial.variable("q")
        b = Polynomial.variable("a")
        assert (a + b).variables == ("a", "q")

    def test_power(self):
        assert P("q") ** 3 == P("q^3")
        with pytest.raises(ValueError):
            P("q") ** -1


class TestDerivative:
    def test_power_rule(self):
        assert P("q^2*p").derivative("q") == P("2*q*p")

    def test_constant_direction(self):
        assert P("q^2").derivative("p").is_zero()

    def test_linearity(self):
        assert P("q*p + q").derivative("q") == P("p + 1")

    def test_unknown_variable(self):
        with pytest.raises(UnknownSymbolError):
            P("q").derivative("zz")


class TestSubstitute:
    def test_point(self):
        assert P("q^2*p").substitute({"q": 2, "p": 3}) == 12

    def test_all_zeros_gives_constant_term(self):
        poly = P("q^2*p - 1/2")
        assert poly.substitute({"q": 0, "p": 0}) == poly.constant_value() == Fraction(-1, 2)

    def test_square_of_half_sum(self):
        poly = P("(q+p)^2")
        assert poly.substitute({"q": Fraction(1, 2), "p": Fraction(1, 2)}) == 1

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignmentError):
            P("q*p").substitute({"q": 1})


class TestPublicConstructor:
    def test_duplicate_variables(self):
        with pytest.raises(ValueError):
            Polynomial(("q", "q"), {})
        for build in (
            lambda: Polynomial.zero(("q", "q")),
            lambda: Polynomial.constant(1, ("q", "q")),
            lambda: Polynomial.variable("q", ("q", "q")),
            lambda: P("q").with_variables(("p", "q", "p")),
        ):
            with pytest.raises(ValueError):
                build()

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            Polynomial(("q", "p"), {(1, -1): 1})

    def test_exponent_past_the_field_is_an_error_not_a_carry(self):
        with pytest.raises(ValueError):
            Polynomial(("q",), {(2**31,): 1})
        big = Polynomial(("q", "p"), {(2**30, 0): 1})
        assert (big * Polynomial.variable("q", ("q", "p"))).terms == {(2**30 + 1, 0): 1}
        with pytest.raises(ValueError):
            big * big
        with pytest.raises(ValueError):
            Polynomial(("q",), {(2**30,): 1}) ** 2
        with pytest.raises(ValueError):
            Polynomial(("p", "q"), {(0, 2**30): 1}) ** 2

    def test_wrong_length_key(self):
        with pytest.raises(ValueError):
            Polynomial(("q", "p"), {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(("q",), {(1, 0): 1})

    def test_coerces_and_drops_zeros(self):
        poly = Polynomial(("q",), {(1,): 0, (2,): 3, (0,): Fraction(0)})
        assert poly.terms == {(2,): Fraction(3)}
        assert all(_is_one_form(c) for c in poly.terms.values())
        poly = Polynomial(("q",), {(1,): Fraction(6, 2), (2,): "1/2", (0,): 2.5})
        assert poly.terms == {(1,): 3, (2,): Fraction(1, 2), (0,): Fraction(5, 2)}
        assert all(_is_one_form(c) for c in poly.terms.values())


def _is_one_form(coeff) -> bool:
    """A coefficient in its one form: a nonzero value whose type is int if
    and only if it is an integer, and Fraction otherwise."""
    if type(coeff) is int:
        return coeff != 0
    return type(coeff) is Fraction and coeff.denominator != 1


class TestIntegerFolding:
    """A result computed from a Fraction operand that comes out integral is
    stored as an int."""

    def _only_term(self, poly):
        (coeff,) = poly.terms.values()
        assert _is_one_form(coeff)
        return coeff

    def test_product(self):
        q = Polynomial.variable("q")
        assert type(self._only_term((q * Fraction(1, 2)) * 2)) is int

    def test_sum(self):
        half_q = P("1/2*q")
        assert type(half_q.terms[(1, 0)]) is Fraction
        assert type(self._only_term(half_q + half_q)) is int
        assert type(self._only_term(P("3/2*q") - half_q)) is int

    def test_derivative(self):
        assert type(self._only_term(P("1/2*q^2").derivative("q"))) is int

    def test_repeated_keys(self):
        # "1" and 1 name the same exponent, so the two halves are summed
        poly = Polynomial(("q",), {(1,): Fraction(1, 2), ("1",): Fraction(1, 2)})
        assert type(self._only_term(poly)) is int

    def test_constant(self):
        assert type(self._only_term(Polynomial.constant(Fraction(4, 2)))) is int
        assert type(Polynomial.zero(("q",)).constant_value()) is int

    def test_substitute_stays_fraction(self):
        assert type(P("q + 1").substitute({"q": 1, "p": 0})) is Fraction


class TestCompose:
    def test_substitute_polynomials(self):
        outer = P("q^2 + p")
        images = {"q": P("q+p"), "p": P("q*p")}
        assert outer.compose(images) == P("(q+p)^2 + q*p")

    def test_result_universe_is_sorted_union_of_used_images(self):
        outer = P("q^2 + 1")
        images = {"q": parse_poly("z - a", ("z", "a")), "p": parse_poly("m", ("m",))}
        assert outer.compose(images).variables == ("a", "z")
        assert P("3").compose(images).variables == ()
        assert P("0").compose(images).variables == ()

    def test_missing_image(self):
        with pytest.raises(MissingAssignmentError):
            P("q*p").compose({"q": P("q")})


# -- randomized laws -------------------------------------------------------------

_vars = st.sampled_from([("q",), ("q", "p"), ("q", "p", "r")])


@st.composite
def polys(draw, variables=None):
    vs = variables if variables is not None else draw(_vars)
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 3)) for _ in vs)
        coeff = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 4)))
        terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(vs, terms)


@given(polys(("q", "p")), polys(("q", "p")), polys(("q", "p")))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a


def _assert_canonical(poly):
    assert type(poly.variables) is tuple
    assert len(set(poly.variables)) == len(poly.variables)
    for exps, coeff in poly.terms.items():
        assert type(exps) is tuple and len(exps) == len(poly.variables)
        assert all(type(e) is int and e >= 0 for e in exps)
        assert _is_one_form(coeff)
    rebuilt = Polynomial(poly.variables, poly.terms)
    assert rebuilt == poly
    assert rebuilt.variables == poly.variables


@given(polys(), polys(), st.integers(0, 3))
def test_arithmetic_results_are_canonical(a, b, k):
    """Every arithmetic result, built through the trusted path, is exactly
    what the validating constructor would build from its terms."""
    results = [a + b, a - b, b - a, a * b, -a, a ** k, a + 0, 2 - a, a * 0, a - a]
    results += [a.derivative(v) for v in a.variables]
    results.append(a.with_variables(("s", "r", "p", "q")))
    results.append(a.compose({v: b for v in a.variables}))
    results.append(a.compose({v: a + Polynomial.variable(v) for v in a.variables}))
    for result in results:
        _assert_canonical(result)
    # one-pass subtraction agrees with adding the negation, universe included
    assert a - b == a + (-b) and (a - b).variables == (a + (-b)).variables
    assert (a - a).is_zero() and (a - a).variables == a.variables
    assert (a - 0).variables == a.variables and (2 - a) == 2 + (-a)
    assert a.used_variables() == tuple(v for v in a.variables if not a.derivative(v).is_zero())


@given(polys())
def test_first_power_and_identity_composition(poly):
    assert poly ** 1 == poly and (poly ** 1).variables == poly.variables
    identity = {v: Polynomial.variable(v, poly.variables) for v in poly.variables}
    assert poly.compose(identity) == poly


@given(polys(("q", "p", "r")))
def test_mixed_partials_commute(poly):
    for x, y in (("q", "p"), ("p", "r"), ("q", "r")):
        assert poly.derivative(x).derivative(y) == poly.derivative(y).derivative(x)


@given(polys())
@settings(max_examples=200)
def test_parse_print_roundtrip(poly):
    assert parse_poly(poly.to_string(), poly.variables) == poly


def test_roundtrip_seeded_stream():
    rng = random.Random(7)
    for _ in range(200):
        poly = rand_poly(rng, ("q", "p", "r"), max_degree=4, terms=5)
        assert parse_poly(poly.to_string(), poly.variables) == poly


def test_print_canonical_graded_lex():
    assert P("q^2*p - 1/2").to_string() == "q^2*p - 1/2"
    assert P("p + q^2 + q*p").to_string() == "q^2 + q*p + p"
    assert parse_poly("0", ("q",)).to_string() == "0"


def _dense_to_string(poly: Polynomial) -> str:
    """The printer on dense exponent tuples over the whole universe: the
    reference for ``to_string``, which walks the set fields of each key."""
    if poly.is_zero():
        return "0"
    chunks = []
    graded_lex = sorted(poly.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    for exps, coeff in graded_lex:
        factors = []
        for v, e in zip(poly.variables, exps):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if not factors:
            text = str(coeff)
        elif coeff == 1:
            text = "*".join(factors)
        elif coeff == -1:
            text = "-" + "*".join(factors)
        else:
            text = str(coeff) + "*" + "*".join(factors)
        chunks.append(text)
    out = chunks[0]
    for text in chunks[1:]:
        out += " - " + text[1:] if text.startswith("-") else " + " + text
    return out


def _sparse_random_poly(rng: random.Random, variables, max_exponent: int) -> Polynomial:
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


def test_packed_printing_matches_dense_reference():
    rng = random.Random(20)
    for n in range(1, 71):
        variables = tuple(f"x{i}" for i in range(n))
        extended = variables + ("y", "z")
        for max_exponent in (3, EXPONENT_LIMIT - 1):
            for _ in range(4):
                poly = _sparse_random_poly(rng, variables, max_exponent)
                assert poly.to_string() == _dense_to_string(poly)
                # an extension shares the term map and prints the same
                wide = poly.with_variables(extended)
                assert wide.to_string() == _dense_to_string(wide) == poly.to_string()
                assert (-wide).to_string() == _dense_to_string(-wide)


def test_scaled_values_match_substitute_on_wide_universes():
    rng = random.Random(21)
    for n in (1, 2, 5, 31, 32, 33, 64, 70):
        variables = tuple(f"x{i}" for i in range(n))
        # the points name the polynomial's variables in another order, and more
        stream = tuple(reversed(variables)) + ("y",)
        for _ in range(5):
            poly = _sparse_random_poly(rng, variables, 4)
            denominator = rng.randint(1, 12)
            points = [tuple(rng.randint(-20, 20) for _ in stream) for _ in range(3)]
            values, scale = poly.scaled_values(stream, points, denominator)
            for value, point in zip(values, points):
                assignment = {v: Fraction(x, denominator) for v, x in zip(stream, point)}
                assert Fraction(value, scale) == poly.substitute(assignment)


def test_equality_with_a_rational_builds_no_constant(monkeypatch):
    polys = [P(text) for text in ("1", "0", "-1/2", "q", "q + 1", "1/2")]
    constants = count_polynomial_calls(monkeypatch, "constant")
    one, zero, half, q, q_plus_one, plus_half = polys
    assert one == 1 and one == Fraction(2, 2) and zero == 0 and half == Fraction(-1, 2)
    assert zero != 1 and q != 0 and q != 1 and q_plus_one != 1 and plus_half != 1
    assert one.with_variables(("q", "p", "r")) == 1
    assert constants == []
