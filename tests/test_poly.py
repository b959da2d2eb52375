"""Exact polynomial ring, parser and printer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlift import Polynomial, parse_poly
from poissonlift import poly as poly_module
from poissonlift.poly import EXPONENT_LIMIT
from poissonlift.errors import (
    MissingAssignmentError,
    ParseError,
    UnknownSymbolError,
)

from conftest import count_calls, is_one_form, rand_poly, sparse_random_poly
from reference import dense_gradient, dense_sum_of_products, poly_text


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

    def test_equal_sides_over_a_prefix_universe_subtract_to_zero_on_the_longer(self):
        short = P("q^2 - 1/2*q", "q")
        long = P("q^2 - 1/2*q", "q", "p")
        for difference in (short - long, long - short):
            assert difference.is_zero() and difference.variables == ("q", "p")

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
        assert all(is_one_form(c) for c in poly.terms.values())
        poly = Polynomial(("q",), {(1,): Fraction(6, 2), (2,): "1/2", (0,): 2.5})
        assert poly.terms == {(1,): 3, (2,): Fraction(1, 2), (0,): Fraction(5, 2)}
        assert all(is_one_form(c) for c in poly.terms.values())


class TestIntegerFolding:
    """A result computed from a Fraction operand that comes out integral is
    stored as an int."""

    def _only_term(self, poly):
        (coeff,) = poly.terms.values()
        assert is_one_form(coeff)
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
        assert is_one_form(coeff)
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


def test_packed_printing_matches_dense_reference():
    rng = random.Random(20)
    for n in range(1, 71):
        variables = tuple(f"x{i}" for i in range(n))
        extended = variables + ("y", "z")
        for max_exponent in (3, EXPONENT_LIMIT - 1):
            for _ in range(4):
                poly = sparse_random_poly(rng, variables, max_exponent)
                assert poly.to_string() == _dense_to_string(poly)
                # an extension shares the term map and prints the same
                wide = poly.with_variables(extended)
                assert wide.to_string() == _dense_to_string(wide) == poly.to_string()
                assert (-wide).to_string() == _dense_to_string(-wide)


def test_equality_with_a_rational_builds_no_constant(monkeypatch):
    polys = [P(text) for text in ("1", "0", "-1/2", "q", "q + 1", "1/2")]
    constants = count_calls(monkeypatch, Polynomial, "constant")
    one, zero, half, q, q_plus_one, plus_half = polys
    assert one == 1 and one == Fraction(2, 2) and zero == 0 and half == Fraction(-1, 2)
    assert zero != 1 and q != 0 and q != 1 and q_plus_one != 1 and plus_half != 1
    assert one.with_variables(("q", "p", "r")) == 1
    assert constants == []


# -- the fused kernels against their operator-chain references --------------------


def _assert_fused(poly, variables):
    assert poly.variables == variables
    assert all(is_one_form(c) for c in poly.terms.values())


@pytest.mark.parametrize("dim", [1, 2, 5, 33])
def test_sum_of_products_matches_the_operator_chain(dim):
    rng = random.Random(700 + dim)
    variables = tuple(f"x{i}" for i in range(dim))
    q = Polynomial.variable("x0", variables)
    # operands over prefixes of the universe, as the kernels' callers pass them
    pool = [rand_poly(rng, variables[:rng.randint(1, dim)], max_degree=3, terms=4) for _ in range(8)]
    one = Polynomial.constant(1, variables[:1])
    pool += [Polynomial.zero(variables[:1]), Polynomial.constant(Fraction(3, 2), variables)]
    scales = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    cases = [
        [],  # the empty sum
        [(Fraction(2, 3), q * Fraction(1, 2), q * 3)],  # Fractions whose product folds to 1
        [(1, pool[0], pool[1]), (-1, pool[1], pool[0])],  # full cancellation
        [(1, pool[2], pool[3]), (Fraction(1, 2), pool[3], pool[2]), (-3, pool[2], pool[3]),
         (Fraction(3, 2), pool[2], pool[3])],  # cancellation spread over four products
        [(1, pool[4], one)], [(1, one, pool[5])], [(1, one, one)],  # the unit fast path
        [(-1, pool[4], one)], [(2, one, pool[5])], [(1, pool[6], one), (1, one, pool[6])],  # and beside it
    ]
    for _ in range(40):
        cases.append([(rng.choice(scales), rng.choice(pool), rng.choice(pool))
                      for _ in range(rng.randint(1, 6))])
    for products in cases:
        fused = Polynomial._sum_of_products(variables, products)
        assert fused == dense_sum_of_products(variables, products)
        _assert_fused(fused, variables)
    assert Polynomial._sum_of_products(variables, cases[0]).is_zero()
    assert Polynomial._sum_of_products(variables, cases[1]) == q ** 2
    assert Polynomial._sum_of_products(variables, cases[2]).is_zero()
    assert Polynomial._sum_of_products(variables, cases[3]).is_zero()
    # one product with the unit constant shares the other factor's term map
    for products, factor in zip(cases[4:7], (pool[4], pool[5], one)):
        assert Polynomial._sum_of_products(variables, products)._terms is factor._terms


def test_sum_of_products_keeps_the_exponent_guard():
    variables = ("q", "p")
    big = Polynomial(variables, {(2**30, 0): 1})
    q = Polynomial.variable("q", variables)
    fused = Polynomial._sum_of_products(variables, [(1, big, q), (-1, q, q)])
    assert fused == dense_sum_of_products(variables, [(1, big, q), (-1, q, q)])
    for products in ([(1, big, big)], [(1, q, q), (-1, big, big)], [(2, big * q, big)]):
        with pytest.raises(ValueError, match="not below"):
            dense_sum_of_products(variables, products)
        with pytest.raises(ValueError, match="not below"):
            Polynomial._sum_of_products(variables, products)


@pytest.mark.parametrize("dim", [1, 2, 5, 33, 70])
def test_one_walk_partials_match_one_derivative_per_variable(dim):
    rng = random.Random(800 + dim)
    variables = tuple(f"x{i}" for i in range(dim))
    polys = [Polynomial.zero(variables), Polynomial.constant(Fraction(7, 3), variables),
             Polynomial(variables, {(3,) + (0,) * (dim - 1): Fraction(1, 3)})]  # partial x0^2, coefficient int 1
    for max_exponent in (3, EXPONENT_LIMIT - 1):
        polys += [sparse_random_poly(rng, variables, max_exponent) for _ in range(10)]
    polys += [rand_poly(rng, variables, max_degree=4, terms=5) for _ in range(10)]
    for poly in polys:
        partials = poly._partials()
        assert partials == dense_gradient(poly)
        assert list(partials) == sorted(partials)
        for partial in partials.values():
            _assert_fused(partial, variables)
    assert polys[0]._partials() == {} and polys[1]._partials() == {}
    assert polys[2]._partials() == {0: Polynomial.variable("x0", variables) ** 2}


def test_partials_are_kept_on_each_polynomial(monkeypatch):
    # a polynomial, its extension onto the tangent chart and a sum of
    # products that shares its term map each keep partials over their own
    # universe; a repeated call walks no key again
    rng = random.Random(900)
    base, total = ("q", "p"), ("q", "p", "v_q", "v_p")
    f = rand_poly(rng, base, max_degree=4, terms=5) + Polynomial.variable("q", base) ** 2
    lifted = f.with_variables(total)
    fused = Polynomial._sum_of_products(total, [(1, f, Polynomial.constant(1, total))])
    assert lifted._terms is f._terms and fused._terms is f._terms
    walks = count_calls(monkeypatch, poly_module, "_fields")
    for poly in (f, lifted, fused):
        partials = poly._partials()
        assert walks
        for i, v in enumerate(poly.variables):
            assert partials.get(i, Polynomial.zero(poly.variables)) == poly.derivative(v)
        assert all(partial.variables == poly.variables for partial in partials.values())
        walks.clear()
        assert poly._partials() == partials and poly._partials() is partials
        assert walks == []
    assert len({id(poly._partials()) for poly in (f, lifted, fused)}) == 3


def test_unit_product_is_the_factor_over_its_own_universe(monkeypatch):
    # 1 * a * b with the unit constant returned a copy of the other factor
    # that shared its term map but not its kept partials, so pi#(dx_i),
    # built from the +-pi^(ij) of the Jacobi check, walked them again
    rng = random.Random(910)
    variables = ("q", "p", "r")
    one = Polynomial.constant(1, variables[:1])
    for universe in (variables, variables[:2]):
        f = rand_poly(rng, universe, max_degree=4, terms=5) + Polynomial.variable("q", universe) ** 2
        partials = f._partials()
        walks = count_calls(monkeypatch, poly_module, "_fields")
        for products in ([(1, f, one)], [(1, one, f)]):
            got = Polynomial._sum_of_products(variables, products)
            assert got.variables == variables and got._terms is f._terms
            if universe == variables:
                assert got is f
                assert got._partials() is partials and walks == []
            else:
                assert got is not f and got._partials_memo is None
                assert got._partials() == dense_gradient(got)
        monkeypatch.undo()


@pytest.mark.parametrize("dim", [1, 2, 5, 33])
def test_with_variables_onto_any_universe_matches_the_dense_route(dim):
    # onto a universe that does not extend the current one, each key's set
    # fields move to their names' places; the dense route rebuilds every key
    # from its exponent tuple
    rng = random.Random(950 + dim)
    variables = tuple(f"x{i}" for i in range(dim))
    extra = tuple(f"y{i}" for i in range(dim))
    targets = [
        tuple(reversed(variables)),
        tuple(rng.sample(variables, dim)),
        tuple(name for pair in zip(extra, variables) for name in pair),  # interleaved
        tuple(rng.sample(variables + extra, 2 * dim)),
        extra + variables,
        variables + extra,  # an extension, which shares the term map
    ]
    for max_exponent in (3, EXPONENT_LIMIT - 1):
        for poly in [sparse_random_poly(rng, variables, max_exponent) for _ in range(5)] + [
                Polynomial.zero(variables), Polynomial.constant(Fraction(-1, 2), variables)]:
            for target in targets:
                got = poly.with_variables(target)
                dense = Polynomial(target, {tuple(dict(zip(variables, exps)).get(v, 0) for v in target): c
                                            for exps, c in poly.terms.items()})
                assert got.variables == target and got._terms == dense._terms
                if len(target) == dim:  # a permutation re-indexes back
                    assert got.with_variables(variables)._terms == poly._terms
    with pytest.raises(UnknownSymbolError):
        poly.with_variables(extra)


def test_printing_matches_the_general_reference_loop():
    # one-term polynomials print without ordering their terms; the reference
    # sorts every polynomial's terms graded-lexicographically
    rng = random.Random(960)
    variables = ("q", "p", "r", "s")
    huge = 2 ** 20000  # past the interpreter's integer-to-text limit
    coefficients = [1, -1, Fraction(1, 2), Fraction(-1, 2), 7, -3, huge, -huge, Fraction(huge, 3)]
    polys = [Polynomial.zero(variables)]
    for coeff in coefficients + [0]:
        polys.append(Polynomial.constant(coeff, variables))
        for _ in range(6):
            exps = tuple(rng.choice([0, 0, 1, 2, 3, EXPONENT_LIMIT - 1]) for _ in variables)
            polys.append(Polynomial(variables, {exps: coeff}))
    for max_exponent in (3, EXPONENT_LIMIT - 1):
        polys += [sparse_random_poly(rng, variables, max_exponent) for _ in range(40)]
    polys += [poly * rng.choice(coefficients) + rng.choice(coefficients) for poly in polys[:40]]
    assert sum(len(poly._terms) == 1 for poly in polys) > 60
    for poly in polys:
        assert poly.to_string() == poly_text(poly)
