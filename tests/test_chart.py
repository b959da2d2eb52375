"""Exterior calculus and the Schouten bracket on a chart."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonlift import (
    Chart,
    DifferentialForm,
    Multivector,
    exterior_derivative,
    interior_product,
    jacobi_check,
    lie_derivative,
    parse_form,
    parse_multivector,
    schouten_bracket,
    tangent_chart,
    wedge,
)
from poissonlift import chart as chart_module
from poissonlift.errors import ChartMismatchError, DegreeError, KindMismatchError

from conftest import dense_matrix, dense_vector, rand_form, rand_fraction, rand_multivector, rand_poly


@pytest.fixture
def R2():
    return Chart("M", ("q", "p"))


@pytest.fixture
def R3():
    return Chart("g", ("x", "y", "z"))


class TestWedge:
    def test_area_element(self, R2):
        dq, dp = DifferentialForm.basis(R2, "q"), DifferentialForm.basis(R2, "p")
        assert wedge(dq, dp) == parse_form("dq^dp", R2)

    def test_self_wedge_vanishes(self, R2):
        dq = DifferentialForm.basis(R2, "q")
        assert wedge(dq, dq).is_zero()

    def test_bilinearity(self, R2):
        a = parse_form("q*dq", R2)
        b = parse_form("p*dp", R2)
        assert wedge(a, b) == parse_form("q*p*dq^dp", R2)

    def test_kind_mismatch(self, R2):
        with pytest.raises(KindMismatchError):
            wedge(DifferentialForm.basis(R2, "q"), Multivector.basis(R2, "p"))

    def test_chart_mismatch(self, R2, R3=None):
        other = Chart("N", ("q", "p"))
        with pytest.raises(ChartMismatchError):
            wedge(DifferentialForm.basis(R2, "q"), DifferentialForm.basis(other, "p"))


class TestExteriorDerivative:
    def test_leibniz_on_product(self, R2):
        f = DifferentialForm.from_poly(R2, R2.coord_poly("q") * R2.coord_poly("p"))
        assert exterior_derivative(f) == parse_form("p*dq + q*dp", R2)

    def test_one_form(self, R2):
        assert exterior_derivative(parse_form("q*dp", R2)) == parse_form("dq^dp", R2)

    def test_top_degree(self, R2):
        assert exterior_derivative(parse_form("dq^dp", R2)).is_zero()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_function_matches_the_sorted_route(self, dim):
        # d of a degree-0 form is built straight from the gradient; the
        # general route files every partial through from_terms' sort-and-merge
        rng = random.Random(200 + dim)
        chart = Chart("R", tuple(f"x{k}" for k in range(dim)))
        funcs = [chart.zero_poly(), chart.constant_poly(rand_fraction(rng)),
                 rand_poly(rng, chart.coords[dim // 2:])]
        funcs += [rand_poly(rng, chart.coords, max_degree=4, terms=4) for _ in range(6)]
        for f in funcs:
            df = exterior_derivative(DifferentialForm.from_poly(chart, f))
            sorted_route = DifferentialForm.from_terms(
                chart, 1, [((k,), f.with_variables(chart.coords).derivative(c))
                           for k, c in enumerate(chart.coords)])
            assert df == sorted_route
            keys = list(df.components)
            assert keys == sorted(set(keys))
            assert all(not p.is_zero() and p.variables == chart.coords
                       for p in df.components.values())
            assert df.is_zero() == f.is_constant()


class TestInteriorProduct:
    def test_area_contraction(self, R2):
        X = Multivector.basis(R2, "q")
        assert interior_product(X, parse_form("dq^dp", R2)) == parse_form("dp", R2)

    def test_orthogonal_direction(self, R2):
        X = Multivector.basis(R2, "p")
        assert interior_product(X, parse_form("dq", R2)).is_zero()

    def test_coefficients_multiply(self, R2):
        X = parse_multivector("q*e_q", R2)
        got = interior_product(X, parse_form("q*dq", R2))
        assert got.as_poly() == R2.coord_poly("q") ** 2

    def test_degree_zero_rejected(self, R2):
        with pytest.raises(DegreeError):
            interior_product(Multivector.basis(R2, "q"), DifferentialForm.from_poly(R2, 1))


class TestLieDerivative:
    def test_on_one_form(self, R2):
        X = Multivector.basis(R2, "q")
        assert lie_derivative(X, parse_form("q*dq", R2)) == parse_form("dq", R2)

    def test_on_function_is_directional(self, R2):
        X = parse_multivector("q*e_p", R2)
        f = DifferentialForm.from_poly(R2, R2.coord_poly("p"))
        assert lie_derivative(X, f).as_poly() == R2.coord_poly("q")

    def test_constant_fields_commute(self, R2):
        X = Multivector.basis(R2, "q")
        Y = Multivector.basis(R2, "p")
        assert lie_derivative(X, Y).is_zero()

    def test_forms_match_cartan_formula(self):
        # every degree 0..dim, top degree included, on base charts of dims
        # 1-5 and on tangent charts (dims 2 and 4), where the tautological
        # field is one of the fields; rand_multivector leaves about a fifth
        # of the field components zero
        rng = random.Random(91)
        charts = [Chart("B", tuple(f"x{i}" for i in range(dim))) for dim in range(1, 6)]
        tangents = [tangent_chart(chart) for chart in charts[:2]]
        cases = [(chart, rand_multivector(rng, chart, 1)) for chart in charts for _ in range(3)]
        cases += [(tc.total, field) for tc in tangents
                  for field in (tc.tautological, rand_multivector(rng, tc.total, 1))]
        for chart, field in cases:
            for degree in range(chart.dim + 1):
                omega = rand_form(rng, chart, degree)
                assert lie_derivative(field, omega) == _cartan_lie_derivative(field, omega)


def _cartan_lie_derivative(field: Multivector, omega: DifferentialForm) -> DifferentialForm:
    """L_X = i_X d + d i_X on forms: the reference for the coordinate kernel.
    d of a top-degree form and i_X of a function are left out, both zero."""
    chart = omega.chart
    if omega.degree < chart.dim:
        first = interior_product(field, exterior_derivative(omega))
    else:
        first = DifferentialForm.zero(chart, chart.dim)
    if omega.degree == 0:
        return first
    return first + exterior_derivative(interior_product(field, omega))


def _lie_bracket_oracle(X: Multivector, Y: Multivector) -> Multivector:
    """Coordinate Lie bracket [X, Y]^i = X(Y^i) - Y(X^i)."""
    chart = X.chart
    x, y = dense_vector(X), dense_vector(Y)
    comps = {}
    for i, (xi, yi) in enumerate(zip(x, y)):
        total = chart.zero_poly()
        for k, ck in enumerate(chart.coords):
            total = total + x[k] * yi.derivative(ck) - y[k] * xi.derivative(ck)
        if not total.is_zero():
            comps[(i,)] = total
    return Multivector(chart, 1, comps)


class TestSchouten:
    def test_constant_bivector_self_bracket(self, R2):
        pi = parse_multivector("e_q^e_p", R2)
        assert schouten_bracket(pi, pi).is_zero()

    def test_constant_fields(self, R2):
        assert schouten_bracket(Multivector.basis(R2, "q"), Multivector.basis(R2, "p")).is_zero()

    def test_rotation_translation(self):
        # hand oracle: [X, Y]^i = X(Y^i) - Y(X^i) with X = x e_y - y e_x, Y = e_x
        # gives [X, Y]^y = -d(x)/dx = -1, so the bracket is -e_y.
        chart = Chart("M", ("x", "y"))
        X = parse_multivector("x*e_y - y*e_x", chart)
        Y = parse_multivector("e_x", chart)
        expected = parse_multivector("-e_y", chart)
        assert schouten_bracket(X, Y) == expected
        assert schouten_bracket(X, Y) == _lie_bracket_oracle(X, Y)

    def test_vector_fields_give_lie_bracket(self):
        chart = Chart("g", ("x", "y", "z"))
        rng = random.Random(10)
        for _ in range(25):
            X = rand_multivector(rng, chart, 1)
            Y = rand_multivector(rng, chart, 1)
            assert schouten_bracket(X, Y) == _lie_bracket_oracle(X, Y)

    def test_vector_function_is_directional_derivative(self, R2):
        rng = random.Random(11)
        for _ in range(25):
            X = rand_multivector(rng, R2, 1)
            f = rand_poly(rng, R2.coords)
            got = schouten_bracket(X, Multivector.from_poly(R2, f))
            expected = R2.zero_poly()
            for xi, c in zip(dense_vector(X), R2.coords):
                expected = expected + xi * f.derivative(c)
            assert got.as_poly() == expected

    def test_graded_antisymmetry(self):
        chart = Chart("c", ("x", "y", "z", "w"))
        rng = random.Random(12)
        for _ in range(20):
            a_deg = rng.randint(0, 2)
            b_deg = rng.randint(0, 2)
            A = rand_multivector(rng, chart, a_deg, max_degree=1)
            B = rand_multivector(rng, chart, b_deg, max_degree=1)
            sign = -1 if ((a_deg - 1) * (b_deg - 1)) % 2 == 0 else 1
            lhs = schouten_bracket(A, B)
            rhs = schouten_bracket(B, A)
            assert lhs == (rhs * sign if sign < 0 else rhs)

    def test_graded_leibniz(self):
        # [A, B ^ C] = [A, B] ^ C + (-1)^((|A|-1)|B|) B ^ [A, C]
        chart = Chart("c", ("x", "y", "z", "w"))
        rng = random.Random(13)
        for _ in range(20):
            a_deg = rng.randint(1, 2)
            b_deg = rng.randint(0, 2)
            c_deg = rng.randint(0, 2)
            A = rand_multivector(rng, chart, a_deg, max_degree=1)
            B = rand_multivector(rng, chart, b_deg, max_degree=1)
            C = rand_multivector(rng, chart, c_deg, max_degree=1)
            lhs = schouten_bracket(A, wedge(B, C))
            first = wedge(schouten_bracket(A, B), C)
            second = wedge(B, schouten_bracket(A, C))
            if ((a_deg - 1) * b_deg) % 2:
                second = -second
            rhs = first + second
            # degree bookkeeping: both sides may be degree-clamped zero tensors
            if lhs.degree == rhs.degree:
                assert lhs == rhs
            else:
                assert lhs.is_zero() and rhs.is_zero()

    def test_graded_jacobi_vector_fields(self):
        chart = Chart("g", ("x", "y", "z"))
        rng = random.Random(14)
        for _ in range(15):
            A = rand_multivector(rng, chart, 1, max_degree=1)
            B = rand_multivector(rng, chart, 1, max_degree=1)
            C = rand_multivector(rng, chart, 2, max_degree=1)
            lhs = schouten_bracket(A, schouten_bracket(B, C))
            rhs = schouten_bracket(schouten_bracket(A, B), C) + schouten_bracket(
                B, schouten_bracket(A, C)
            )
            assert lhs == rhs


def _scanning_schouten_half(a: Multivector, b: Multivector) -> Multivector:
    """A . B = sum_i (dA/dxi_i) ^ (d_i B), scanning every stored component of
    A for each coordinate that B's partials use: the reference for
    ``chart._schouten_half``, which files A's components by the indices they
    carry and must keep this component and term order."""
    chart = a.chart
    deg = a.degree + b.degree - 1
    if a.degree == 0 or deg > chart.dim:
        return Multivector.zero(chart, min(max(deg, 0), chart.dim))
    b_partials = {}
    for idx_b, poly in b.components.items():
        for name in poly.used_variables():
            b_partials.setdefault(chart.index(name), []).append((idx_b, poly.derivative(name)))
    terms = []
    for i in sorted(b_partials):
        for idx_a, poly_a in a.components.items():
            if i not in idx_a:
                continue
            pos = idx_a.index(i)
            rest = idx_a[:pos] + idx_a[pos + 1:]
            left = -poly_a if pos % 2 else poly_a
            for idx_b, partial in b_partials[i]:
                terms.append((rest + idx_b, left * partial))
    return Multivector.from_terms(chart, deg, terms)


def _in_order(tensor: Multivector) -> list:
    """Components and their terms in stored order."""
    return [(idx, list(poly.terms.items())) for idx, poly in tensor.components.items()]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_schouten_half_matches_scanning_reference(dim):
    rng = random.Random(300 + dim)
    chart = Chart("R", tuple(f"x{k}" for k in range(dim)))
    degrees = range(min(3, dim) + 1)
    for _ in range(4):
        for a_degree in degrees:
            for b_degree in degrees:
                a = rand_multivector(rng, chart, a_degree, max_degree=3)
                b = rand_multivector(rng, chart, b_degree, max_degree=3)
                assert _in_order(chart_module._schouten_half(a, b)) == _in_order(_scanning_schouten_half(a, b))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_self_bracket_computes_one_half(dim, monkeypatch):
    # [A, A] = (-1)^(|A|-1) D(A, A) - D(A, A), since (|A|-1)|A| is even
    rng = random.Random(310 + dim)
    chart = Chart("R", tuple(f"x{k}" for k in range(dim)))
    halves = []
    kernel = chart_module._schouten_half
    monkeypatch.setattr(chart_module, "_schouten_half", lambda a, b: halves.append(a) or kernel(a, b))
    for degree in range(1, min(3, dim) + 1):
        for _ in range(4):
            pi = rand_multivector(rng, chart, degree, max_degree=3)
            first, second = _scanning_schouten_half(pi, pi), _scanning_schouten_half(pi, pi)
            expected = (first if degree % 2 else -first) - second
            halves.clear()
            assert _in_order(schouten_bracket(pi, pi)) == _in_order(expected)
            assert len(halves) == 1


def _jacobiator_oracle(pi: Multivector) -> Multivector:
    """Brute-force coordinate expansion for [pi, pi] on a bivector.

    Component on (a < b < c):  2 sum_i (P[a][i] d_i P[b][c]
                                       + P[b][i] d_i P[c][a]
                                       + P[c][i] d_i P[a][b]),
    which is twice the cyclic bracket sum {x_a,{x_b,x_c}} + {x_b,{x_c,x_a}}
    + {x_c,{x_a,x_b}} under the convention {f,g} = sum d_i f P[i][j] d_j g.
    """
    chart = pi.chart
    mat = dense_matrix(pi)
    n = chart.dim
    comps = {}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                total = chart.zero_poly()
                for i in range(n):
                    di = chart.coords[i]
                    total = total + mat[a][i] * mat[b][c].derivative(di)
                    total = total + mat[b][i] * mat[c][a].derivative(di)
                    total = total + mat[c][i] * mat[a][b].derivative(di)
                total = total * 2
                if not total.is_zero():
                    comps[(a, b, c)] = total
    return Multivector(chart, 3, comps)


class TestJacobiCheck:
    def test_canonical(self, R2):
        assert jacobi_check(parse_multivector("e_q^e_p", R2)).is_zero()

    def test_any_bivector_on_dim_two(self, R2):
        assert jacobi_check(parse_multivector("q*e_q^e_p", R2)).is_zero()
        rng = random.Random(15)
        for _ in range(30):
            assert jacobi_check(rand_multivector(rng, R2, 2, max_degree=3)).is_zero()

    def test_rotation_algebra_dual(self, R3):
        pi = parse_multivector("z*e_x^e_y - y*e_x^e_z + x*e_y^e_z", R3)
        assert jacobi_check(pi).is_zero()
        assert _jacobiator_oracle(pi).is_zero()

    def test_matches_expansion_oracle(self, R3):
        rng = random.Random(16)
        for _ in range(25):
            pi = rand_multivector(rng, R3, 2, max_degree=2)
            assert jacobi_check(pi) == _jacobiator_oracle(pi)

    def test_detects_failure(self, R3):
        # {x,{y,z}} + {y,{z,x}} + {z,{x,y}} = {y,-x} + {z,z} = z for this data
        pi = parse_multivector("z*e_x^e_y + x*e_x^e_z", R3)
        residual = jacobi_check(pi)
        assert not residual.is_zero()
        assert residual == _jacobiator_oracle(pi)


# -- randomized d^2 = 0 and wedge laws via hypothesis --------------------------

_dims = st.sampled_from([1, 2, 3])


@st.composite
def chart_and_forms(draw, count=2):
    dim = draw(_dims)
    chart = Chart("H", tuple(f"x{i}" for i in range(dim)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    forms = []
    for _ in range(count):
        degree = rng.randint(0, dim)
        forms.append(rand_form(rng, chart, degree))
    return chart, forms


@given(chart_and_forms(count=1))
@settings(max_examples=80)
def test_d_squared_zero(data):
    _, (omega,) = data
    dd = exterior_derivative(exterior_derivative(omega))
    assert dd.is_zero()


def test_tensor_literals_roundtrip():
    rng = random.Random(17)
    for dim in (1, 2, 3):
        chart = Chart("R", tuple(f"x{i}" for i in range(dim)))
        for _ in range(20):
            degree = rng.randint(0, dim)
            form = rand_form(rng, chart, degree, max_degree=3)
            assert parse_form(form.to_string(), chart, degree=degree) == form
            field = rand_multivector(rng, chart, degree, max_degree=3)
            assert parse_multivector(field.to_string(), chart, degree=degree) == field


@given(chart_and_forms(count=3))
@settings(max_examples=60)
def test_wedge_graded_commutative_and_associative(data):
    _, (a, b, c) = data
    ab = wedge(a, b)
    ba = wedge(b, a)
    if (a.degree * b.degree) % 2:
        assert ab == -ba
    else:
        assert ab == ba
    lhs = wedge(ab, c)
    rhs = wedge(a, wedge(b, c))
    if lhs.degree == rhs.degree:
        assert lhs == rhs
    else:
        assert lhs.is_zero() and rhs.is_zero()
