"""Float cross-validation pipeline."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from poissonlift import (
    Multivector,
    Polynomial,
    SamplePlan,
    fd_derivative_check,
    parse_form,
    parse_poly,
    sample_residual,
)
from poissonlift.errors import DimensionMismatchError, MissingAssignmentError
from poissonlift.oracle import DEFAULT_BOX, GRID_RESOLUTION, _Dual
from poissonlift.poly import scaled_values
from poissonlift.report import make_report

from conftest import count_calls, integer_points, rand_poly, sparse_random_poly
from reference import dense_gradient


class TestForwardDerivatives:
    @pytest.mark.parametrize("text", ["q^4096", "(q+p)^64*q^3 - 7/3*p^5*q", "q^1024*p^3 + p^257"])
    @pytest.mark.parametrize("point, denominator", [((3, -5), 4), ((1, 0), 1), ((-7, 2), 3)])
    def test_exact_at_high_degree(self, text, point, denominator):
        # central differences with step 1/10^6 read a relative error of
        # 2.5e-6 on a degree-4096 component, above their 1e-6 tolerance
        assert fd_derivative_check({"f": parse_poly(text, ("q", "p"))}, ("q", "p"), [point], denominator) == {}

    @pytest.mark.parametrize("text", ["0", "3", "3*q - 7", "q^2", "1/2*q*p - 2/3*p^2"])
    def test_exact_at_low_degree(self, text):
        assert fd_derivative_check({"f": parse_poly(text, ("q", "p"))}, ("q", "p"), [(5, -2)], 1) == {}

    def test_difference_is_exact_over_the_points_denominator(self, monkeypatch):
        # q = 3/2 read as 6/4: f'(3/2) = 27/4, and a doubled partial is off by -27/4
        exact = Polynomial._partials
        monkeypatch.setattr(Polynomial, "_partials", lambda f: {i: p * 2 for i, p in exact(f).items()})
        assert fd_derivative_check({"f": parse_poly("q^3", ("q",))}, ("q",), [(6,)], 4) == {"f/dq": Fraction(-27, 4)}

    def test_a_partial_of_an_unused_variable_is_a_difference(self, monkeypatch):
        # every variable that _partials returns is compared, not only those f uses
        exact = Polynomial._partials
        monkeypatch.setattr(Polynomial, "_partials",
                            lambda f: {**exact(f), 1: Polynomial.constant(5, f.variables)})
        assert fd_derivative_check({"f": parse_poly("q^3", ("q", "p"))}, ("q", "p"), [(1, 1)], 1) == {"f/dp": -5}

    def test_the_kth_polynomial_reads_the_kth_point_by_name(self, monkeypatch):
        # with doubled partials each difference is minus the partial at the
        # polynomial's own point: h reads the first point again, and g, over
        # the universe (p,), reads p from the second entry of its point
        exact = Polynomial._partials
        monkeypatch.setattr(Polynomial, "_partials", lambda f: {i: p * 2 for i, p in exact(f).items()})
        f, g = parse_poly("q^3*p", ("q", "p")), parse_poly("p^2", ("p",))
        assert fd_derivative_check({"f": f, "g": g, "h": f}, ("q", "p"), [(1, 2), (3, -5)], 1) == {
            "f/dq": -6, "f/dp": -1, "g/dp": 10, "h/dq": -6, "h/dp": -1}

    def test_a_used_variable_without_a_partial_is_a_difference(self, monkeypatch):
        # every variable that f uses is compared, also one _partials leaves out
        exact = Polynomial._partials
        monkeypatch.setattr(Polynomial, "_partials", lambda f: {i: p for i, p in exact(f).items() if i})
        assert fd_derivative_check({"f": parse_poly("q^3*p", ("q", "p"))}, ("q", "p"), [(1, 2)], 1) == {"f/dq": 6}

    @pytest.mark.parametrize("denominator", [1, 6, 3 * GRID_RESOLUTION])
    def test_a_dual_entry_carries_the_partial(self, denominator):
        # the evaluator alone, no _partials: at a point that orders the
        # variables otherwise, with r in f's universe but unused and s outside
        # it, the eps part of M * f(x + eps*e_v) is M times dense_gradient(f)[v](x)
        rng = random.Random(8)
        stream = ("r", "s", "p", "q")
        for _ in range(12):
            f = rand_poly(rng, ("q", "p"), max_degree=5).with_variables(("q", "p", "r"))
            gradient = dense_gradient(f)
            point = [rng.randint(-20, 20) for _ in stream]
            x = {v: Fraction(n, denominator) for v, n in zip(stream, point)}
            for k, v in enumerate(stream):
                dual = list(point)
                dual[k] = _Dual(point[k], denominator)
                ((value,),), scale = scaled_values([f], stream, [dual], denominator)
                real, eps = (value.a, value.b) if type(value) is _Dual else (value, 0)
                partial = gradient.get(f.variables.index(v)) if v in f.variables else None
                assert Fraction(real, scale) == f.substitute(x)
                assert Fraction(eps, scale) == (partial.substitute(x) if partial else 0)

    @pytest.mark.parametrize("point", [(), (1,), (1, 2, 3)])
    def test_point_needs_one_coordinate_per_variable(self, point):
        with pytest.raises(DimensionMismatchError):
            fd_derivative_check({"f": parse_poly("q^3", ("q", "p"))}, ("q", "p"), [point], 1)

    @pytest.mark.parametrize("text", ["3", "q^3", "p^3"])
    @pytest.mark.parametrize("point", [{"q": 1}, {"p": 1}, {"q": 1, "r": 1}])
    def test_point_must_cover_every_variable(self, text, point):
        # only the used variables are differentiated, but a point that leaves
        # a variable of f's universe unassigned is still refused
        with pytest.raises(MissingAssignmentError):
            fd_derivative_check({"f": parse_poly(text, ("q", "p"))}, tuple(point), [tuple(point.values())], 1)


class TestSampleResidual:
    def test_zero_polynomial(self):
        plan = SamplePlan(count=50, seed=1)
        assert sample_residual(parse_poly("0", ("q",)), plan) == 0.0

    def test_exact_cancellation(self):
        plan = SamplePlan(count=50, seed=2)
        f = parse_poly("q", ("q", "p")) - parse_poly("q", ("q", "p"))
        assert sample_residual(f, plan) == 0.0

    def test_square_bounded_by_box(self):
        plan = SamplePlan(100, 3, (Fraction(-1), Fraction(1)))
        value = sample_residual(parse_poly("q^2", ("q",)), plan)
        assert 0.0 < value <= 1.0

    def test_tensor_components(self, chart_qp):
        plan = SamplePlan(count=20, seed=4)
        value = sample_residual(parse_form("q*dq", chart_qp), plan)
        assert 0.0 < value <= 2.0

    def test_reproducible(self):
        f = parse_poly("q^3 - 1/2*q", ("q",))
        a = sample_residual(f, SamplePlan(count=100, seed=99))
        b = sample_residual(f, SamplePlan(count=100, seed=99))
        assert a == b
        c = sample_residual(f, SamplePlan(count=100, seed=100))
        assert a != c  # different stream almost surely attains a different max

    def test_point_stream_deterministic(self):
        plan = SamplePlan(count=10, seed=5)
        assert plan.points(3) == plan.points(3)
        assert all(
            Fraction(-2) <= x <= Fraction(2) for point in plan.points(3) for x in point
        )

    def test_first_points_pinned(self):
        # recorded while points were still drawn as Fractions one by one
        assert SamplePlan(seed=2026).points(2, limit=3) == [
            (Fraction(-1073, 1024), Fraction(569, 1024)),
            (Fraction(-151, 128), Fraction(-219, 1024)),
            (Fraction(1397, 1024), Fraction(1973, 1024)),
        ]
        plan = SamplePlan(5, 2026, (Fraction(-1, 3), Fraction(5, 7)))
        assert plan.points(2, limit=3) == [
            (Fraction(-3611, 43008), Fraction(4817, 14336)),
            (Fraction(-91, 768), Fraction(5783, 43008)),
            (Fraction(7853, 14336), Fraction(9965, 14336)),
        ]

    def test_points_are_the_stream_over_its_denominator(self):
        plan = SamplePlan(9, 4, (Fraction(-1, 6), Fraction(5, 7)))
        denominator, numerators = plan.stream(2)
        assert denominator == 4096 * 42
        assert plan.points(2) == [tuple(Fraction(n, denominator) for n in point) for point in numerators]
        assert plan.stream(2, limit=4) == (denominator, numerators[:4])

    @pytest.mark.parametrize("seed", [0, 1, 5, 2026, -7, 2**70])
    def test_stream_draws_are_randrange_draws(self, seed):
        # the inline draw loop gives the numerators of randrange(4097)
        for nvars, limit, box in [(0, None, DEFAULT_BOX), (1, 3, DEFAULT_BOX), (9, None, DEFAULT_BOX),
                                  (18, 40, (Fraction(-1, 3), Fraction(5, 7))),
                                  (4, None, (Fraction(2), Fraction(2)))]:
            plan = SamplePlan(60, seed, box)
            denominator, numerators = plan.stream(nvars, limit)
            rng = random.Random(seed)
            lo, hi = box
            expected = [tuple(lo + (hi - lo) * rng.randrange(GRID_RESOLUTION + 1) / GRID_RESOLUTION
                              for _ in range(nvars)) for _ in range(min(limit or 60, 60))]
            assert [tuple(Fraction(n, denominator) for n in point) for point in numerators] == expected
            assert all(type(n) is int for point in numerators for n in point)

    def test_limited_stream_is_a_prefix(self):
        plan = SamplePlan(count=10, seed=5)
        assert plan.points(3, limit=4) == plan.points(3)[:4]
        assert plan.points(3, limit=0) == []
        assert plan.points(3, limit=50) == plan.points(3)


def test_symbolic_zero_always_samples_zero(chart_qp):
    rng = random.Random(41)
    plan = SamplePlan(count=30, seed=6)
    for _ in range(20):
        f = rand_poly(rng, chart_qp.coords, max_degree=3)
        assert sample_residual(f - f, plan) == 0.0


def test_exact_zero_residuals_draw_no_points(monkeypatch, chart_qp):
    calls = count_calls(monkeypatch, SamplePlan, "stream")
    plan = SamplePlan(count=30, seed=8)
    assert sample_residual(parse_poly("q - q", chart_qp.coords), plan) == 0.0
    assert sample_residual(Multivector.zero(chart_qp, 2), plan) == 0.0
    report = make_report("zero", "0 = 0", {"r": parse_poly("0", ("q",))}, plan=plan)
    assert report.samples == (("r", 0.0),)
    assert calls == []


def test_one_report_draws_each_stream_once(monkeypatch, chart_qp):
    plan = SamplePlan(count=30, seed=9)
    residuals = {
        "a": parse_poly("q^2 - p", chart_qp.coords),
        "b": parse_form("p*dq + dp", chart_qp),
        "c": parse_poly("0", chart_qp.coords),
        "d": parse_poly("r^3", ("q", "p", "r")),
    }
    expected = [(name, sample_residual(res, plan)) for name, res in residuals.items()]
    calls = count_calls(monkeypatch, SamplePlan, "stream")
    report = make_report("shared", "streams", residuals, plan=plan)
    assert sorted(args[1] for args in calls) == [2, 3]
    assert list(report.samples) == expected


_BOXES = {
    "default": (Fraction(-2), Fraction(2)),
    "rational": (Fraction(-1, 3), Fraction(5, 7)),
    "zero-width": (Fraction(0), Fraction(0)),
    "zero-width-rational": (Fraction(2, 3), Fraction(2, 3)),
}


@pytest.mark.parametrize("box", sorted(_BOXES))
@pytest.mark.parametrize("seed", [0, 17])
def test_scaled_values_agree_with_substitution(box, seed):
    """Second route: one family over one ``M = L * D^top`` against Fraction
    substitution, at every point of the plan's Fraction view and at a few
    points over a small denominator.  The points name their variables in
    their own order; the family mixes their universe and a prefix of it
    with reordered sub-universes of up to 70 variables (keys past 32
    fields), sparse terms with exponents up to 4, constants, the zero
    polynomial, rational coefficients and mixed degrees."""
    rng = random.Random(seed)
    plan = SamplePlan(25, seed, _BOXES[box])
    for n in (1, 2, 5, 31, 32, 33, 64, 70):
        base = tuple(f"x{i}" for i in range(n))
        stream = tuple(reversed(base)) + ("y",)
        family = [rand_poly(rng, base, max_degree=4) for _ in range(4)]
        family += [sparse_random_poly(rng, base, 4) for _ in range(3)]
        own = rand_poly(rng, stream, max_degree=3)  # over the points' own universe
        family += [
            own,
            rand_poly(rng, stream[:2], max_degree=2),  # a prefix of it
            parse_poly("1/3*y^2*x0 - 5/7*y + 2", ("y", "x0")),
            parse_poly("-2/9", stream),
            parse_poly("0", base),
            Polynomial.zero(),
        ]
        small = rng.randint(1, 12)
        small_points = [tuple(Fraction(rng.randint(-20, 20), small) for _ in stream) for _ in range(3)]
        small_numerators, small_denominator = integer_points(small_points)
        top = max(sum(exps) for poly in family for exps in poly.terms)
        lcm = math.lcm(*(Fraction(c).denominator for poly in family for c in poly.terms.values()))
        for denominator, numerators, points in ((*plan.stream(len(stream)), plan.points(len(stream))),
                                                (small_denominator, small_numerators, small_points)):
            values, scale = scaled_values(family, stream, numerators, denominator)
            assert scale == lcm * denominator ** top
            assert len(values) == len(family)
            for poly, column in zip(family, values):
                expected = [poly.substitute(dict(zip(stream, point))) for point in points]
                assert all(type(v) is int for v in column)
                assert [Fraction(v, scale) for v in column] == expected
            assert scaled_values(family, stream, [], denominator) == ([[] for _ in family], scale)
        # sampled over the plan's points: the exact maximum, rounded once
        assert sample_residual(own, plan) == float(max(
            abs(own.substitute(dict(zip(stream, point)))) for point in plan.points(len(stream))))
    assert scaled_values([parse_poly("q - 1/2", ("q",))], ("q",), [], 6) == ([[]], 12)
    assert scaled_values([parse_poly("0", ("q",))], ("q",), iter([(1,), (2,)]), 6) == ([[0, 0]], 1)
    for family in ([parse_poly("q*s", ("q", "s"))], [parse_poly("q", ("q",)), parse_poly("0", ("s", "q"))]):
        with pytest.raises(MissingAssignmentError, match=r"\['s'\]"):
            scaled_values(family, ("q", "p"), [(1, 2)], 4096)


def test_sampled_tensor_is_the_largest_component_value(chart_qp):
    plan = SamplePlan(40, 3, (Fraction(-1, 3), Fraction(5, 7)))
    form = parse_form("q^2*dq + (1/3*p - q)*dp", chart_qp)
    expected = max(
        abs(poly.substitute(dict(zip(chart_qp.coords, point))))
        for point in plan.points(chart_qp.dim)
        for poly in form.components.values()
    )
    assert sample_residual(form, plan) == float(expected)


def test_invalid_plans_rejected():
    with pytest.raises(ValueError):
        SamplePlan(count=0)
    with pytest.raises(ValueError):
        SamplePlan(10, 1, (Fraction(2), Fraction(-2)))
