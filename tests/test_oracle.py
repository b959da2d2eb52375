"""Float cross-validation pipeline."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from poissonlift import (
    Multivector,
    SamplePlan,
    fd_derivative_check,
    parse_form,
    parse_poly,
    sample_residual,
)
from poissonlift.errors import DimensionMismatchError, MissingAssignmentError
from poissonlift.oracle import DEFAULT_BOX, GRID_RESOLUTION
from poissonlift.report import make_report

from conftest import count_calls, rand_poly


class TestFiniteDifferences:
    def test_quadratic_is_exact(self):
        f = parse_poly("q^2", ("q",))
        assert fd_derivative_check(f, ("q",), (1,), 1, Fraction(1, 10**6)) <= 1e-6

    def test_affine_exact_at_any_step(self):
        f = parse_poly("3*q - 7", ("q",))
        for h in (Fraction(1, 10), Fraction(1, 10**6)):
            assert fd_derivative_check(f, ("q",), (5,), 1, h) == 0.0

    def test_cubic_taylor_remainder(self):
        # (f(1+h) - f(1-h))/2h - 3 = h^2 exactly for f = q^3
        f = parse_poly("q^3", ("q",))
        err = fd_derivative_check(f, ("q",), (1,), 1, Fraction(1, 1000))
        assert abs(err - 1e-6 / 3) < 1e-12  # guarded by |f'(1)| = 3

    def test_point_is_read_over_its_denominator(self):
        # q = 3/2 as 6/4: f'(3/2) = 27/4 and the error is h^2 / (27/4)
        f = parse_poly("q^3", ("q",))
        err = fd_derivative_check(f, ("q",), (6,), 4, Fraction(1, 1000))
        assert err == float(Fraction(4, 27 * 10**6))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_derivative_check(parse_poly("q", ("q",)), ("q",), (0,), 1, Fraction(0))

    @pytest.mark.parametrize("point", [(), (1,), (1, 2, 3)])
    def test_point_needs_one_coordinate_per_variable(self, point):
        with pytest.raises(DimensionMismatchError):
            fd_derivative_check(parse_poly("q^3", ("q", "p")), ("q", "p"), point, 1)

    @pytest.mark.parametrize("text", ["3", "q^3", "p^3"])
    @pytest.mark.parametrize("point", [{"q": 1}, {"p": 1}, {"q": 1, "r": 1}])
    def test_point_must_cover_every_variable(self, text, point):
        # only the used variables are differentiated, but a point that leaves
        # a variable of f's universe unassigned is still refused
        with pytest.raises(MissingAssignmentError):
            fd_derivative_check(parse_poly(text, ("q", "p")), tuple(point), tuple(point.values()), 1)


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
def test_max_abs_agrees_with_substitution(box, seed):
    """Second route: the integer kernel against Fraction substitution at
    every point of the plan's Fraction view, value by value and as the
    maximum."""
    rng = random.Random(seed)
    coords = ("q", "p", "r")
    plan = SamplePlan(25, seed, _BOXES[box])
    denominator, numerators = plan.stream(len(coords))
    points = plan.points(len(coords))
    polys = [rand_poly(rng, coords, max_degree=4) for _ in range(6)]
    polys += [
        parse_poly("1/3*q^2*p - 5/7*r + 2", coords),  # Fraction coefficients
        parse_poly("-3", coords),  # constant
        parse_poly("-2/9", coords),
        parse_poly("0", coords),
        parse_poly("p^3 - 1/4*q*r", ("r", "q", "p")),  # another variable order
        parse_poly("1/2*r^2 - q", ("q", "r")),  # a sub-universe of the stream's
    ]
    for poly in polys:
        expected = [poly.substitute(dict(zip(coords, point))) for point in points]
        values, scale = poly.scaled_values(coords, numerators, denominator)
        assert all(type(v) is int for v in values) and type(scale) is int and scale > 0
        assert [Fraction(v, scale) for v in values] == expected
        assert poly.max_abs(coords, numerators, denominator) == max(map(abs, expected))


def test_max_abs_needs_every_variable():
    with pytest.raises(MissingAssignmentError):
        parse_poly("q*s", ("q", "s")).max_abs(("q", "p"), [(1, 2)], 4096)
    with pytest.raises(MissingAssignmentError):
        parse_poly("q*s", ("q", "s")).scaled_values(("q", "p"), [(1, 2)], 4096)


def test_scaled_values_without_points():
    assert parse_poly("q - 1/2", ("q",)).scaled_values(("q",), [], 6) == ([], 12)
    assert parse_poly("0", ("q",)).scaled_values(("q",), iter([(1,), (2,)]), 6) == ([0, 0], 1)
    assert parse_poly("q", ("q",)).max_abs(("q",), [], 6) == 0


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
