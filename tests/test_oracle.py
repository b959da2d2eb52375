"""Float cross-validation pipeline."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from poissonlift import (
    Chart,
    Multivector,
    SamplePlan,
    eval_tensor,
    fd_derivative_check,
    parse_form,
    parse_multivector,
    parse_poly,
    sample_residual,
)
from poissonlift.errors import MissingAssignmentError
from poissonlift.report import make_report

from conftest import rand_poly


class TestEvalTensor:
    def test_constant_area_form(self, chart_qp):
        values = eval_tensor(parse_form("dq^dp", chart_qp), {"q": 3, "p": -1})
        assert values == {(0, 1): 1.0}

    def test_linear_field(self, chart_qp):
        values = eval_tensor(parse_multivector("q*e_p", chart_qp), {"q": 2, "p": 0})
        assert values == {(1,): 2.0}

    def test_zero_tensor(self, chart_qp):
        assert eval_tensor(Multivector.zero(chart_qp, 2), {"q": 1, "p": 1}) == {}

    def test_missing_coordinate(self, chart_qp):
        with pytest.raises(MissingAssignmentError):
            eval_tensor(parse_form("dq", chart_qp), (1,))


class TestFiniteDifferences:
    def test_quadratic_is_exact(self):
        f = parse_poly("q^2", ("q",))
        assert fd_derivative_check(f, {"q": 1}, Fraction(1, 10**6)) <= 1e-6

    def test_affine_exact_at_any_step(self):
        f = parse_poly("3*q - 7", ("q",))
        for h in (Fraction(1, 10), Fraction(1, 10**6)):
            assert fd_derivative_check(f, {"q": 5}, h) == 0.0

    def test_cubic_taylor_remainder(self):
        # (f(1+h) - f(1-h))/2h - 3 = h^2 exactly for f = q^3
        f = parse_poly("q^3", ("q",))
        err = fd_derivative_check(f, {"q": 1}, Fraction(1, 1000))
        assert abs(err - 1e-6 / 3) < 1e-12  # guarded by |f'(1)| = 3

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_derivative_check(parse_poly("q", ("q",)), {"q": 0}, Fraction(0))


class TestSampleResidual:
    def test_zero_polynomial(self):
        plan = SamplePlan.uniform(count=50, seed=1)
        assert sample_residual(parse_poly("0", ("q",)), plan) == 0.0

    def test_exact_cancellation(self):
        plan = SamplePlan.uniform(count=50, seed=2)
        f = parse_poly("q", ("q", "p")) - parse_poly("q", ("q", "p"))
        assert sample_residual(f, plan) == 0.0

    def test_square_bounded_by_box(self):
        plan = SamplePlan.uniform(count=100, seed=3, lo=-1, hi=1)
        value = sample_residual(parse_poly("q^2", ("q",)), plan)
        assert 0.0 < value <= 1.0

    def test_tensor_components(self, chart_qp):
        plan = SamplePlan.uniform(count=20, seed=4)
        value = sample_residual(parse_form("q*dq", chart_qp), plan)
        assert 0.0 < value <= 2.0

    def test_reproducible(self):
        f = parse_poly("q^3 - 1/2*q", ("q",))
        a = sample_residual(f, SamplePlan.uniform(count=100, seed=99))
        b = sample_residual(f, SamplePlan.uniform(count=100, seed=99))
        assert a == b
        c = sample_residual(f, SamplePlan.uniform(count=100, seed=100))
        assert a != c  # different stream almost surely attains a different max

    def test_point_stream_deterministic(self):
        plan = SamplePlan.uniform(count=10, seed=5)
        assert plan.points(3) == plan.points(3)
        assert all(
            Fraction(-2) <= x <= Fraction(2) for point in plan.points(3) for x in point
        )


def test_symbolic_zero_always_samples_zero(chart_qp):
    rng = random.Random(41)
    plan = SamplePlan.uniform(count=30, seed=6)
    for _ in range(20):
        f = rand_poly(rng, chart_qp.coords, max_degree=3)
        assert sample_residual(f - f, plan) == 0.0


def _count_points(monkeypatch) -> list[int]:
    calls = []
    original = SamplePlan.points

    def counted(self, nvars):
        calls.append(nvars)
        return original(self, nvars)

    monkeypatch.setattr(SamplePlan, "points", counted)
    return calls


def test_exact_zero_residuals_draw_no_points(monkeypatch, chart_qp):
    calls = _count_points(monkeypatch)
    plan = SamplePlan.uniform(count=30, seed=8)
    assert sample_residual(parse_poly("q - q", chart_qp.coords), plan) == 0.0
    assert sample_residual(Multivector.zero(chart_qp, 2), plan) == 0.0
    report = make_report("zero", "0 = 0", {"r": parse_poly("0", ("q",))}, plan=plan)
    assert report.samples == (("r", 0.0),)
    assert calls == []


def test_one_report_draws_each_stream_once(monkeypatch, chart_qp):
    plan = SamplePlan.uniform(count=30, seed=9)
    residuals = {
        "a": parse_poly("q^2 - p", chart_qp.coords),
        "b": parse_form("p*dq + dp", chart_qp),
        "c": parse_poly("0", chart_qp.coords),
        "d": parse_poly("r^3", ("q", "p", "r")),
    }
    expected = [(name, sample_residual(res, plan)) for name, res in residuals.items()]
    calls = _count_points(monkeypatch)
    report = make_report("shared", "streams", residuals, plan=plan)
    assert sorted(calls) == [2, 3]
    assert list(report.samples) == expected


def test_invalid_plans_rejected():
    with pytest.raises(ValueError):
        SamplePlan.uniform(count=0)
    with pytest.raises(ValueError):
        SamplePlan(10, 1, ((Fraction(2), Fraction(-2)),))
