"""Report construction and line-oriented serialization."""

from __future__ import annotations

from fractions import Fraction

import pytest

from poissonlift import (
    CheckReport,
    Chart,
    SamplePlan,
    emit_reports,
    make_report,
    parse_form,
    parse_reports,
)


@pytest.fixture
def chart():
    return Chart("M", ("q", "p"))


def test_pass_when_all_residuals_zero(chart):
    report = make_report("demo", "a = a", {"r1": chart.zero_poly(), "r2": Fraction(0)})
    assert report.verdict == "pass"
    assert report.residuals == ()


def test_fail_keeps_only_nonzero(chart):
    report = make_report(
        "demo",
        "a = b",
        {"ok": chart.zero_poly(), "bad": parse_form("q*dq", chart)},
    )
    assert report.verdict == "fail"
    assert report.residuals == (("bad", "(q)*dq"),)


def test_informative_lists_everything(chart):
    report = make_report("listing", "components", {"a": chart.coord_poly("q")}, informative=True)
    assert report.verdict == "informative"
    assert report.residuals == (("a", "q"),)


def test_exact_rationals_serialized_as_fractions(chart):
    report = make_report("demo", "x", {"c": Fraction(-3, 7)})
    assert report.residuals == (("c", "-3/7"),)


def test_roundtrip(chart):
    reports = [
        make_report("first", "lhs = rhs", {"r": chart.zero_poly()}, plan=SamplePlan(5, 1)),
        make_report("second", "other", {"bad": parse_form("dq^dp", chart)}),
        make_report("third", "components", {"pi[q,p]": chart.coord_poly("p")}, informative=True),
    ]
    text = emit_reports(reports)
    assert parse_reports(text) == reports


def test_roundtrip_preserves_floats():
    report = CheckReport("x", "y", "pass", (), (("err", 1.2345678901234e-07),))
    assert parse_reports(emit_reports([report])) == [report]


def test_rejects_bad_schema():
    with pytest.raises(ValueError):
        parse_reports("schema: 999\n")


def test_rejects_multiline_entries():
    with pytest.raises(ValueError):
        CheckReport("x", "y", "fail", (("name", "two\nlines"),))


def test_rejects_unknown_verdict():
    with pytest.raises(ValueError):
        CheckReport("x", "y", "maybe")
