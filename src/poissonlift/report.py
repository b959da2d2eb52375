"""Check reports: exact verdicts with named residuals, plus a line-oriented
serialization that is stable and diff-friendly.

A report's verdict is ``pass`` exactly when every residual tensor computed by
the check is identically zero; only the nonzero residuals are retained (as
canonical printed text).  ``informative`` marks outputs that are not
pass/fail claims (component listings, rank-deficient sample diagnostics).

Serialized form, one record per report, ``schema: 1`` once at the top:

    check: <id>
    identity: <statement being verified>
    verdict: pass|fail|informative
    residual: <name> := <canonical text>     (zero or more)
    sample: <name> := <float>                (zero or more)
    end
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .oracle import SamplePlan, sample_residual

SCHEMA_VERSION = 1

_VERDICTS = ("pass", "fail", "informative")


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    identity: str
    verdict: str
    residuals: tuple[tuple[str, str], ...] = ()
    samples: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"verdict must be one of {_VERDICTS}")
        for name, text in self.residuals:
            if "\n" in name or "\n" in text:
                raise ValueError("residual entries must be single-line")

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


class Statement(NamedTuple):
    """The check id and the identity of one check."""

    check_id: str
    identity: str


def _is_zero(value) -> bool:
    if isinstance(value, (int, Fraction)):
        return value == 0
    return value.is_zero()


def _text(value) -> str:
    if isinstance(value, (int, Fraction)):
        return str(value)
    return value.to_string()


def make_report(check_id: str, identity: str, residuals, samples=(),
                informative: bool = False, plan: SamplePlan | None = None) -> CheckReport:
    """Build a report from named residual values.

    ``residuals`` maps names to polynomials, tensors or rationals.  Nonzero
    values are kept in printed form; the verdict is ``pass`` iff none remain
    (or ``informative`` when requested, in which case every value is listed).
    With a ``plan``, the samples are every residual's largest absolute value
    over the plan's points, each point stream drawn once per report.
    """
    if plan is not None:
        streams: dict = {}
        samples = [(name, sample_residual(res, plan, streams)) for name, res in residuals.items()]
    entries = []
    for name in residuals:
        value = residuals[name]
        if informative or not _is_zero(value):
            entries.append((name, _text(value)))
    if informative:
        verdict = "informative"
    else:
        verdict = "pass" if not entries else "fail"
    return CheckReport(
        check_id=check_id,
        identity=identity,
        verdict=verdict,
        residuals=tuple(entries),
        samples=tuple(samples),
    )


def emit_reports(reports) -> str:
    lines = [f"schema: {SCHEMA_VERSION}"]
    for rep in reports:
        lines.append(f"check: {rep.check_id}")
        lines.append(f"identity: {rep.identity}")
        lines.append(f"verdict: {rep.verdict}")
        for name, text in rep.residuals:
            lines.append(f"residual: {name} := {text}")
        for name, value in rep.samples:
            lines.append(f"sample: {name} := {value!r}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def parse_reports(text: str) -> list[CheckReport]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != f"schema: {SCHEMA_VERSION}":
        raise ValueError("missing or unsupported schema header")
    reports = []
    current: dict | None = None
    for ln in lines[1:]:
        key, _, value = ln.partition(": ")
        if ln == "end":
            if current is None:
                raise ValueError("stray 'end'")
            reports.append(
                CheckReport(
                    check_id=current["check"],
                    identity=current["identity"],
                    verdict=current["verdict"],
                    residuals=tuple(current["residuals"]),
                    samples=tuple(current["samples"]),
                )
            )
            current = None
            continue
        if key == "check":
            if current is not None:
                raise ValueError("record not terminated by 'end'")
            current = {"check": value, "identity": "", "verdict": "fail",
                       "residuals": [], "samples": []}
            continue
        if current is None:
            raise ValueError(f"unexpected line outside record: {ln!r}")
        if key == "identity":
            current["identity"] = value
        elif key == "verdict":
            current["verdict"] = value
        elif key == "residual":
            name, _, text_value = value.partition(" := ")
            current["residuals"].append((name, text_value))
        elif key == "sample":
            name, _, num = value.partition(" := ")
            current["samples"].append((name, float(num)))
        else:
            raise ValueError(f"unknown record line: {ln!r}")
    if current is not None:
        raise ValueError("unterminated record")
    return reports
