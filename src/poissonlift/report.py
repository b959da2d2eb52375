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

from fractions import Fraction

from ._value import _Value
from .oracle import SamplePlan, sample_residual
from .poly import rational_text

SCHEMA_VERSION = 1

_VERDICTS = ("pass", "fail", "informative")


class CheckReport(_Value, hashable=True):
    _fields = ("check_id", "identity", "verdict", "residuals", "samples")

    def __init__(self, check_id: str, identity: str, verdict: str,
                 residuals: tuple[tuple[str, str], ...] = (),
                 samples: tuple[tuple[str, float], ...] = ()):
        if verdict not in _VERDICTS:
            raise ValueError(f"verdict must be one of {_VERDICTS}")
        for name, text in residuals:
            if "\n" in name or "\n" in text:
                raise ValueError("residual entries must be single-line")
        self.check_id = check_id
        self.identity = identity
        self.verdict = verdict
        self.residuals = residuals
        self.samples = samples


def _is_zero(value) -> bool:
    if isinstance(value, (int, Fraction)):
        return value == 0
    return value.is_zero()


def _text(value) -> str:
    if isinstance(value, (int, Fraction)):
        return rational_text(value)
    return value.to_string()


def make_report(check_id: str, identity: str, residuals,
                informative: bool = False, plan: SamplePlan | None = None) -> CheckReport:
    """Build a report from named residual values.

    ``residuals`` maps names to polynomials, tensors or rationals, or to
    text: a note, such as a rank-deficient sample, kept as written after
    the residuals.  Nonzero values are kept in printed form; the verdict is
    ``fail`` when any remains, else ``informative`` when there is a note,
    else ``pass``.  With ``informative`` every value is listed and the
    verdict is ``informative``.  With a ``plan``, the samples are every
    residual's largest absolute value over the plan's points, each point
    stream drawn once per report.
    """
    samples = []
    if plan is not None:
        streams: dict = {}
        samples = [(name, sample_residual(res, plan, streams)) for name, res in residuals.items()]
    entries = []
    notes = []
    for name in residuals:
        value = residuals[name]
        if type(value) is str:
            notes.append((name, value))
        elif informative or not _is_zero(value):
            entries.append((name, _text(value)))
    if informative or notes and not entries:
        verdict = "informative"
    else:
        verdict = "pass" if not entries else "fail"
    return CheckReport(
        check_id=check_id,
        identity=identity,
        verdict=verdict,
        residuals=tuple(entries + notes),
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
