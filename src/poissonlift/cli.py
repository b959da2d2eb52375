"""Command-line front end.

    poissonlift <command> <problem> [--report PATH] [--seed N] [--samples N]
                [--box=LO,HI] [--fd-step RAT] [--quiet]

``<problem>`` is a path to a problem file or the name of a built-in catalog
entry.  Exit codes: 0 when every non-informative check passes, 1 when any
check fails, 2 on parse or validation errors (including a non-positive
sample count or ``--fd-step`` and an empty ``--box``) and when the problem
file cannot be read or the ``--report`` file cannot be written.  The box
is written ``--box=LO,HI``: ``--box -1,1`` reads ``-1,1`` as an option.

The commands, the checks each one runs and the other names ``<command>``
takes (a check id runs that check alone) are the check registry's
(:mod:`poissonlift.checks`); this module reads the problem and the flags,
prints the reports and writes the report file.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checks import COMMANDS, NAMES, run_checks
from .errors import ParseError, UnknownCatalogError
from .oracle import SamplePlan
from .problemfile import ProblemFile, catalog, catalog_names, oracle_value, parse_problem
from .report import CheckReport, emit_reports


# -- entry point --------------------------------------------------------------------


def _load_problem(spec_arg: str) -> ProblemFile:
    """The problem file at ``spec_arg``, else the catalog entry of that name.

    A file is decoded as UTF-8 after a leading byte-order mark is dropped,
    which gives the text and the error (a ValueError) of the ``utf-8-sig``
    codec without importing it; the block scanner's ``str.splitlines``
    reads CR and CRLF line ends."""
    if os.path.exists(spec_arg):
        try:
            with open(spec_arg, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read problem {spec_arg}: {exc.strerror}") from exc
        return parse_problem(data.removeprefix(b"\xef\xbb\xbf").decode("utf-8"), name=spec_arg)
    if spec_arg in catalog_names():
        return catalog(spec_arg)
    raise UnknownCatalogError(spec_arg, catalog_names())


def _print_reports(reports: list[CheckReport], quiet: bool) -> None:
    for rep in reports:
        label = rep.verdict.upper()
        if quiet and rep.verdict != "fail":
            continue
        print(f"[{label:^11}] {rep.check_id}: {rep.identity}")
        word = "value" if rep.verdict == "informative" else "residual"
        for name, text in rep.residuals:
            print(f"    {word} {name} = {text}")
        for name, value in rep.samples:
            if value != 0.0:
                print(f"    sample {name} = {value!r}")


_PARSER = argparse.ArgumentParser(
    prog="poissonlift",
    description="Exact checks for tangent lifts of Poisson structures and momentum maps.",
)
_PARSER.add_argument("command", choices=NAMES, metavar="command",
                     help=f"one of {', '.join(COMMANDS)}; a check id runs that check alone")
_PARSER.add_argument("problem", help="problem file path or catalog entry name")
_PARSER.add_argument("--report", help="write a structured report file")
_PARSER.add_argument("--seed", default=None)
_PARSER.add_argument("--samples", default=None)
_PARSER.add_argument("--box", default=None, help="sampling interval, written --box=LO,HI")
_PARSER.add_argument("--fd-step", default=None, help="finite-difference step (rational)")
_PARSER.add_argument("--quiet", action="store_true")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        problem = _load_problem(args.problem)
        # the flags take the values the problem file's oracle keys take
        flags = {key: oracle_value(key, getattr(args, key), "--" + key.replace("_", "-"))
                 for key in ("samples", "seed", "box", "fd_step") if getattr(args, key) is not None}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan = SamplePlan(flags.get("samples", problem.plan.count), flags.get("seed", problem.plan.seed),
                      flags.get("box", problem.plan.box))
    fd_step = flags.get("fd_step", problem.fd_step)

    try:
        reports = run_checks(problem, args.command, plan=plan, fd_step=fd_step)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _print_reports(reports, args.quiet)
    failed = [rep for rep in reports if rep.verdict == "fail"]
    if not args.quiet or failed:
        print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(emit_reports(reports))
        except OSError as exc:
            print(f"error: cannot write report {args.report}: {exc.strerror}", file=sys.stderr)
            return 2
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
