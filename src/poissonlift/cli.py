"""Command-line front end.

    poissonlift <command> <problem> [--report PATH] [--seed N] [--samples N]
                [--box=LO,HI] [--fd-step RAT] [--quiet]

``<problem>`` is a path to a problem file or the name of a built-in catalog
entry.  Exit codes: 0 when every non-informative check passes, 1 when any
check fails, 2 on parse or validation errors (including a non-positive
sample count or ``--fd-step`` and an empty ``--box``) and when the problem
file cannot be read or the ``--report`` file cannot be written.  The box
is written ``--box=LO,HI``: ``--box -1,1`` reads ``-1,1`` as an option.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .chart import DifferentialForm, exterior_derivative
from .errors import ParseError, UnknownCatalogError
from .oracle import FD_TOLERANCE, SamplePlan, fd_derivative_check
from .problemfile import ProblemFile, catalog, catalog_names, oracle_value, parse_problem
from .reduction import (
    TANGENT_GENERATOR_AGREEMENT,
    Resolved,
    bracket_closure_check,
    certify_pgmap,
    characteristic_identity_check,
    comomentum_components,
    cotangent_momentum_relation,
    hamiltonian_pgmap,
    level_set_tangency_check,
    symplectic_pgmap,
    tangent_generator_check,
)
from .report import CheckReport, Statement, emit_reports, make_report
from .tangent import (
    TANGENT_LIFT_IDENTITY,
    d_T,
    one_form_lift_residuals,
    verify_tangent_lift_identity,
)


# -- individual commands --------------------------------------------------------
#
# Every command takes the problem, the problem's one Resolved value and the
# sampling plan.


def _cmd_check_poisson(problem: ProblemFile, r: Resolved, plan: SamplePlan) -> list[CheckReport]:
    reports = []
    if problem.symplectic is not None:
        omega = problem.symplectic
        reports.append(
            make_report(
                "symplectic-closed",
                "d(omega) = 0",
                {"d(omega)": exterior_derivative(omega.two_form)},
            )
        )
    pi = r.pi
    chart = pi.chart
    residuals = {
        f"[pi,pi][{','.join(chart.coords[i] for i in idx)}]": poly
        for idx, poly in pi.jacobiator.components.items()
    } or {"[pi,pi]": pi.jacobiator}
    reports.append(
        make_report("poisson-jacobi", "[pi, pi] = 0 (Schouten bracket)", residuals, plan=plan)
    )
    return reports


TANGENT_LIFT_COMPONENTS = Statement(
    "tangent-lift-components",
    "fiberwise-linear lift of pi to the tangent chart",
)


def _cmd_lift(problem: ProblemFile, r: Resolved, plan: SamplePlan) -> list[CheckReport]:
    refusal = r.require_poisson(TANGENT_LIFT_COMPONENTS)
    if refusal:
        return [refusal]
    lifted = r.pi_tm
    chart = lifted.chart
    entries = {
        f"pi_TM[{','.join(chart.coords[i] for i in idx)}]": poly
        for idx, poly in lifted.bivector.components.items()
    }
    return [make_report(*TANGENT_LIFT_COMPONENTS, entries, informative=True)]


def _cmd_verify_lift(problem: ProblemFile, r: Resolved, plan: SamplePlan) -> list[CheckReport]:
    return [r.require_poisson(TANGENT_LIFT_IDENTITY)
            or verify_tangent_lift_identity(r.pi, r.pi_tm, plan=plan)]


def _cmd_verify_lemma(problem: ProblemFile, r: Resolved, plan: SamplePlan) -> list[CheckReport]:
    """alpha . T(theta) = d_T(theta), proved for every 1-form theta on the chart.

    Both sides have the base blocks (q, v), and their fiber blocks are
    Q-linear, first-order operators in theta, so the residual is
    sum_j A_j(q,v) theta_j + sum_jk B_jk(q,v) d_k theta_j.  A zero residual
    on dx_j gives A_j = 0, and one on x_k dx_j then gives B_jk = 0.  So the
    n + n^2 affine forms decide the lemma, and neither seed nor count is
    read.  ``test_criterion_2_one_form_prolongation`` keeps seeded random
    forms as a guard against an implementation that is not first-order."""
    chart, tc = problem.chart, r.tc
    coefficients = {"": chart.constant_poly(1)}
    coefficients.update({f"{ck}*": chart.coord_poly(ck) for ck in chart.coords})
    # each coefficient is a nonzero polynomial over exactly chart.coords
    residuals = {
        f"{label}d{cj}:{name}": poly
        for j, cj in enumerate(chart.coords)
        for label, coefficient in coefficients.items()
        for name, poly in one_form_lift_residuals(
            tc, DifferentialForm._make(chart, 1, {(j,): coefficient})).items()
    }
    return [
        make_report(
            "tangent-prolongation-random",
            "alpha . T(theta) = d_T(theta) for every 1-form theta, proved on dx_j and x_k*dx_j",
            residuals,
        )
    ]


def _cmd_certify(problem: ProblemFile, r: Resolved, plan: SamplePlan) -> list[CheckReport]:
    return [*problem.pgmap.bialgebra.structure_checks, certify_pgmap(r, plan=plan)]


def _cmd_bracket_closure(problem: ProblemFile, r: Resolved, plan: SamplePlan) -> list[CheckReport]:
    return [bracket_closure_check(r, plan=plan)]


def _cmd_tangent_generator(problem: ProblemFile, r: Resolved, plan: SamplePlan) -> list[CheckReport]:
    refusal = r.require(TANGENT_GENERATOR_AGREEMENT)
    if refusal:
        return [refusal]
    fields = {}
    for name, (lifted, direct) in zip(problem.pgmap.bialgebra.basis, r.generators):
        fields[f"via-lift-formula[{name}]"] = lifted
        fields[f"via-complete-lift[{name}]"] = direct
    listing = make_report(
        "tangent-generator-fields",
        "lifted generators by both defining formulas",
        fields,
        informative=True,
    )
    return [listing, tangent_generator_check(r, plan=plan)]


def _cmd_characteristic(problem: ProblemFile, r: Resolved, plan: SamplePlan) -> list[CheckReport]:
    return [characteristic_identity_check(r, plan=plan)]


def _cmd_hamiltonian(problem: ProblemFile, r: Resolved, plan: SamplePlan) -> list[CheckReport]:
    momentum = problem.momentum
    chart = momentum.source
    bialgebra = problem.bialgebra
    tc = r.tc
    pg_exact = hamiltonian_pgmap(momentum, bialgebra)
    via_pg = comomentum_components(pg_exact, tc)
    residuals = {}
    for i, j_comp in enumerate(momentum.components):
        direct = d_T(tc, DifferentialForm.from_poly(chart, j_comp)).as_poly()
        residuals[f"dT-vs-pipeline[{bialgebra.basis[i]}]"] = direct - via_pg[i]
    if problem.pgmap is not None:
        for i in range(len(momentum.components)):
            residuals[f"exactness[{bialgebra.basis[i]}]"] = (
                problem.pgmap.images[i] - pg_exact.images[i]
            )
    reports = [
        make_report(
            "hamiltonian-comomentum",
            "c_i = d_T(J_i) agrees with the exact-image pipeline i_T(dJ_i)",
            residuals,
        )
    ]
    if problem.levelset is not None:
        denominator, points = plan.stream(problem.levelset.source.dim)
        reports.append(level_set_tangency_check(momentum, problem.levelset, points, denominator))
    return reports


def _cmd_symplectic(problem: ProblemFile, r: Resolved, plan: SamplePlan) -> list[CheckReport]:
    pg, closed_report = symplectic_pgmap(problem.symplectic, problem.action, problem.bialgebra)
    if pg is None:
        return [closed_report]
    relation = cotangent_momentum_relation(r.tc, problem.symplectic, problem.action, pg, plan=plan)
    return [closed_report, relation]


def _oracle_fd(problem: ProblemFile, plan: SamplePlan, fd_step: Fraction) -> list[CheckReport]:
    """Central differences against the symbolic partials of the polynomials
    the lifts differentiate: the components of pi and, when present, of the
    pgmap images and the momentum map, one plan point per polynomial (cycling
    through the plan's points when there are more polynomials)."""
    chart = problem.chart
    polys = list(problem.poisson.bivector.components.values())
    if problem.pgmap is not None:
        polys += [poly for image in problem.pgmap.images for poly in image.components.values()]
    if problem.momentum is not None:
        polys += problem.momentum.components
    denominator, points = plan.stream(chart.dim, limit=len(polys))
    worst = 0.0
    for index, f in enumerate(polys):
        point = points[index % len(points)]
        worst = max(worst, fd_derivative_check(f, chart.coords, point, denominator, fd_step))
    residuals = {}
    if worst > FD_TOLERANCE:
        residuals["max-relative-error"] = Fraction(worst).limit_denominator(10**12)
    report = make_report(
        "oracle-fd",
        f"central differences match symbolic partials within {FD_TOLERANCE}",
        residuals,
        samples=(("max-relative-error", worst),),
    )
    return [report]


# The command table: command -> (handler, problem blocks it needs).  A
# command on a problem without one of its blocks is a ParseError; ``all``
# runs, in table order, every command whose blocks the problem has, and then
# the finite-difference oracle.
_TABLE = {
    "check-poisson": (_cmd_check_poisson, ()),
    "lift": (_cmd_lift, ()),
    "verify-lift": (_cmd_verify_lift, ()),
    "verify-lemma": (_cmd_verify_lemma, ()),
    "certify-pgmap": (_cmd_certify, ("pgmap",)),
    "bracket-closure": (_cmd_bracket_closure, ("pgmap",)),
    "tangent-generator": (_cmd_tangent_generator, ("pgmap",)),
    "characteristic-identity": (_cmd_characteristic, ("pgmap",)),
    "hamiltonian": (_cmd_hamiltonian, ("momentum",)),
    "symplectic": (_cmd_symplectic, ("symplectic", "action")),
}

COMMANDS = (*_TABLE, "all")


def _missing_blocks(problem: ProblemFile, command: str) -> list[str]:
    return [block for block in _TABLE[command][1] if getattr(problem, block) is None]


def run_checks(problem: ProblemFile, command: str, plan: SamplePlan | None = None,
               fd_step: Fraction | None = None) -> list[CheckReport]:
    """Run one command (or 'all' applicable ones) against a problem.

    ``plan`` and ``fd_step`` default to the problem's own, as on the command
    line.  The commands of one call share one Resolved value, so pi, pi_TM
    and the pgmap certification are each computed at most once per call."""
    if command == "all":
        steps = [name for name in _TABLE if not _missing_blocks(problem, name)]
    elif command in _TABLE:
        missing = _missing_blocks(problem, command)
        if missing:
            raise ParseError(f"problem {problem.name!r} has no {missing[0]} block")
        steps = [command]
    else:
        raise ParseError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    plan = problem.plan if plan is None else plan
    fd_step = problem.fd_step if fd_step is None else fd_step
    r = Resolved(problem.poisson, problem.pgmap)
    reports = [rep for step in steps for rep in _TABLE[step][0](problem, r, plan)]
    if command == "all":
        reports += _oracle_fd(problem, plan, fd_step)
    return reports


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
_PARSER.add_argument("command", choices=COMMANDS)
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
