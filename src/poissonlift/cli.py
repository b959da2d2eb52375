"""Command-line front end.

    poissonlift <command> <problem> [--report PATH] [--seed N] [--samples N]
                [--box LO,HI] [--fd-step RAT] [--quiet]

``<problem>`` is a path to a problem file or the name of a built-in catalog
entry.  Exit codes: 0 when every non-informative check passes, 1 when any
check fails, 2 on parse or validation errors (including a non-positive
sample count or ``--fd-step`` and an empty ``--box``).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction

from .bialgebra import abelian_bialgebra
from .chart import Chart, DifferentialForm, exterior_derivative
from .errors import NotSymplecticActionError, ParseError, UnknownCatalogError, UnverifiedInputError
from .oracle import DEFAULT_FD_STEP, FD_TOLERANCE, SamplePlan, fd_derivative_check
from .poly import Polynomial
from .problemfile import ProblemFile, catalog, catalog_names, parse_problem
from .reduction import (
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
from .report import CheckReport, emit_reports, make_report
from .tangent import d_T, one_form_lift_residuals, tangent_chart, verify_tangent_lift_identity

COMMANDS = (
    "check-poisson",
    "lift",
    "verify-lift",
    "verify-lemma",
    "certify-pgmap",
    "bracket-closure",
    "tangent-generator",
    "characteristic-identity",
    "hamiltonian",
    "symplectic",
    "all",
)


def _random_poly(rng: random.Random, chart: Chart, max_degree: int = 3) -> Polynomial:
    poly = chart.zero_poly()
    for _ in range(rng.randint(1, 4)):
        exps = [0] * chart.dim
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(chart.dim)] += 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        poly = poly + Polynomial(chart.coords, {tuple(exps): coeff})
    return poly


def _random_one_form(rng: random.Random, chart: Chart, max_degree: int = 3) -> DifferentialForm:
    comps = {(i,): _random_poly(rng, chart, max_degree) for i in range(chart.dim)}
    return DifferentialForm(chart, 1, comps)


# -- individual commands --------------------------------------------------------
#
# Every command takes the problem, a function returning the problem's one
# Resolved value (built on first call) and the sampling plan.


def _cmd_check_poisson(problem: ProblemFile, resolve, plan: SamplePlan | None) -> list[CheckReport]:
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
    pi = resolve().pi
    chart = pi.chart
    residuals = {
        f"[pi,pi][{','.join(chart.coords[i] for i in idx)}]": poly
        for idx, poly in pi.jacobiator.components.items()
    } or {"[pi,pi]": pi.jacobiator}
    reports.append(
        make_report("poisson-jacobi", "[pi, pi] = 0 (Schouten bracket)", residuals, plan=plan)
    )
    return reports


def _cmd_lift(problem: ProblemFile, resolve, plan: SamplePlan | None) -> list[CheckReport]:
    lifted = resolve().pi_tm
    chart = lifted.chart
    entries = {
        f"pi_TM[{','.join(chart.coords[i] for i in idx)}]": poly
        for idx, poly in lifted.bivector.components.items()
    }
    return [
        make_report(
            "tangent-lift-components",
            "fiberwise-linear lift of pi to the tangent chart",
            entries,
            informative=True,
        )
    ]


def _cmd_verify_lift(problem: ProblemFile, resolve, plan: SamplePlan | None) -> list[CheckReport]:
    r = resolve()
    return [verify_tangent_lift_identity(r.pi, r.pi_tm, plan=plan)]


def _cmd_verify_lemma(problem: ProblemFile, resolve, plan: SamplePlan | None) -> list[CheckReport]:
    chart = problem.chart
    plan = plan or SamplePlan.uniform()
    rng = random.Random(plan.seed)
    count = min(plan.count, 100)
    residuals = {}
    for index in range(count):
        theta = _random_one_form(rng, chart)
        for name, poly in one_form_lift_residuals(theta).items():
            if not poly.is_zero():
                residuals[f"form{index}:{name}"] = poly
    if not residuals:
        residuals = {"all-forms": Polynomial.zero(chart.coords)}
    return [
        make_report(
            "tangent-prolongation-random",
            f"alpha . T(theta) = d_T(theta) on {count} seeded random 1-forms",
            residuals,
        )
    ]


def _require_pgmap(problem: ProblemFile):
    if problem.pgmap is None:
        raise ParseError(f"problem {problem.name!r} has no pgmap block")
    return problem.pgmap


def _guarded(check_id: str, identity: str, thunk) -> list[CheckReport]:
    try:
        result = thunk()
    except UnverifiedInputError as exc:
        return [
            CheckReport(
                check_id=check_id,
                identity=identity,
                verdict="fail",
                residuals=(("unverified-input", str(exc)),),
            )
        ]
    return result if isinstance(result, list) else [result]


def _cmd_certify(problem: ProblemFile, resolve, plan: SamplePlan | None) -> list[CheckReport]:
    b = _require_pgmap(problem).bialgebra
    return list(b.structure_checks) + _guarded(
        "pgmap-certification",
        "phi_[x,y] = [phi_x, phi_y]_pi and d(phi_i) = sum gamma^(jk)_i phi_j^phi_k",
        lambda: certify_pgmap(resolve(), plan=plan),
    )


def _cmd_bracket_closure(problem: ProblemFile, resolve, plan: SamplePlan | None) -> list[CheckReport]:
    _require_pgmap(problem)
    return _guarded(
        "bracket-closure",
        "{c_i, c_j}_TM = c_[e_i, e_j] for the fiber-linear momentum components",
        lambda: bracket_closure_check(resolve(), plan=plan),
    )


def _cmd_tangent_generator(problem: ProblemFile, resolve, plan: SamplePlan | None) -> list[CheckReport]:
    basis = _require_pgmap(problem).bialgebra.basis

    def build():
        r = resolve()
        check = tangent_generator_check(r, plan=plan)
        fields = {}
        for name, (lifted, direct) in zip(basis, r.generators):
            fields[f"via-lift-formula[{name}]"] = lifted
            fields[f"via-complete-lift[{name}]"] = direct
        listing = make_report(
            "tangent-generator-fields",
            "lifted generators by both defining formulas",
            fields,
            informative=True,
        )
        return [listing, check]

    return _guarded(
        "tangent-generator-agreement",
        "X_(i_T phi) + pi_TM#(i_T d phi) equals the complete lift of pi#(phi)",
        build,
    )


def _cmd_characteristic(problem: ProblemFile, resolve, plan: SamplePlan | None) -> list[CheckReport]:
    _require_pgmap(problem)
    return _guarded(
        "characteristic-identity",
        "i_T(d phi_i) = sum gamma^(jk)_i (c_j tau*phi_k - c_k tau*phi_j)",
        lambda: characteristic_identity_check(resolve(), plan=plan),
    )


def _cmd_hamiltonian(problem: ProblemFile, resolve, plan: SamplePlan | None) -> list[CheckReport]:
    if problem.momentum is None:
        raise ParseError(f"problem {problem.name!r} has no momentum block")
    momentum = problem.momentum
    chart = momentum.chart
    bialgebra = problem.bialgebra or abelian_bialgebra(
        tuple(f"e{i+1}" for i in range(len(momentum.components)))
    )
    tc = tangent_chart(chart)
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
        effective = plan or problem.plan or SamplePlan.uniform()
        samples = effective.points(problem.levelset.source.dim)
        reports.append(level_set_tangency_check(momentum, problem.levelset, samples))
    return reports


def _cmd_symplectic(problem: ProblemFile, resolve, plan: SamplePlan | None) -> list[CheckReport]:
    if problem.symplectic is None:
        raise ParseError(f"problem {problem.name!r} has no symplectic block")
    if problem.action is None:
        raise ParseError(f"problem {problem.name!r} has no action block")
    try:
        pg, closed_report = symplectic_pgmap(problem.symplectic, problem.action, problem.bialgebra)
    except NotSymplecticActionError as exc:
        return [
            CheckReport(
                check_id="symplectic-images-closed",
                identity="L_X(omega) = 0 implies d(i_X omega) = 0",
                verdict="fail",
                residuals=((f"L_X(omega)[{exc.index}]", exc.residual_text),),
            )
        ]
    relation = cotangent_momentum_relation(problem.symplectic, problem.action, pg, plan=plan)
    return [closed_report, relation]


def _cmd_oracle_fd(problem: ProblemFile, plan: SamplePlan | None, fd_step: Fraction) -> list[CheckReport]:
    chart = problem.chart
    plan = plan or problem.plan or SamplePlan.uniform()
    rng = random.Random(plan.seed)
    worst = 0.0
    count = min(plan.count, 100)
    points = plan.points(chart.dim)
    for index in range(count):
        f = _random_poly(rng, chart, max_degree=4)
        point = dict(zip(chart.coords, points[index % len(points)]))
        worst = max(worst, fd_derivative_check(f, point, fd_step))
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


_DISPATCH = {
    "check-poisson": _cmd_check_poisson,
    "lift": _cmd_lift,
    "verify-lift": _cmd_verify_lift,
    "verify-lemma": _cmd_verify_lemma,
    "certify-pgmap": _cmd_certify,
    "bracket-closure": _cmd_bracket_closure,
    "tangent-generator": _cmd_tangent_generator,
    "characteristic-identity": _cmd_characteristic,
    "hamiltonian": _cmd_hamiltonian,
    "symplectic": _cmd_symplectic,
}


def run_checks(problem: ProblemFile, command: str, plan: SamplePlan | None = None,
               fd_step: Fraction = DEFAULT_FD_STEP) -> list[CheckReport]:
    """Run one command (or 'all' applicable ones) against a problem.

    The commands of one call share one Resolved value, so pi, pi_TM and the
    pgmap certification are each computed at most once per call."""
    resolve = functools.cache(lambda: Resolved(problem.poisson_structure, problem.pgmap))
    if command == "all":
        steps = ["check-poisson", "lift", "verify-lift", "verify-lemma"]
        if problem.pgmap is not None:
            steps += ["certify-pgmap", "bracket-closure", "tangent-generator", "characteristic-identity"]
        if problem.momentum is not None:
            steps.append("hamiltonian")
        if problem.symplectic is not None and problem.action is not None:
            steps.append("symplectic")
        reports = [rep for step in steps for rep in _DISPATCH[step](problem, resolve, plan)]
        return reports + _cmd_oracle_fd(problem, plan, fd_step)
    if command not in _DISPATCH:
        raise ParseError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    return _DISPATCH[command](problem, resolve, plan)


# -- entry point --------------------------------------------------------------------


def _load_problem(spec_arg: str) -> ProblemFile:
    import os

    if os.path.exists(spec_arg):
        with open(spec_arg, "r", encoding="utf-8") as handle:
            return parse_problem(handle.read(), name=spec_arg)
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="poissonlift",
        description="Exact checks for tangent lifts of Poisson structures and momentum maps.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("problem", help="problem file path or catalog entry name")
    parser.add_argument("--report", help="write a structured report file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--box", default=None, help="sampling interval LO,HI")
    parser.add_argument("--fd-step", default=None, help="finite-difference step (rational)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        problem = _load_problem(args.problem)
    except (ParseError, UnknownCatalogError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    plan = problem.plan or SamplePlan.uniform()
    seed = args.seed if args.seed is not None else plan.seed
    count = args.samples if args.samples is not None else plan.count
    box = plan.box
    if args.box is not None:
        try:
            lo_text, hi_text = args.box.split(",")
            box = ((Fraction(lo_text), Fraction(hi_text)),)
        except (ValueError, ZeroDivisionError):
            print(f"error: bad --box value {args.box!r}", file=sys.stderr)
            return 2
    try:
        plan = SamplePlan(count, seed, box)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fd_step = problem.fd_step
    if args.fd_step is not None:
        try:
            fd_step = Fraction(args.fd_step)
        except (ValueError, ZeroDivisionError):
            fd_step = None
        if fd_step is None or fd_step <= 0:
            print(f"error: bad --fd-step value {args.fd_step!r}", file=sys.stderr)
            return 2

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
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(emit_reports(reports))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
