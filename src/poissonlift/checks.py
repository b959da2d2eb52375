"""The check registry: every check in one ordered table, and the one runner
that reads it.

A row of ``CHECKS`` holds one check: its id, the identity it verifies, the
problem blocks it reads, its prerequisite and the function that computes
its residuals (or, for a listing, the values it lists).  A command is the
rows under its name.  It runs those of its rows whose blocks the problem
has, and a problem without a block that all of its rows read is a
ParseError.  ``all`` runs every row whose blocks the problem has, in table
order, so it ends with the forward-derivative oracle ``oracle-fd``, the
last row.  Every row that runs gives exactly one report.

A prerequisite is ``""`` (none), ``"pi"`` (a Jacobi-verified pi),
``"bialgebra"`` (that and a verified bialgebra), ``"map"`` (both and a
certified map), as ``Resolved.require`` reads it, or ``"action"`` (an
action that preserves omega), which ``_Run.require`` reads.  ``_report``
applies it before anything else of the row runs: when it fails, the report
is a ``fail`` whose one ``unverified-input`` residual names the first input
that does not hold.

The rows of one call share one ``_Run``, the call's ``Resolved`` value, so
pi, pi_TM and the pgmap certification are each computed at most once per
call.  The row functions call what they compute by its module-level name,
which the benchmark's tracer replaces.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

from .chart import DifferentialForm
from .errors import ParseError
from .oracle import SamplePlan, fd_derivative_check
from .problemfile import ProblemFile
from .reduction import (
    Resolved,
    bracket_closure_residuals,
    characteristic_identity_residuals,
    comomentum_components,
    cotangent_momentum_residuals,
    hamiltonian_pgmap,
    level_set_tangency_residuals,
    symplectic_pgmap,
    tangent_generator_residuals,
)
from .report import CheckReport, make_report
from .tangent import d_T, one_form_lift_residuals, tangent_lift_residuals


class _Run(Resolved):
    """The ``Resolved`` value of one call, with the problem, the sampling
    plan and the map of the problem's symplectic action."""

    def __init__(self, problem: ProblemFile, plan: SamplePlan):
        super().__init__(problem.poisson, problem.pgmap)
        self.problem = problem
        self.plan = plan

    @cached_property
    def symplectic(self) -> tuple:
        """``symplectic_pgmap``'s map and residuals for the action."""
        problem = self.problem
        return symplectic_pgmap(problem.symplectic, problem.action, problem.bialgebra)

    def require(self, needs: str) -> str | None:
        """``Resolved.require``, and for ``"action"`` the reason the action
        gives no map, if it does not preserve omega."""
        if needs == "action":
            return None if self.symplectic[0] is not None else "action does not preserve omega"
        return super().require(needs)


class Check(NamedTuple):
    """One row of the registry (see the module docstring)."""

    check_id: str
    identity: str
    blocks: tuple[str, ...]
    needs: str
    residuals: Callable[[_Run], dict]
    kind: str = "exact"  # "sampled": with the plan's samples; "listing": every value, informative


# -- residuals of the rows that have no function elsewhere ------------------------


def _jacobiator(run: _Run) -> dict:
    pi = run.pi
    coords = pi.chart.coords
    return {
        f"[pi,pi][{','.join(coords[i] for i in idx)}]": poly
        for idx, poly in pi.jacobiator.components.items()
    } or {"[pi,pi]": pi.jacobiator}


def _lift_components(run: _Run) -> dict:
    coords = run.pi_tm.chart.coords
    return {f"pi_TM[{','.join(coords[i] for i in idx)}]": poly
            for idx, poly in run.pi_tm.bivector.components.items()}


def _prolongation(run: _Run) -> dict:
    """alpha . T(theta) = d_T(theta), proved for every 1-form theta on the chart.

    Both sides have the base blocks (q, v), and their fiber blocks are
    Q-linear, first-order operators in theta, so the residual is
    sum_j A_j(q,v) theta_j + sum_jk B_jk(q,v) d_k theta_j.  A zero residual
    on dx_j gives A_j = 0, and one on x_k dx_j then gives B_jk = 0.  So the
    n + n^2 affine forms decide the lemma, and neither seed nor count is
    read.  They go to ``one_form_lift_residuals`` in one mapping, labelled
    ``d<cj>:`` and ``<ck>*d<cj>:``, whose n + 1 coefficients (1 and each
    x_k) are shared objects: each is pulled back, lifted and differentiated
    once, and every form still goes through the d_T kernel.
    ``test_criterion_2_one_form_prolongation`` keeps seeded random forms as
    a guard against an implementation that is not first-order."""
    chart = run.pi.chart
    coefficients = {"": chart.constant_poly(1)}
    coefficients.update({f"{ck}*": chart.coord_poly(ck) for ck in chart.coords})
    # each coefficient is a nonzero polynomial over exactly chart.coords
    return one_form_lift_residuals(run.tc, {
        f"{label}d{cj}:": DifferentialForm._make(chart, 1, {(j,): coefficient})
        for j, cj in enumerate(chart.coords)
        for label, coefficient in coefficients.items()})


def _generator_fields(run: _Run) -> dict:
    fields = {}
    for name, (lifted, direct) in zip(run.pg.bialgebra.basis, run.generators):
        fields[f"via-lift-formula[{name}]"] = lifted
        fields[f"via-complete-lift[{name}]"] = direct
    return fields


def _comomentum(run: _Run) -> dict:
    """d_T(J_i) against c_i of the exact-image map dJ_i and, with a pgmap
    block, the declared images against the dJ_i."""
    momentum, bialgebra, pgmap = run.problem.momentum, run.problem.bialgebra, run.problem.pgmap
    chart = momentum.source
    pg_exact = hamiltonian_pgmap(momentum, bialgebra)
    via_pg = comomentum_components(pg_exact, run.tc)
    residuals = {}
    for i, j_comp in enumerate(momentum.components):
        direct = d_T(run.tc, DifferentialForm.from_poly(chart, j_comp)).as_poly()
        residuals[f"dT-vs-pipeline[{bialgebra.basis[i]}]"] = direct - via_pg[i]
    if pgmap is not None:
        for i in range(len(momentum.components)):
            residuals[f"exactness[{bialgebra.basis[i]}]"] = pgmap.images[i] - pg_exact.images[i]
    return residuals


def _level_set(run: _Run) -> dict:
    levelset = run.problem.levelset
    denominator, points = run.plan.stream(levelset.source.dim)
    return level_set_tangency_residuals(run.problem.momentum, levelset, points, denominator)


def _cotangent(run: _Run) -> dict:
    return cotangent_momentum_residuals(run.tc, run.problem.symplectic, run.problem.action,
                                        run.symplectic[0])


def _forward_derivatives(run: _Run) -> dict:
    """Forward derivatives against the symbolic partials of the polynomials
    the lifts differentiate: the components of pi and, when present, of the
    pgmap images and the momentum map, one plan point per polynomial
    (cycling through the plan's points when there are more polynomials).
    The residual ``<polynomial>/d<v>`` is the exact difference at its point."""
    problem = run.problem
    coords = problem.chart.coords
    polys = {f"pi[{coords[i]},{coords[j]}]": poly
             for (i, j), poly in problem.poisson.bivector.components.items()}
    if problem.pgmap is not None:
        polys.update((f"pgmap[{name},{coords[j]}]", poly)
                     for name, image in zip(problem.pgmap.bialgebra.basis, problem.pgmap.images)
                     for (j,), poly in image.components.items())
    if problem.momentum is not None:
        polys.update((f"momentum[{name}]", poly)
                     for name, poly in zip(problem.momentum.target.coords, problem.momentum.components))
    denominator, points = run.plan.stream(len(coords), limit=len(polys))
    return fd_derivative_check(polys, coords, points, denominator)


# -- the table ----------------------------------------------------------------------

_PGMAP = ("pgmap",)
_ACTION = ("symplectic", "action")

CHECKS: dict[str, tuple[Check, ...]] = {
    "check-poisson": (
        Check("symplectic-closed", "d(omega) = 0", ("symplectic",), "",
              lambda run: {"d(omega)": run.problem.symplectic.d_omega}),
        Check("poisson-jacobi", "[pi, pi] = 0 (Schouten bracket)", (), "", _jacobiator, "sampled"),
    ),
    "lift": (
        Check("tangent-lift-components", "fiberwise-linear lift of pi to the tangent chart",
              (), "pi", _lift_components, "listing"),
    ),
    "verify-lift": (
        Check("tangent-lift-identity", "pi_TM# . alpha = kappa . T(pi#) on TT*M block coordinates",
              (), "pi", lambda run: tangent_lift_residuals(run.pi, run.pi_tm), "sampled"),
    ),
    "verify-lemma": (
        Check("tangent-prolongation-random",
              "alpha . T(theta) = d_T(theta) for every 1-form theta, proved on dx_j and x_k*dx_j",
              (), "", _prolongation),
    ),
    "certify-pgmap": (
        Check("bialgebra-jacobi", "cyclic sum of [[e_i, e_j], e_k] vanishes",
              _PGMAP, "", lambda run: run.pg.bialgebra.structure_residuals[0]),
        Check("bialgebra-cocycle", "delta([x, y]) = ad_x delta(y) - ad_y delta(x)",
              _PGMAP, "", lambda run: run.pg.bialgebra.structure_residuals[1]),
        Check("bialgebra-cojacobi", "dual bracket from cobracket rows satisfies Jacobi",
              _PGMAP, "", lambda run: run.pg.bialgebra.structure_residuals[2]),
        Check("pgmap-certification",
              "phi_[x,y] = [phi_x, phi_y]_pi and d(phi_i) = sum gamma^(jk)_i phi_j^phi_k",
              _PGMAP, "bialgebra", lambda run: run.certification, "sampled"),
    ),
    "bracket-closure": (
        Check("bracket-closure",
              "{c_i, c_j}_TM = c_[e_i, e_j] for the fiber-linear momentum components",
              _PGMAP, "map", lambda run: bracket_closure_residuals(run), "sampled"),
    ),
    "tangent-generator": (
        Check("tangent-generator-fields", "lifted generators by both defining formulas",
              _PGMAP, "map", _generator_fields, "listing"),
        Check("tangent-generator-agreement",
              "X_(i_T phi) + pi_TM#(i_T d phi) equals the complete lift of pi#(phi)",
              _PGMAP, "map", lambda run: tangent_generator_residuals(run), "sampled"),
    ),
    "characteristic-identity": (
        Check("characteristic-identity",
              "i_T(d phi_i) = sum gamma^(jk)_i (c_j tau*phi_k - c_k tau*phi_j)",
              _PGMAP, "map", lambda run: characteristic_identity_residuals(run), "sampled"),
    ),
    "hamiltonian": (
        Check("hamiltonian-comomentum",
              "c_i = d_T(J_i) agrees with the exact-image pipeline i_T(dJ_i)",
              ("momentum",), "", _comomentum),
        Check("level-set-tangency",
              "(d_T J)^-1(0) restricted over J^-1(0) equals the tangent of J^-1(0)",
              ("momentum", "levelset"), "", _level_set),
    ),
    "symplectic": (
        Check("symplectic-images-closed", "L_X(omega) = 0 implies d(i_X omega) = 0",
              _ACTION, "", lambda run: run.symplectic[1]),
        Check("cotangent-momentum-relation",
              "tangent and cotangent momenta agree through omega_flat: c = -(j . omega_flat)",
              _ACTION, "action", _cotangent, "sampled"),
    ),
    "oracle-fd": (
        Check("oracle-fd", "forward derivatives over dual numbers equal the symbolic partials",
              (), "", _forward_derivatives),
    ),
}

COMMANDS = (*CHECKS, "all")

# every runnable name -> its rows: the commands, "all" and each check id
# alone (a check id that is also a command name keeps the command's one row)
_ROWS: dict[str, tuple[Check, ...]] = {**CHECKS, "all": sum(CHECKS.values(), ())}
_ROWS.update((row.check_id, (row,)) for row in _ROWS["all"] if row.check_id not in _ROWS)
NAMES = tuple(_ROWS)


# -- the runner ---------------------------------------------------------------------


def _report(row: Check, run: _Run) -> CheckReport:
    """The row's report, after its prerequisite."""
    if row.needs and (reason := run.require(row.needs)):
        return CheckReport(row.check_id, row.identity, "fail", (("unverified-input", reason),))
    return make_report(row.check_id, row.identity, row.residuals(run), informative=row.kind == "listing",
                       plan=run.plan if row.kind == "sampled" else None)


def _missing(problem: ProblemFile, blocks: tuple[str, ...]) -> list[str]:
    return [block for block in blocks if getattr(problem, block) is None]


def run_checks(problem: ProblemFile, name: str, plan: SamplePlan | None = None) -> list[CheckReport]:
    """The reports of a command, of 'all', or of the one check whose id is
    ``name``.  ``plan`` defaults to the problem's own, as on the command
    line."""
    if name not in _ROWS:
        raise ParseError(f"unknown command or check {name!r}; choose from {', '.join(NAMES)}")
    rows = _ROWS[name]
    # "all" reads no block that every row reads, so it is never refused here
    shared = tuple(block for block in rows[0].blocks if all(block in row.blocks for row in rows))
    if missing := _missing(problem, shared):
        raise ParseError(f"problem {problem.name!r} has no {missing[0]} block")
    run = _Run(problem, problem.plan if plan is None else plan)
    return [_report(row, run) for row in rows if not _missing(problem, row.blocks)]
