"""Benchmark workloads: problem texts, CLI invocations and their known answers.

Every known answer below follows from the mathematics of the problem, not
from a recorded run (see bench/README.md for the derivations):

* catalog entries and the clean gl(n) Lie-Poisson problem satisfy every
  identity the tool checks, so every non-informative check passes, exit 0;
* the perturbed maps have d(phi_i) != 0 while gl(n) has zero cobracket, so
  the pgmap cocycle axiom fails; the lifted checks require a certified map
  (and the characteristic identity is i_T(d phi_i) = 0 here), so they fail;
* the perturbed gl(3) bivector has Jacobiator {x12,{x13,x21}} + cyclic = x21,
  so `poisson-jacobi` fails and the exit code is 1.

This module imports nothing from poissonlift: the problem texts are built as
plain strings and parsed only by the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

CATALOG_ENTRIES = (
    "aff1-cobracket",
    "canonical-r2-rotation",
    "dressing-linearized",
    "hamiltonian-level-set",
    "so3-coadjoint",
)

# Checks every catalog entry and the clean gl(n) problem must report; any
# other non-informative check they report must pass as well.
PGMAP_CHECKS = (
    "poisson-jacobi",
    "tangent-lift-identity",
    "tangent-prolongation-random",
    "bialgebra-jacobi",
    "bialgebra-cocycle",
    "bialgebra-cojacobi",
    "pgmap-certification",
    "bracket-closure",
    "tangent-generator-agreement",
    "characteristic-identity",
    "oracle-fd",
)

PERTURBED_COMMANDS = {
    "certify-pgmap": {
        "bialgebra-jacobi": "pass",
        "bialgebra-cocycle": "pass",
        "bialgebra-cojacobi": "pass",
        "pgmap-certification": "fail",
    },
    "bracket-closure": {"bracket-closure": "fail"},
    "tangent-generator": {"tangent-generator-agreement": "fail"},
    "characteristic-identity": {"characteristic-identity": "fail"},
}


# -- gl(n) problem generator ----------------------------------------------------


def _gl_bracket(p: tuple[int, int], q: tuple[int, int]) -> dict[tuple[int, int], int]:
    """[E_ab, E_cd] = delta_bc E_ad - delta_da E_cb, as {(row, col): coeff}."""
    (a, b), (c, d) = p, q
    out: dict[tuple[int, int], int] = {}
    if b == c:
        out[(a, d)] = out.get((a, d), 0) + 1
    if d == a:
        out[(c, b)] = out.get((c, b), 0) - 1
    return {key: v for key, v in out.items() if v}


def _combo(coeffs: dict[tuple[int, int], int], prefix: str) -> str:
    """Render sum coeff * <prefix>ab with unit coefficients, e.g. 'x11 - x22'."""
    text = ""
    for (a, b), v in sorted(coeffs.items()):
        if abs(v) != 1:
            raise ValueError("gl(n) structure constants are 0 or +-1")
        sign = "-" if v < 0 else "+"
        text += f" {sign} {prefix}{a}{b}"
    text = text.strip()
    return text[2:] if text.startswith("+") else "-" + text[2:]


def gl_problem(n: int, *, perturb_map: bool = False, non_poisson: bool = False) -> str:
    """Problem text for the Lie-Poisson structure on gl(n)* with phi_ab = dx_ab.

    ``perturb_map`` replaces phi_E11 and phi_E12 by non-closed 1-forms.
    ``non_poisson`` adds x11 e_x12^e_x13 to the bivector (needs n >= 3) and
    keeps only the manifold block.
    """
    idx = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    brackets = []
    bivector = []
    for i, p in enumerate(idx):
        for q in idx[i + 1:]:
            coeffs = _gl_bracket(p, q)
            if not coeffs:
                continue
            brackets.append(f"    [E{p[0]}{p[1]},E{q[0]}{q[1]}] = {_combo(coeffs, 'E')}")
            poly = _combo(coeffs, "x")
            if len(coeffs) > 1:
                poly = f"({poly})"
            bivector.append(f"{poly}*e_x{p[0]}{p[1]}^e_x{q[0]}{q[1]}")
    if non_poisson:
        if n < 3:
            raise ValueError("the non-Poisson perturbation needs n >= 3")
        bivector.append("x11*e_x12^e_x13")
    poisson = " + ".join(bivector).replace("+ -", "- ")
    coords = ", ".join(f"x{a}{b}" for a, b in idx)
    lines = ["manifold {", f"  coords: {coords}", f"  poisson: {poisson}", "}"]
    if not non_poisson:
        images = {f"E{a}{b}": f"dx{a}{b}" for a, b in idx}
        if perturb_map:
            images["E11"] = "dx11 + x12*dx21"
            images["E12"] = "dx12 + x11^2*dx22"
        lines += ["bialgebra {", "  basis: " + ", ".join(images), "  bracket {", *brackets, "  }", "}"]
        lines += ["pgmap {", *(f"  {name} = {form}" for name, form in images.items()), "}"]
    lines += ["oracle {", "  samples: 100", "  seed: 7", "  box: -2, 2", "}"]
    return "\n".join(lines) + "\n"


# -- workloads --------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """A catalog entry (``text`` is None) or a generated problem file."""

    name: str
    text: str | None = None
    # Self-check on the parsed problem: expected bialgebra.verified and
    # poisson.jacobi_verified (None: no such block / not checked).
    bialgebra_verified: bool | None = None
    jacobi_verified: bool | None = None


@dataclass(frozen=True)
class Invocation:
    command: str
    problem: str
    exit_code: int
    verdicts: dict[str, str]
    # Verdict required of every non-informative check not named in
    # ``verdicts``; None leaves such checks unconstrained.
    others: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple[Problem, ...]
    invocations: tuple[Invocation, ...]
    # Operand shape (variables, terms, degree) of the polynomial micro rows.
    poly_shape: tuple[int, int, int]


def _all_pass(command: str, problem: str) -> Invocation:
    return Invocation(command, problem, 0, {check: "pass" for check in PGMAP_CHECKS}, others="pass")


def build_workloads() -> dict[str, Workload]:
    catalog = Workload(
        "catalog",
        tuple(Problem(name) for name in CATALOG_ENTRIES),
        tuple(_all_pass("all", name) for name in CATALOG_ENTRIES),
        poly_shape=(6, 2, 2),
    )
    gl3 = Workload(
        "gl3",
        (Problem("gl3.pf", gl_problem(3), bialgebra_verified=True, jacobi_verified=True),),
        (_all_pass("all", "gl3.pf"),),
        poly_shape=(18, 2, 1),
    )
    controls = [
        *(Problem(f"gl{n}-perturbed.pf", gl_problem(n, perturb_map=True),
                  bialgebra_verified=True, jacobi_verified=True) for n in (2, 3)),
        Problem("gl3-nonpoisson.pf", gl_problem(3, non_poisson=True), jacobi_verified=False),
    ]
    control_calls = [
        Invocation(command, problem.name, 1, verdicts)
        for problem in controls[:2]
        for command, verdicts in PERTURBED_COMMANDS.items()
    ]
    control_calls += [
        Invocation("check-poisson", "gl3-nonpoisson.pf", 1, {"poisson-jacobi": "fail"}),
        Invocation(
            "all",
            "gl3-nonpoisson.pf",
            1,
            {"poisson-jacobi": "fail", "tangent-prolongation-random": "pass", "oracle-fd": "pass"},
        ),
    ]
    negative = Workload(
        "negative-controls", tuple(controls), tuple(control_calls), poly_shape=(9, 2, 1)
    )
    return {w.name: w for w in (catalog, gl3, negative)}
