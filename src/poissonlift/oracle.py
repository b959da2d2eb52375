"""Floating-point cross-validation of symbolic results.

Sample points are rationals drawn on a fixed grid from a seeded generator,
so substitution into polynomials stays exact; conversion to double precision
happens only at the very end.  Identical (seed, box, count) always produces
the identical point stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import MissingAssignmentError
from .poly import Polynomial

GRID_RESOLUTION = 4096

DEFAULT_SAMPLES = 100
DEFAULT_SEED = 2026
DEFAULT_BOX = (Fraction(-2), Fraction(2))
DEFAULT_FD_STEP = Fraction(1, 10**6)

FD_TOLERANCE = 1e-6  # guarded relative error threshold for derivative checks


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling plan: how many points, from which seed, in
    which per-coordinate box.  A single-interval box broadcasts to any
    dimension."""

    count: int
    seed: int
    box: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError("sample count must be positive")
        for lo, hi in self.box:
            if lo > hi:
                raise ValueError(f"empty interval ({lo}, {hi})")

    @classmethod
    def uniform(cls, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
                lo=DEFAULT_BOX[0], hi=DEFAULT_BOX[1]) -> "SamplePlan":
        return cls(count, seed, ((Fraction(lo), Fraction(hi)),))

    def intervals(self, nvars: int) -> tuple[tuple[Fraction, Fraction], ...]:
        if len(self.box) == nvars:
            return self.box
        if len(self.box) == 1:
            return self.box * nvars
        raise ValueError(f"box has {len(self.box)} intervals, need {nvars}")

    def points(self, nvars: int) -> list[tuple[Fraction, ...]]:
        """The deterministic rational point stream for this plan."""
        intervals = self.intervals(nvars)
        rng = random.Random(self.seed)
        out = []
        for _ in range(self.count):
            point = tuple(
                lo + (hi - lo) * Fraction(rng.randrange(GRID_RESOLUTION + 1), GRID_RESOLUTION)
                for lo, hi in intervals
            )
            out.append(point)
        return out


def _point_mapping(variables: Sequence[str], point) -> Mapping[str, Fraction]:
    if isinstance(point, Mapping):
        return point
    if len(point) != len(variables):
        raise MissingAssignmentError(
            f"point of length {len(point)} does not cover variables {list(variables)}"
        )
    return dict(zip(variables, point))


def eval_tensor(tensor, point) -> dict[tuple[int, ...], float]:
    """Exact rational evaluation of every component, converted to float."""
    assignment = _point_mapping(tensor.chart.coords, point)
    return {idx: float(poly.substitute(assignment)) for idx, poly in tensor.components.items()}


def fd_derivative_check(f: Polynomial, point, h: Fraction = DEFAULT_FD_STEP) -> float:
    """Central differences against symbolic partials.

    Returns the maximum guarded relative error
    |fd - exact| / max(1, |exact|) over all variables.  Differences are
    computed in exact rational arithmetic, so for polynomials of degree < 3
    the result is exactly 0.0.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    h = Fraction(h)
    assignment = dict(_point_mapping(f.variables, point))
    worst = Fraction(0)
    for v in f.variables:
        base = Fraction(assignment[v])
        assignment[v] = base + h
        plus = f.substitute(assignment)
        assignment[v] = base - h
        minus = f.substitute(assignment)
        assignment[v] = base
        fd = (plus - minus) / (2 * h)
        exact = f.derivative(v).substitute(assignment)
        err = abs(fd - exact) / max(Fraction(1), abs(exact))
        worst = max(worst, err)
    return float(worst)


def _residual_polys(value) -> tuple[tuple[str, ...], list[Polynomial]]:
    if isinstance(value, Polynomial):
        return value.variables, [value]
    # tensors expose a chart and polynomial components
    return value.chart.coords, list(value.components.values())


def sample_residual(value, plan: SamplePlan,
                    streams: dict[int, list[tuple[Fraction, ...]]] | None = None) -> float:
    """Maximum absolute value of a polynomial or tensor over the plan's points.

    Exactly-zero residuals report 0.0 without drawing a point.  ``streams``
    holds the point streams already drawn from ``plan``, keyed by variable
    count; callers sampling several residuals of one plan pass the same dict
    so that each stream is drawn once.
    """
    if value.is_zero():
        return 0.0
    variables, polys = _residual_polys(value)
    if streams is None:
        streams = {}
    if len(variables) not in streams:
        streams[len(variables)] = plan.points(len(variables))
    worst = Fraction(0)
    for point in streams[len(variables)]:
        assignment = dict(zip(variables, point))
        for poly in polys:
            worst = max(worst, abs(poly.substitute(assignment)))
    return float(worst)
