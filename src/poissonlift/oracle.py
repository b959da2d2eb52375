"""Floating-point cross-validation of symbolic results.

Sample points are rationals drawn on a fixed grid from a seeded generator,
so evaluation stays exact; conversion to double precision happens only at
the very end.  Identical (seed, box, count) always produces the identical
point stream.

Every coordinate of a point is ``lo + (hi - lo) * k / GRID_RESOLUTION`` for
a drawn ``k`` in ``0..GRID_RESOLUTION``, so one stream has the common
denominator ``D = GRID_RESOLUTION * lcm(denominators of its box ends)`` and
is kept as integer numerators over ``D`` (``SamplePlan.stream``);
``SamplePlan.points`` is the ``Fraction`` view of the same draws.  A sampled
magnitude is the exact maximum of ``|p(x)|`` over the stream, computed in
integer arithmetic by ``Polynomial.max_abs`` as one ``Fraction``, so its
``float`` is the correctly rounded value of that maximum, whichever route
computed it.
"""

from __future__ import annotations

import math
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

    def stream(self, nvars: int, limit: int | None = None) -> tuple[int, list[tuple[int, ...]]]:
        """The plan's point stream, or its first ``limit`` points when that
        is fewer, as ``(D, numerators)``: each point is a tuple of integers
        ``n`` standing for the rational point ``n / D``."""
        intervals = self.intervals(nvars)
        ends = [end for interval in intervals for end in interval]
        denominator = GRID_RESOLUTION * math.lcm(*(end.denominator for end in ends))
        # lo + (hi - lo) * k / GRID_RESOLUTION = (base + step * k) / D
        affine = [(int(lo * denominator), int((hi - lo) * (denominator // GRID_RESOLUTION)))
                  for lo, hi in intervals]
        rng = random.Random(self.seed)
        count = self.count if limit is None else min(limit, self.count)
        return denominator, [
            tuple(base + step * rng.randrange(GRID_RESOLUTION + 1) for base, step in affine)
            for _ in range(count)
        ]

    def points(self, nvars: int, limit: int | None = None) -> list[tuple[Fraction, ...]]:
        """The deterministic rational point stream for this plan, or its
        first ``limit`` points when that is fewer."""
        denominator, numerators = self.stream(nvars, limit)
        return [tuple(Fraction(n, denominator) for n in point) for point in numerators]


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
    the result is exactly 0.0.  Both fd and exact are 0 for a variable that
    f does not use, so only the used variables are visited; the point must
    still assign every variable of f's universe.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    h = Fraction(h)
    assignment = dict(_point_mapping(f.variables, point))
    missing = [v for v in f.variables if v not in assignment]
    if missing:
        raise MissingAssignmentError(f"no value for variables {missing}")
    worst = Fraction(0)
    for v in f.used_variables():
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
                    streams: dict[int, tuple[int, list[tuple[int, ...]]]] | None = None) -> float:
    """Maximum absolute value of a polynomial or tensor over the plan's points.

    Exactly-zero residuals report 0.0 without drawing a point.  ``streams``
    holds the integer streams already drawn from ``plan`` (``SamplePlan.stream``),
    keyed by variable count; callers sampling several residuals of one plan
    pass the same dict so that each stream is drawn once.
    """
    if value.is_zero():
        return 0.0
    variables, polys = _residual_polys(value)
    if streams is None:
        streams = {}
    if len(variables) not in streams:
        streams[len(variables)] = plan.stream(len(variables))
    denominator, numerators = streams[len(variables)]
    return float(max(poly.max_abs(variables, numerators, denominator) for poly in polys))
