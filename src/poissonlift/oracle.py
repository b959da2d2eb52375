"""Floating-point cross-validation of symbolic results.

Sample points are rationals drawn on a fixed grid from a seeded generator,
so evaluation stays exact; conversion to double precision happens only at
the very end.  Identical (seed, box, count) always produces the identical
point stream.

Every coordinate of a point is ``lo + (hi - lo) * k / GRID_RESOLUTION`` for
a drawn ``k`` in ``0..GRID_RESOLUTION``, so one stream has the common
denominator ``D = GRID_RESOLUTION * lcm(denominators of its box ends)`` and
is kept as integer numerators over ``D`` (``SamplePlan.stream``).  Every
sampled check reads that stream and evaluates through
``Polynomial.scaled_values`` in integer arithmetic; ``SamplePlan.points`` is
the ``Fraction`` view of the same draws, which no check reads.  A sampled
magnitude is the exact maximum of ``|p(x)|`` over the stream, built by
``Polynomial.max_abs`` as one ``Fraction``, and a finite-difference error is
one exact rational too, so each ``float`` is the correctly rounded value of
an exact number, whichever route computed it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from ._value import _Value
from .errors import DimensionMismatchError
from .poly import Polynomial

GRID_RESOLUTION = 4096

DEFAULT_SAMPLES = 100
DEFAULT_SEED = 2026
DEFAULT_BOX = (Fraction(-2), Fraction(2))
DEFAULT_FD_STEP = Fraction(1, 10**6)

FD_TOLERANCE = 1e-6  # guarded relative error threshold for derivative checks


class SamplePlan(_Value, hashable=True):
    """Deterministic sampling plan: how many points, from which seed, and
    the interval ``box = (lo, hi)`` that every coordinate is drawn from."""

    _fields = ("count", "seed", "box")

    def __init__(self, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
                 box: tuple[Fraction, Fraction] = DEFAULT_BOX):
        if count <= 0:
            raise ValueError("sample count must be positive")
        lo, hi = box
        if lo > hi:
            raise ValueError(f"empty interval ({lo}, {hi})")
        self.count, self.seed, self.box = count, seed, box

    def stream(self, nvars: int, limit: int | None = None) -> tuple[int, list[tuple[int, ...]]]:
        """The plan's point stream, or its first ``limit`` points when that
        is fewer, as ``(D, numerators)``: each point is a tuple of integers
        ``n`` standing for the rational point ``n / D``."""
        lo, hi = self.box
        denominator = GRID_RESOLUTION * math.lcm(lo.denominator, hi.denominator)
        # lo + (hi - lo) * k / GRID_RESOLUTION = (base + step * k) / D
        base, step = int(lo * denominator), int((hi - lo) * (denominator // GRID_RESOLUTION))
        # k is rng.randrange(GRID_RESOLUTION + 1), drawn inline as randrange
        # draws it: getrandbits of the bound's bit length until one is in range
        getrandbits = random.Random(self.seed).getrandbits
        bits = (GRID_RESOLUTION + 1).bit_length()
        points = []
        for _ in range(self.count if limit is None else min(limit, self.count)):
            point = []
            for _ in range(nvars):
                k = getrandbits(bits)
                while k > GRID_RESOLUTION:
                    k = getrandbits(bits)
                point.append(base + step * k)
            points.append(tuple(point))
        return denominator, points

    def points(self, nvars: int, limit: int | None = None) -> list[tuple[Fraction, ...]]:
        """The deterministic rational point stream for this plan, or its
        first ``limit`` points when that is fewer."""
        denominator, numerators = self.stream(nvars, limit)
        return [tuple(Fraction(n, denominator) for n in point) for point in numerators]


def fd_derivative_check(f: Polynomial, variables: Sequence[str], point: Sequence[int],
                        denominator: int, h: Fraction = DEFAULT_FD_STEP) -> float:
    """Central differences against symbolic partials at the point
    ``point / denominator``, whose integer entries are the values of
    ``variables`` in that order (the format of ``SamplePlan.stream``).

    Returns the maximum guarded relative error
    |fd - exact| / max(1, |exact|) over all variables.  Differences are
    computed in exact arithmetic, so for polynomials of degree < 3 the result
    is exactly 0.0.  The exact partials are the lifts' own, ``_partials``,
    taken in one walk; both fd and exact are 0 for a variable that f does
    not use, so only the variables with a nonzero partial are visited.
    ``variables`` must still hold every variable of f's universe.

    With h = a / b, the shifted points q +- h e_v share the denominator
    E = lcm(denominator, b), so f is evaluated at all of them in one
    ``scaled_values`` call, giving N+- / M, and each partial in one call at
    q, giving P / M'.  Then fd = b (N+ - N-) / (2 a M), and the error is the
    integer ratio |b (N+ - N-) M' - 2 a M P| / (2 a M max(M', |P|)).
    """
    if h <= 0:
        raise ValueError("step must be positive")
    if len(point) != len(variables):
        raise DimensionMismatchError(f"point has {len(point)} coordinates, need {len(variables)}")
    h = Fraction(h)
    a, b = h.numerator, h.denominator
    common = math.lcm(denominator, b)
    base = [x * (common // denominator) for x in point]
    step = a * (common // b)
    partials = {f.variables[i]: partial for i, partial in f._partials().items()}
    positions = [i for i, v in enumerate(variables) if v in partials]
    shifted = []
    for i in positions:
        for shift in (step, -step):
            moved = list(base)
            moved[i] += shift
            shifted.append(moved)
    # raises MissingAssignmentError when a variable of f is not in variables
    values, scale = f.scaled_values(variables, shifted, common)
    worst_num, worst_den = 0, 1
    for k, i in enumerate(positions):
        (exact,), exact_scale = partials[variables[i]].scaled_values(variables, [point], denominator)
        num = abs(b * (values[2 * k] - values[2 * k + 1]) * exact_scale - 2 * a * scale * exact)
        den = 2 * a * scale * max(exact_scale, abs(exact))
        if num * worst_den > worst_num * den:
            worst_num, worst_den = num, den
    return float(Fraction(worst_num, worst_den))


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
    try:
        return float(max(poly.max_abs(variables, numerators, denominator) for poly in polys))
    except OverflowError:  # beyond the double range, which rounds to inf
        return math.inf
