"""Sampling plans, sampled residual magnitudes and the exact
forward-derivative oracle.

Sample points are rationals drawn on a fixed grid from a seeded generator,
so evaluation stays exact; conversion to double precision happens only at
the very end.  Identical (seed, box, count) always produces the identical
point stream.

Every coordinate of a point is ``lo + (hi - lo) * k / GRID_RESOLUTION`` for
a drawn ``k`` in ``0..GRID_RESOLUTION``, so one stream has the common
denominator ``D = GRID_RESOLUTION * lcm(denominators of its box ends)`` and
is kept as integer numerators over ``D`` (``SamplePlan.stream``).  Every
sampled check reads that stream and evaluates through the one evaluator,
``poly.scaled_values``, in integer arithmetic; ``SamplePlan.points`` is the
``Fraction`` view of the same draws, which no check reads.  A sampled
magnitude is the exact maximum of ``|p(x)|`` over the stream and a
residual's components, one ``Fraction`` over the family's denominator, so
each ``float`` is the correctly rounded value of an exact number.
``fd_derivative_check`` reads one point of a stream and compares forward
derivatives, taken by the same evaluator over dual numbers, with the
symbolic partials: its differences are exact rationals, and no float or
tolerance enters its verdict.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Mapping, Sequence

from ._value import _Value
from .errors import DimensionMismatchError
from .poly import Polynomial, _positions, _scaled_values, scaled_values

GRID_RESOLUTION = 4096

DEFAULT_SAMPLES = 100
DEFAULT_SEED = 2026
DEFAULT_BOX = (Fraction(-2), Fraction(2))

_ZERO = Polynomial.zero()  # the partial of a used variable that _partials leaves out


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


class _Dual:
    """``a + b*eps`` with ``eps^2 = 0``: a point entry of
    :func:`~poissonlift.poly.scaled_values` whose eps part carries a
    derivative through every product and sum."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other) -> "_Dual":
        a, b = (other.a, other.b) if type(other) is _Dual else (other, 0)
        return _Dual(self.a + a, self.b + b)

    def __mul__(self, other) -> "_Dual":
        a, b = (other.a, other.b) if type(other) is _Dual else (other, 0)
        return _Dual(self.a * a, self.a * b + self.b * a)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, e: int) -> "_Dual":
        power = self  # square-and-multiply over the bits of e, so no power rule enters
        for bit in bin(e)[3:]:
            power = power * power * self if bit == "1" else power * power
        return power


def fd_derivative_check(polys: Mapping[str, Polynomial], variables: Sequence[str],
                        points: Sequence[Sequence[int]], denominator: int) -> dict[str, Fraction]:
    """Forward derivatives ("fd") against the symbolic partials of each
    polynomial of ``polys``, a mapping from name to polynomial: the k-th at
    the point ``x = points[k % len(points)] / denominator``, whose integer
    entries are the values of ``variables`` in that order (the format of
    ``SamplePlan.stream``); they must cover every polynomial's universe,
    which is mapped to point positions once per call.

    ``scaled_values`` evaluates f with the entry of v replaced by the dual
    number ``n_v + denominator*eps``: the eps part of ``M * f(x + eps*e_v)``
    is M times the partial along v at x, exactly.  The route calls no
    ``derivative``, ``_partials`` or power rule, so it is a second route for
    ``_partials``, which every lift differentiates through and which one
    more call evaluates at x.  Returns the nonzero differences ``eps part -
    _partials()[v](x)``, named ``<name>/d<v>``, over every v that f uses or
    that ``_partials`` returns.
    """
    where = {v: i for i, v in enumerate(variables)}
    positions: dict[tuple[str, ...], list[int]] = {}  # universe -> point positions
    differences = {}
    for k, (name, f) in enumerate(polys.items()):
        point = points[k % len(points)]
        if len(point) != len(variables):
            raise DimensionMismatchError(f"point has {len(point)} coordinates, need {len(variables)}")
        universe = f.variables
        if universe not in positions:
            positions[universe] = _positions(universe, where)
        pos = positions[universe]
        partials = f._partials()
        indices = sorted({*map(universe.index, f.used_variables()), *partials})
        if not indices:  # a constant: nothing to evaluate
            continue
        duals = [[*point[:pos[i]], _Dual(point[pos[i]], denominator), *point[pos[i] + 1:]] for i in indices]
        (forward,), total = _scaled_values([f], [pos], duals, denominator)
        exact, scale = _scaled_values([partials.get(i, _ZERO) for i in indices], [pos] * len(indices),
                                      [point], denominator)
        for i, value, (at_x,) in zip(indices, forward, exact):
            if numerator := (value.b if type(value) is _Dual else 0) * scale - at_x * total:
                differences[f"{name}/d{universe[i]}"] = Fraction(numerator, total * scale)
    return differences


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
    if isinstance(value, Polynomial):
        variables, polys = value.variables, [value]
    else:  # tensors expose a chart and polynomial components
        variables, polys = value.chart.coords, list(value.components.values())
    if streams is None:
        streams = {}
    if len(variables) not in streams:
        streams[len(variables)] = plan.stream(len(variables))
    denominator, numerators = streams[len(variables)]
    values, scale = scaled_values(polys, variables, numerators, denominator)
    try:
        return float(Fraction(max(abs(v) for column in values for v in column), scale))
    except OverflowError:  # beyond the double range, which rounds to inf
        return math.inf
