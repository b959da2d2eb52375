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
sampled check reads that stream and evaluates through
``Polynomial.scaled_values`` in integer arithmetic; ``SamplePlan.points`` is
the ``Fraction`` view of the same draws, which no check reads.  A sampled
magnitude is the exact maximum of ``|p(x)|`` over the stream, built by
``Polynomial.max_abs`` as one ``Fraction``, so each ``float`` is the
correctly rounded value of an exact number.  ``fd_derivative_check`` reads
one point of a stream and compares forward derivatives, taken over dual
numbers, with the symbolic partials: its differences are exact rationals,
and no float or tolerance enters its verdict.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from ._value import _Value
from .errors import DimensionMismatchError, MissingAssignmentError
from .poly import Polynomial, _fields

GRID_RESOLUTION = 4096

DEFAULT_SAMPLES = 100
DEFAULT_SEED = 2026
DEFAULT_BOX = (Fraction(-2), Fraction(2))


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


def _dual_power(a: int, b: int, e: int) -> tuple[int, int]:
    """``(a + b*eps)^e`` with ``eps^2 = 0``, by square-and-multiply."""
    x, y = 1, 0
    while True:
        if e & 1:
            x, y = x * a, x * b + y * a
        if not (e := e >> 1):
            return x, y
        a, b = a * a, 2 * a * b


def fd_derivative_check(f: Polynomial, variables: Sequence[str], point: Sequence[int],
                        denominator: int) -> dict[str, Fraction]:
    """Forward derivatives ("fd") against the symbolic partials at the point
    ``x = point / denominator``, whose integer entries are the values of
    ``variables`` in that order (the format of ``SamplePlan.stream``).

    f is evaluated over dual numbers ``a + b*eps``, ``eps^2 = 0``, at
    ``x + eps*e_v``: the eps part is the partial along v at x, exactly.
    Scaled as ``Polynomial.scaled_values`` scales (L the lcm of the
    coefficient denominators, D the denominator, ``top`` the total degree),
    ``L * D^top * f`` is a sum of integer dual products, v standing for
    ``n_v + D*eps`` and each power taken by square-and-multiply.  The route
    calls no ``derivative``, ``_partials`` or power rule, so it is a second
    route for ``_partials``, which every lift differentiates through.

    Returns the nonzero differences ``eps part - _partials()[v](x)`` by
    variable, over every v that f uses or that ``_partials`` returns.
    ``variables`` must hold every variable of f's universe.
    """
    if len(point) != len(variables):
        raise DimensionMismatchError(f"point has {len(point)} coordinates, need {len(variables)}")
    where = {v: k for k, v in enumerate(variables)}
    if missing := [v for v in f.variables if v not in where]:
        raise MissingAssignmentError(f"no value for variables {missing}")
    values = [point[where[v]] for v in f.variables]
    terms = [(c, _fields(key)) for key, c in f._terms.items()]
    degrees = [sum(e for _, e in fields) for _, fields in terms]
    top, scale = max(degrees, default=0), math.lcm(*(c.denominator for c, _ in terms))
    forward: dict[int, int] = {}  # eps part of L * D^top * f(x + eps*e_i), by index i of f's universe
    for (c, fields), degree in zip(terms, degrees):
        duals = [(i, _dual_power(values[i], denominator, e)) for i, e in fields]
        coeff = int(c * scale) * denominator ** (top - degree)
        for i, (_, b) in duals:
            forward[i] = forward.get(i, 0) + math.prod((a for j, (a, _) in duals if j != i), start=coeff * b)
    partials, zero, differences = f._partials(), Polynomial.zero(f.variables), {}
    total = scale * denominator ** top
    for i in sorted(forward.keys() | partials.keys()):
        (exact,), exact_scale = partials.get(i, zero).scaled_values(variables, [point], denominator)
        if numerator := forward.get(i, 0) * exact_scale - exact * total:
            differences[f.variables[i]] = Fraction(numerator, total * exact_scale)
    return differences


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
