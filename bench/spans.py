"""Span tracing of poissonlift from outside the package.

``Tracer.install`` replaces the public functions listed in ``WRAPPED`` by
wrappers that record one span per call: name, start, end, parent span and
invocation id.  A function is replaced in every loaded ``poissonlift``
module that holds it, because modules call what they imported by name.
Spans stay in memory; the caller writes them out when the run ends.

The ``Polynomial`` methods are deliberately not wrapped: they run millions
of times per invocation and a wrapper would dominate every self time.  The
polynomial layer is measured by the micro rows in worker.py instead.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name, leading positional arguments that key the
# *.distinct count; 0 for none)
WRAPPED = (
    ("problemfile", "parse_problem", "problemfile.parse", 0),
    ("bialgebra", "LieBialgebra.check_jacobi", "bialgebra.checks", 0),
    ("bialgebra", "LieBialgebra.check_cocycle", "bialgebra.checks", 0),
    ("bialgebra", "LieBialgebra.check_cojacobi", "bialgebra.checks", 0),
    ("chart", "jacobi_check", "chart.jacobi", 1),
    ("chart", "schouten_bracket", "chart.schouten", 0),
    ("chart", "exterior_derivative", "chart.exterior_derivative", 0),
    ("chart", "wedge", "chart.wedge", 0),
    ("chart", "interior_product", "chart.interior_product", 0),
    ("chart", "lie_derivative", "chart.lie_derivative", 0),
    ("poisson", "sharp", "poisson.sharp", 0),
    ("poisson", "koszul_bracket", "poisson.koszul_bracket", 0),
    ("poisson", "poisson_bracket", "poisson.poisson_bracket", 0),
    ("poisson", "hamiltonian_vf", "poisson.hamiltonian_vf", 0),
    ("tangent", "complete_lift_bivector", "tangent.complete_lift", 1),
    ("tangent", "complete_lift_vf", "tangent.complete_lift_vf", 0),
    ("tangent", "tangent_lift_residuals", "tangent.lift_identity", 0),
    ("tangent", "one_form_lift_residuals", "tangent.prolongation", 0),
    ("reduction", "pgmap_residuals", "reduction.pgmap_residuals", 2),
    ("reduction", "tangent_generator", "reduction.generator", 0),
    ("reduction", "tangent_generator_direct", "reduction.generator", 0),
    ("reduction", "bracket_closure_residuals", "reduction.closure", 0),
    ("reduction", "characteristic_identity_residuals", "reduction.closure", 0),
    ("oracle", "sample_residual", "oracle.sample", 0),
    ("oracle", "SamplePlan.points", "oracle.points", 2),
    ("oracle", "fd_derivative_check", "oracle.fd", 0),
    ("report", "make_report", "report", 0),
    ("report", "emit_reports", "report", 0),
)

# Span opened by the benchmark around each call of poissonlift.cli.main.
CLI_SPAN = "cli"


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, invocation id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.invocation = 0
        # span name -> key arguments seen, for the *.distinct counts
        self._arguments: dict[str, list] = defaultdict(list)
        self.distinct: dict[str, set[str]] = defaultdict(set)

    def span(self, name, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.invocation]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn, keyed):
        span = self.span
        arguments = self._arguments[name]

        def wrapper(*args, **kwargs):
            if keyed:
                arguments.append(args[:keyed])
            return span(name, fn, *args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap every name in WRAPPED wherever a poissonlift module holds it."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == "poissonlift" or key.startswith("poissonlift.")]
        for module_name, attr, name, keyed in WRAPPED:
            owner = sys.modules[f"poissonlift.{module_name}"]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                setattr(cls, method, self._wrapper(name, getattr(cls, method), keyed))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(name, original, keyed)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def collect_arguments(self) -> None:
        """Fold the arguments seen since the last call into the distinct sets.

        Keys are the printed form of the arguments; they are computed here,
        outside every span, so they cost no traced time.
        """
        for name, seen in self._arguments.items():
            self.distinct[name].update(repr(key) for key in seen)
            seen.clear()


def self_times(spans, scale) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self time), where self time is a span's
    duration minus the time its child spans cover, multiplied by
    ``scale[invocation id]``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for (name, start, end, _, invocation), covered in zip(spans, child_time):
        entry = totals[name]
        entry[0] += 1
        entry[1] += (end - start - covered) * scale[invocation]
    return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}
