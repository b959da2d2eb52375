"""The package imports nothing outside the standard library, and not
``dataclasses``: its value classes are plain classes, so that importing the
command-line driver loads neither ``dataclasses`` nor the ``inspect`` it
pulls in."""

from __future__ import annotations

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poissonlift import catalog
from poissonlift.chart import Chart
from poissonlift.oracle import SamplePlan
from poissonlift.poisson import PoissonStructure, SymplecticForm
from poissonlift.problemfile import ProblemFile, _Block
from poissonlift.reduction import PGMap
from poissonlift.report import CheckReport
from poissonlift.tangent import CoordinateMap, TangentChart, tangent_chart

from conftest import run_child

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "poissonlift"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        foreign += [name for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names or name == "dataclasses"]
    assert not foreign, f"{path.name} imports {foreign}"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # together they were about 8 ms of a 12 ms import with a bytecode cache
    loaded = run_child("import sys; before = set(sys.modules); import poissonlift.cli; "
                       "print(*sorted(set(sys.modules) - before))").split()
    assert "poissonlift.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


# Each value class, its fields in order and a builder; two calls of a builder
# give separate instances with equal fields.
VALUE_CLASSES = [
    (Chart, ("name", "coords"), lambda: Chart("M", ["q", "p"])),
    (SamplePlan, ("count", "seed", "box"), lambda: SamplePlan(7, 3, (Fraction(-1, 2), Fraction(1)))),
    (PoissonStructure, ("bivector",), lambda: catalog("canonical-r2-rotation").poisson),
    (SymplecticForm, ("two_form", "poisson"), lambda: catalog("canonical-r2-rotation").symplectic),
    (ProblemFile, ("name", "chart", "poisson", "symplectic", "bialgebra", "pgmap", "momentum",
                   "action", "levelset", "plan", "fd_step"),
     lambda: catalog("canonical-r2-rotation")),
    (_Block, ("name", "line", "entries"), lambda: _Block("manifold", 2, [(3, "coords: q, p")])),
    (PGMap, ("bialgebra", "chart", "images"), lambda: catalog("canonical-r2-rotation").pgmap),
    (CheckReport, ("check_id", "identity", "verdict", "residuals", "samples"),
     lambda: CheckReport("c", "x = y", "fail", (("r", "q"),), (("r", 0.5),))),
    (TangentChart, ("base", "total"), lambda: tangent_chart(Chart("M", ("q", "p")))),
    (CoordinateMap, ("source", "target", "components"),
     lambda: catalog("canonical-r2-rotation").momentum),
]
HASHABLE = {Chart, SamplePlan, CheckReport, TangentChart}


@pytest.mark.parametrize("cls, fields, build", VALUE_CLASSES,
                         ids=[cls.__name__ for cls, _, _ in VALUE_CLASSES])
def test_value_classes_compare_hash_and_print_by_fields(cls, fields, build):
    # the benchmark's *.distinct counts key on the repr of PGMap,
    # PoissonStructure and SamplePlan arguments
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    if cls in HASHABLE:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(a) == repr(b) == f"{cls.__name__}({', '.join(f'{f}={getattr(a, f)!r}' for f in fields)})"
