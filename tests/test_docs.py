"""Code outside the package that names the package: the README's library
example and check ids, the benchmark's list of traced functions and the
keys it counts them by, and the package's functions and methods against
what the command line calls."""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from poissonlift import catalog_names
from poissonlift.checks import CHECKS

from conftest import gl_problem, load_bench, run_child

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_block_prints_its_comments():
    """Each print of the `## Library` block prints what its `# ...` comment
    says, up to the first colon and without quotes."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    expected = [line.partition("#")[2].partition(":")[0].replace('"', "").strip()
                for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


_ROWS = [row for rows in CHECKS.values() for row in rows]


def test_readme_names_exactly_the_registry_ids():
    """Each bullet of `## What it verifies` names its checks' ids in
    backticks, and together they name every row of the registry once."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## What it verifies\n(.*?)^## ", text, re.S | re.M).group(1)
    bullets = re.findall(r"^\* (.*?)(?=^\* |^\S|\Z)", section, re.S | re.M)
    ids = [re.findall(r"`([a-z]+(?:-[a-z]+)+)`", bullet) for bullet in bullets]
    assert bullets and all(ids)
    named = [check_id for found in ids for check_id in found]
    assert sorted(named) == sorted(row.check_id for row in _ROWS)


def _string_literals(path: Path) -> list[str]:
    """The string constants of a module, docstrings left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in docstrings]


def test_each_check_is_stated_once_in_the_source():
    """A check's id and identity text are written once in the package, in
    its registry row; an id that is also a command's name is written a
    second time, as that name."""
    literals = [text for path in sorted((ROOT / "src" / "poissonlift").glob("*.py"))
                for text in _string_literals(path)]
    for row in _ROWS:
        assert literals.count(row.check_id) == 1 + (row.check_id in CHECKS), row.check_id
        assert literals.count(row.identity) == 1, row.identity


@pytest.mark.parametrize("module,attr", [entry[:2] for entry in load_bench("spans").WRAPPED])
def test_traced_names_resolve(module, attr):
    owner = importlib.import_module(f"poissonlift.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))


# Runs in a child process, since Tracer.install patches modules globally.
_TRACE_SCRIPT = """
import contextlib, io, json, sys, types
spans = types.ModuleType("spans")
exec(compile(open(sys.argv[1], encoding="utf-8").read(), sys.argv[1], "exec"), spans.__dict__)
from poissonlift import cli
tracer = spans.Tracer()
tracer.install()
for problem in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["all", problem])
tracer.collect_arguments()
print(json.dumps({name: sorted(keys) for name, keys in tracer.distinct.items()}))
"""


def test_bench_distinct_keys_print_no_address(tmp_path):
    """The benchmark counts a traced function's distinct arguments by their
    ``repr``; an argument printed with its address, such as a ``Resolved``,
    would make that count wrong, as a later object can reuse the address."""
    gl3 = tmp_path / "gl3.pf"
    gl3.write_text(gl_problem(3), encoding="utf-8")
    distinct = json.loads(run_child(_TRACE_SCRIPT, str(ROOT / "bench" / "spans.py"),
                                     str(gl3), "aff1-cobracket", "so3-coadjoint"))
    assert distinct["reduction.pgmap_residuals"] and distinct["chart.jacobi"]
    assert [key for keys in distinct.values() for key in keys if " at 0x" in key] == []


# Records which functions and methods of the package the commands call, in a
# child process whose profiler is installed before the package is imported,
# so code run at import counts.  Members are found through module and class
# namespaces (Python 3.10 has no co_qualname).  Prints every member's name
# and the names of those never called.
_CALLER_SCRIPT = """
import contextlib, importlib, io, json, pkgutil, sys
from functools import cached_property
called = set()

def record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(record)
import poissonlift
from poissonlift import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        cli.main(argv)
sys.setprofile(None)
package = poissonlift.__path__[0]
members = {}
for info in pkgutil.iter_modules(poissonlift.__path__):
    module = importlib.import_module("poissonlift." + info.name)
    scopes = [("", vars(module))] + [
        (cls.__name__ + ".", vars(cls)) for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__]
    for prefix, namespace in scopes:
        for name, obj in namespace.items():
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            elif isinstance(obj, cached_property):
                obj = obj.func
            code = getattr(obj, "__code__", None)
            if (code is None or not code.co_filename.startswith(package)
                    or code.co_name == "<lambda>" or name.startswith("__") and name.endswith("__")):
                continue
            members[prefix + name] = code
print(json.dumps({"members": sorted(members),
                  "uncalled": sorted(name for name, code in members.items() if code not in called)}))
"""

# Functions and methods that no command calls, each with the reason it stays.
UNCALLED = {
    "lie_poisson": "the README's library example builds pi with it",
    "so3_bialgebra": "the README's library example builds its bialgebra with it",
    "parse_reports": "reads back the report files the CLI writes",
    "koszul_bracket": "the benchmark traces it (bench/spans.py)",
    "poisson_bracket": "the benchmark traces it (bench/spans.py)",
    "hamiltonian_vf": "the benchmark traces it (bench/spans.py)",
    "SamplePlan.points": "the benchmark traces it (bench/spans.py)",
    "Polynomial.substitute": "the benchmark's polynomial micro rows time it (bench/worker.py)",
    "Polynomial.derivative": "the one-variable kernel of the dense reference routes "
                             "(tests/reference.py) and of the benchmark's micro row (bench/worker.py); "
                             "the commands differentiate through Polynomial._partials",
    "Polynomial.terms": "the public constructor's form, which substitute and the benchmark's "
                        "polynomial pool read",
    "Polynomial.variable": "the validating constructor of one variable for library callers and "
                           "the tests; a chart builds its coordinate functions trusted (Chart.coord_poly)",
}


def test_every_exported_function_is_called_by_a_command(tmp_path):
    """`all` on the catalog, on gl(3), on a perturbed gl(3) and on every
    conformance file, and once with every oracle flag, calls every function
    and method of the package, private ones included, except the few listed
    with a reason; dunders, lambdas and nested closures are not counted."""
    problems = list(catalog_names())
    for name, text in (("gl3.pf", gl_problem(3)),
                       ("gl3-perturbed.pf", gl_problem(3, perturb_map=True))):
        (tmp_path / name).write_text(text, encoding="utf-8")
        problems.append(str(tmp_path / name))
    problems += sorted(str(path) for path in (ROOT / "docs" / "conformance").glob("*/*.pf"))
    report = str(tmp_path / "report.txt")
    runs = [["all", problem, "--report", report] for problem in problems]
    runs.append(["all", problems[0], "--samples", "5", "--seed", "2", "--box=-1,1"])
    found = json.loads(run_child(_CALLER_SCRIPT, json.dumps(runs)))
    # every kind of member is seen: function, method, property, cached
    # property, class method, static method, and code run at import
    assert {"sharp", "Polynomial.compose", "Chart.dim", "Resolved.tc", "Polynomial.zero",
            "Polynomial._aligned", "_positive"} <= set(found["members"])
    assert found["uncalled"] == sorted(UNCALLED)
