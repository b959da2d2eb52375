"""Code outside the package that names the package: the README's library
example, the benchmark's list of traced functions and the keys it counts
them by, and the package's exports against what the command line calls."""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import poissonlift
from poissonlift import catalog_names, cli

from conftest import gl_problem

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


def _bench_spans() -> types.ModuleType:
    """bench/spans.py, executed from its source so nothing is written under bench/."""
    path = ROOT / "bench" / "spans.py"
    module = types.ModuleType("spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("module,attr", [entry[:2] for entry in _bench_spans().WRAPPED])
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
    src = str(Path(poissonlift.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-B", "-c", _TRACE_SCRIPT, str(ROOT / "bench" / "spans.py"),
         str(gl3), "aff1-cobracket", "so3-coadjoint"],
        env=env, capture_output=True, text=True, check=True)
    distinct = json.loads(result.stdout)
    assert distinct["reduction.pgmap_residuals"] and distinct["chart.jacobi"]
    assert [key for keys in distinct.values() for key in keys if " at 0x" in key] == []


# Exported functions that no command calls, each with the reason it stays.
UNCALLED_EXPORTS = {
    "lie_poisson": "the README's library example builds pi with it",
    "so3_bialgebra": "the README's library example builds its bialgebra with it",
    "parse_reports": "reads back the report files the CLI writes",
    "koszul_bracket": "the benchmark traces it (bench/spans.py)",
}


def test_every_exported_function_is_called_by_a_command(tmp_path):
    """`all` on the catalog, on gl(3) and on a perturbed gl(3) calls every
    function the package exports, except the few listed with a reason."""
    problems = list(catalog_names())
    for name, text in (("gl3.pf", gl_problem(3)),
                       ("gl3-perturbed.pf", gl_problem(3, perturb_map=True))):
        (tmp_path / name).write_text(text, encoding="utf-8")
        problems.append(str(tmp_path / name))
    package = str(Path(poissonlift.__file__).parent)
    called = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for problem in problems:
                cli.main(["all", problem, "--report", str(tmp_path / "report.txt")])
    finally:
        sys.setprofile(None)
    exported = {name: getattr(poissonlift, name) for name in poissonlift.__all__}
    uncalled = sorted(name for name, obj in exported.items()
                      if inspect.isfunction(obj) and obj.__code__ not in called)
    assert uncalled == sorted(UNCALLED_EXPORTS)
