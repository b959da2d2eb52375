"""Code outside the package that names the package: the README's library
example and the benchmark's list of traced functions."""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import re
import types
from pathlib import Path

import pytest

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
