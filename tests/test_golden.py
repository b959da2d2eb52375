"""Golden digests of `all`: stdout followed by the --report bytes.

The digests were recorded before the tensor kernels were rewritten to walk
stored components only; every later change to the kernels must keep these
bytes.  Keys name a catalog entry, a file of docs/conformance/valid, or a
gl(n) problem from conftest.gl_problem, never a path.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from poissonlift.cli import main

from conftest import gl_problem

VALID = Path(__file__).resolve().parent.parent / "docs" / "conformance" / "valid"

FLAGS = {"default": [], "samples-7-seed-3": ["--samples", "7", "--seed", "3"]}

DIGESTS = {
    ("catalog:aff1-cobracket", "default"): "6a5a287038fd65887abba559018d56e0e732b83624a99bd570fd2ad9c546c293",
    ("catalog:aff1-cobracket", "samples-7-seed-3"): "6a5a287038fd65887abba559018d56e0e732b83624a99bd570fd2ad9c546c293",
    ("catalog:canonical-r2-rotation", "default"): "b9169a409db8b7c75513df6f2eebfd63a2033e7fea1a7a081c4b630f5c0c279e",
    ("catalog:canonical-r2-rotation", "samples-7-seed-3"): "b9169a409db8b7c75513df6f2eebfd63a2033e7fea1a7a081c4b630f5c0c279e",
    ("catalog:dressing-linearized", "default"): "de1329eb92cb4215e83b075a9dfc0653353bdb8f4238c4857ef46a1c26628377",
    ("catalog:dressing-linearized", "samples-7-seed-3"): "de1329eb92cb4215e83b075a9dfc0653353bdb8f4238c4857ef46a1c26628377",
    ("catalog:hamiltonian-level-set", "default"): "366b22c53610e388b1c387d11ad176e9e1bcaa4cc5e5f931199ba1bd5526c7e7",
    ("catalog:hamiltonian-level-set", "samples-7-seed-3"): "366b22c53610e388b1c387d11ad176e9e1bcaa4cc5e5f931199ba1bd5526c7e7",
    ("catalog:so3-coadjoint", "default"): "b683e98a69a0c5f9039e66eabd8e6412a318f3edadb17788c9279119a5668a79",
    ("catalog:so3-coadjoint", "samples-7-seed-3"): "b683e98a69a0c5f9039e66eabd8e6412a318f3edadb17788c9279119a5668a79",
    ("valid:bracket-both-orders.pf", "default"): "27e9861f3eb7fa126761552a0d0039033ba9ad7aa9b29d14c59fe02022ef3758",
    ("valid:bracket-both-orders.pf", "samples-7-seed-3"): "27e9861f3eb7fa126761552a0d0039033ba9ad7aa9b29d14c59fe02022ef3758",
    ("valid:full-blocks.pf", "default"): "6a5a287038fd65887abba559018d56e0e732b83624a99bd570fd2ad9c546c293",
    ("valid:full-blocks.pf", "samples-7-seed-3"): "6a5a287038fd65887abba559018d56e0e732b83624a99bd570fd2ad9c546c293",
    ("valid:minimal-poisson.pf", "default"): "e1e9a417a646812c8fdb7dec6c188a578a00334cfc1b40acdb3786c42aebdfcd",
    ("valid:minimal-poisson.pf", "samples-7-seed-3"): "e1e9a417a646812c8fdb7dec6c188a578a00334cfc1b40acdb3786c42aebdfcd",
    ("valid:momentum-levelset.pf", "default"): "366b22c53610e388b1c387d11ad176e9e1bcaa4cc5e5f931199ba1bd5526c7e7",
    ("valid:momentum-levelset.pf", "samples-7-seed-3"): "366b22c53610e388b1c387d11ad176e9e1bcaa4cc5e5f931199ba1bd5526c7e7",
    ("valid:one-line-blocks.pf", "default"): "27e9861f3eb7fa126761552a0d0039033ba9ad7aa9b29d14c59fe02022ef3758",
    ("valid:one-line-blocks.pf", "samples-7-seed-3"): "27e9861f3eb7fa126761552a0d0039033ba9ad7aa9b29d14c59fe02022ef3758",
    ("valid:symplectic-inline.pf", "default"): "3b07c77270eb516d8db3eab81a93055466d2acee19d5e60b599f7ec83f83e77c",
    ("valid:symplectic-inline.pf", "samples-7-seed-3"): "3b07c77270eb516d8db3eab81a93055466d2acee19d5e60b599f7ec83f83e77c",
    ("valid:symplectic-supplied-inverse.pf", "default"): "5becef94a6bda346ead97c2338ff9f7566d1fde5523e15a5c4226deda44f1ea6",
    ("valid:symplectic-supplied-inverse.pf", "samples-7-seed-3"): "5becef94a6bda346ead97c2338ff9f7566d1fde5523e15a5c4226deda44f1ea6",
    ("gl2", "default"): "4732729283d567331299706f5fed25764fabb3e9072c283086831697e2667de2",
    ("gl2", "samples-7-seed-3"): "4732729283d567331299706f5fed25764fabb3e9072c283086831697e2667de2",
    ("gl3", "default"): "c654a719628034cd81f711b4335bc382eeb117b383eece99b46213c37cc5d9b2",
    ("gl3", "samples-7-seed-3"): "c654a719628034cd81f711b4335bc382eeb117b383eece99b46213c37cc5d9b2",
}


def _problem_arg(key: str, tmp_path: Path) -> str:
    kind, _, name = key.partition(":")
    if kind == "catalog":
        return name
    if kind == "valid":
        return str(VALID / name)
    path = tmp_path / f"{key}.pf"
    path.write_text(gl_problem(int(key[2:])), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("key,flags", sorted(DIGESTS))
def test_all_output_matches_recorded_digest(key, flags, tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert main(["all", _problem_arg(key, tmp_path), "--report", str(report), *FLAGS[flags]]) == 0
    stdout = capsys.readouterr().out
    digest = hashlib.sha256(stdout.encode("utf-8") + report.read_bytes()).hexdigest()
    assert digest == DIGESTS[(key, flags)]


def test_digests_cover_every_valid_file():
    names = {key.partition(":")[2] for key, _ in DIGESTS if key.startswith("valid:")}
    assert names == {path.name for path in VALID.glob("*.pf")}
