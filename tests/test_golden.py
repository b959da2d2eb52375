"""Golden digests: stdout followed by the --report bytes.

The digests of passing `all` runs were recorded before the tensor kernels
were rewritten to walk stored components only; every later change to the
kernels must keep these bytes.  Keys name a catalog entry, a file of
docs/conformance/valid, or a gl(n) problem from conftest.gl_problem, never a
path.

The digests of failing single commands were recorded before integer
coefficients replaced integral Fractions in the polynomial core.  They pin
the text a passing run never prints: nonzero residuals, rational ones among
them, and their sample values.
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


# (command, problem, flags) -> digest; every run exits 1
FAILING_DIGESTS = {
    ("bracket-closure", "gl2-perturbed", "default"): "bb84699f57a669e3bac30f21975b6f455086cd10be0b6c6fa16a69a881668836",
    ("bracket-closure", "gl2-perturbed", "samples-7-seed-3"): "bb84699f57a669e3bac30f21975b6f455086cd10be0b6c6fa16a69a881668836",
    ("bracket-closure", "gl3-perturbed", "default"): "0fd29283859539baf1d16ba74f6e8403342472d4d8a90d0245b4925b0b356488",
    ("bracket-closure", "gl3-perturbed", "samples-7-seed-3"): "0fd29283859539baf1d16ba74f6e8403342472d4d8a90d0245b4925b0b356488",
    ("certify-pgmap", "gl2-perturbed", "default"): "a382cdaba387f6fbe9ac210c640ffec4878074644ef31b677d0c2a308b379de7",
    ("certify-pgmap", "gl2-perturbed", "samples-7-seed-3"): "3203ed1e908913925cc8ce3c3c3f1718033096b7485c046d47108c291d42df7c",
    ("certify-pgmap", "gl3-perturbed", "default"): "2880e7cfc5cc69e0be0c4fed4ad5eb6e3afd82cc08653d7c72987fd9bb30d4e9",
    ("certify-pgmap", "gl3-perturbed", "samples-7-seed-3"): "fc119624f2f2368bfaef77403e106c930c8bbe70a6b365c047c0703ffd9604bd",
    ("characteristic-identity", "gl2-perturbed", "default"): "cc4eedaf019f05605e19c59ee96a6396aa5a6a3d5ee5e1e9bffd9cd8b3b235a2",
    ("characteristic-identity", "gl2-perturbed", "samples-7-seed-3"): "cc4eedaf019f05605e19c59ee96a6396aa5a6a3d5ee5e1e9bffd9cd8b3b235a2",
    ("characteristic-identity", "gl3-perturbed", "default"): "a23cee038b5b509fe1aa7dd21097dd63630cc98c5c3d27ff4e8ffffb9c99a895",
    ("characteristic-identity", "gl3-perturbed", "samples-7-seed-3"): "a23cee038b5b509fe1aa7dd21097dd63630cc98c5c3d27ff4e8ffffb9c99a895",
    ("check-poisson", "gl3-non-poisson", "default"): "2276d9f4a0331e9c66748981b7ea88e334045e7d72fc5d2b855d5ebd4bba2dec",
    ("check-poisson", "gl3-non-poisson", "samples-7-seed-3"): "8172885872d4208b21e4e84f7db6d5255c03634ded9a41385ad4d926a2a55a92",
    ("check-poisson", "rational-residual", "default"): "68083eeca1f01723b2be39e5d09cf32b3e327b1d96829bf4d96a24bb9fcec03a",
    ("check-poisson", "rational-residual", "samples-7-seed-3"): "4bf67cf463efa0121af27b75752dd32c77de727bc7b56a9efff1d0c51c495c7c",
    ("tangent-generator", "gl2-perturbed", "default"): "9314de3bed830bcdfa43b51b4a279941b87bdeffc7aa8e048d83c50ce1949f95",
    ("tangent-generator", "gl2-perturbed", "samples-7-seed-3"): "9314de3bed830bcdfa43b51b4a279941b87bdeffc7aa8e048d83c50ce1949f95",
    ("tangent-generator", "gl3-perturbed", "default"): "be400124efcae4d5b8c704b2e6145f99fd33ea26da03d4a7bb4ea00663b95899",
    ("tangent-generator", "gl3-perturbed", "samples-7-seed-3"): "be400124efcae4d5b8c704b2e6145f99fd33ea26da03d4a7bb4ea00663b95899",
}

# problems of FAILING_DIGESTS that are not gl(n) problems
TEXTS = {
    "rational-residual": "manifold {\n  coords: x, y, z\n  poisson: 1/2*x*e_x^e_y + 1/3*y*e_y^e_z\n}\n",
}


def _problem_arg(key: str, tmp_path: Path) -> str:
    kind, _, name = key.partition(":")
    if kind == "catalog":
        return name
    if kind == "valid":
        return str(VALID / name)
    if key in TEXTS:
        text = TEXTS[key]
    else:
        n, _, variant = key[2:].partition("-")
        text = gl_problem(int(n), non_poisson=variant == "non-poisson", perturb_map=variant == "perturbed")
    path = tmp_path / f"{key}.pf"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _digest(args: list[str], key: str, flags: str, tmp_path: Path, capsys) -> tuple[int, str]:
    report = tmp_path / "report.txt"
    code = main([*args, _problem_arg(key, tmp_path), "--report", str(report), *FLAGS[flags]])
    stdout = capsys.readouterr().out
    return code, hashlib.sha256(stdout.encode("utf-8") + report.read_bytes()).hexdigest()


@pytest.mark.parametrize("key,flags", sorted(DIGESTS))
def test_all_output_matches_recorded_digest(key, flags, tmp_path, capsys):
    assert _digest(["all"], key, flags, tmp_path, capsys) == (0, DIGESTS[(key, flags)])


@pytest.mark.parametrize("command,key,flags", sorted(FAILING_DIGESTS))
def test_failing_output_matches_recorded_digest(command, key, flags, tmp_path, capsys):
    assert _digest([command], key, flags, tmp_path, capsys) == (1, FAILING_DIGESTS[(command, key, flags)])


def test_digests_cover_every_valid_file():
    names = {key.partition(":")[2] for key, _ in DIGESTS if key.startswith("valid:")}
    assert names == {path.name for path in VALID.glob("*.pf")}
