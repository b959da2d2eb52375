"""Problem files, catalog entries and the command-line driver."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from poissonlift import catalog, catalog_names, parse_problem, parse_reports
from poissonlift import chart, reduction, tangent
from poissonlift.cli import COMMANDS, main, run_checks
from poissonlift.errors import ParseError, UnknownCatalogError
from poissonlift.problemfile import catalog_text

from conftest import count_bialgebra_checks

COUNTEREXAMPLE = """
manifold {
  coords: q, p
  poisson: e_q^e_p
}
bialgebra {
  basis: e1
}
pgmap {
  e1 = p*dq
}
"""


class TestProblemParsing:
    def test_minimal_poisson(self):
        problem = parse_problem("manifold { coords: q, p\n poisson: e_q^e_p }")
        assert problem.chart.coords == ("q", "p")
        assert problem.poisson is not None
        assert problem.poisson.jacobi_verified

    def test_symplectic_with_constant_inverse(self):
        problem = parse_problem("manifold { coords: q, p\n symplectic: dq^dp }")
        pi = problem.poisson_structure
        assert pi.jacobi_verified

    def test_rejects_both_structures(self):
        text = "manifold { coords: q, p\n poisson: e_q^e_p\n symplectic: dq^dp }"
        with pytest.raises(ParseError):
            parse_problem(text)

    def test_rejects_unclosed_block(self):
        with pytest.raises(ParseError) as err:
            parse_problem("manifold {\n coords: q, p\n poisson: e_q^e_p\n")
        assert err.value.line == 1

    def test_error_carries_line_number(self):
        text = "manifold {\n  coords: q, p\n  poisson: e_q^e_r\n}"
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert err.value.line == 3

    def test_momentum_requires_bialgebra(self):
        text = "manifold { coords: q, p\n poisson: e_q^e_p }\nmomentum { e1 = p }"
        with pytest.raises(ParseError):
            parse_problem(text)

    def test_cobracket_with_juxtaposed_coefficient(self):
        text = """
manifold { coords: q, p
  poisson: p*e_q^e_p }
bialgebra {
  basis: e1, e2
  bracket { [e1,e2] = e2 }
  cocycle { d(e2) = 2 e1^e2 }
}
"""
        problem = parse_problem(text)
        assert problem.bialgebra.cobracket_row(1) == {(0, 1): Fraction(2)}

    def test_oracle_block(self):
        text = """
manifold { coords: q, p
  poisson: 0 }
oracle { samples: 7
  seed: 12
  box: -1/2, 3
  fd_step: 1/1000 }
"""
        problem = parse_problem(text)
        assert problem.plan.count == 7
        assert problem.plan.seed == 12
        assert problem.plan.box == ((Fraction(-1, 2), Fraction(3)),)
        assert problem.fd_step == Fraction(1, 1000)


_CONFORMANCE = Path(__file__).resolve().parent.parent / "docs" / "conformance"


class TestConformanceCorpus:
    @pytest.mark.parametrize(
        "path", sorted(_CONFORMANCE.glob("valid/*.pf")), ids=lambda p: p.stem
    )
    def test_valid_files_load(self, path):
        problem = parse_problem(path.read_text(), name=path.name)
        assert problem.poisson_structure.jacobi_verified

    @pytest.mark.parametrize(
        "path", sorted(_CONFORMANCE.glob("invalid/*.pf")), ids=lambda p: p.stem
    )
    def test_invalid_files_rejected(self, path):
        with pytest.raises(ParseError) as err:
            parse_problem(path.read_text(), name=path.name)
        assert err.value.line is not None


class TestCatalog:
    def test_names(self):
        assert catalog_names() == (
            "aff1-cobracket",
            "canonical-r2-rotation",
            "dressing-linearized",
            "hamiltonian-level-set",
            "so3-coadjoint",
        )

    def test_unknown_entry_lists_names(self):
        with pytest.raises(UnknownCatalogError) as err:
            catalog("nonexistent")
        assert "so3-coadjoint" in str(err.value)

    def test_so3_entry_shape(self):
        problem = catalog("so3-coadjoint")
        assert problem.chart.coords == ("x", "y", "z")
        assert problem.bialgebra.dim == 3
        assert problem.pgmap is not None
        assert problem.momentum is not None

    def test_dressing_entry_shape(self):
        problem = catalog("dressing-linearized")
        assert problem.momentum.components[0] == problem.chart.coord_poly("m1")

    def test_every_entry_passes_everything(self):
        for name in catalog_names():
            reports = run_checks(catalog(name), "all")
            failures = [rep.check_id for rep in reports if rep.verdict == "fail"]
            assert failures == [], f"{name}: {failures}"

    def test_catalog_text_reparses(self):
        for name in catalog_names():
            assert parse_problem(catalog_text(name), name=name).chart is not None


class TestRunChecks:
    def test_check_poisson_passes(self):
        assert run_checks(catalog("so3-coadjoint"), "check-poisson")[0].verdict != "fail"

    def test_certify_counterexample_fails(self):
        problem = parse_problem(COUNTEREXAMPLE, name="counterexample")
        reports = run_checks(problem, "certify-pgmap")
        cert = [rep for rep in reports if rep.check_id == "pgmap-certification"]
        assert cert and cert[0].verdict == "fail"
        assert any("cocycle-axiom[e1]" == name for name, _ in cert[0].residuals)

    def test_unknown_command(self):
        with pytest.raises(ParseError):
            run_checks(catalog("so3-coadjoint"), "frobnicate")

    def test_structured_and_text_verdicts_agree(self, capsys):
        reports = run_checks(catalog("so3-coadjoint"), "verify-lift")
        from poissonlift import emit_reports

        parsed = parse_reports(emit_reports(reports))
        assert [rep.verdict for rep in parsed] == [rep.verdict for rep in reports]


class TestMainEntry:
    def test_pass_exit_code(self, capsys):
        assert main(["check-poisson", "canonical-r2-rotation"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_lift_prints_components(self, capsys):
        assert main(["lift", "so3-coadjoint"]) == 0
        out = capsys.readouterr().out
        assert "INFORMATIVE" in out
        assert "pi_TM" in out

    def test_hamiltonian_command(self, capsys):
        assert main(["hamiltonian", "hamiltonian-level-set"]) == 0
        out = capsys.readouterr().out
        assert "level-set-tangency" in out

    def test_symplectic_command(self, capsys):
        assert main(["symplectic", "canonical-r2-rotation"]) == 0
        out = capsys.readouterr().out
        assert "cotangent-momentum-relation" in out

    def test_all_on_catalog(self, capsys):
        assert main(["all", "so3-coadjoint", "--quiet"]) == 0

    def test_fail_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.pf"
        path.write_text(COUNTEREXAMPLE)
        assert main(["certify-pgmap", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.pf"
        path.write_text("manifold { coords: q\n poisson: e_q^e_oops }")
        assert main(["check-poisson", str(path)]) == 2

    def test_unknown_problem_exit_code(self, capsys):
        assert main(["all", "no-such-entry"]) == 2

    def test_report_file_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "report.txt"
        assert main(["verify-lift", "so3-coadjoint", "--report", str(out_path)]) == 0
        parsed = parse_reports(out_path.read_text())
        assert parsed[0].check_id == "tangent-lift-identity"
        assert parsed[0].verdict == "pass"

    def test_flags_override_plan(self, capsys):
        assert main(["verify-lemma", "so3-coadjoint", "--samples", "5", "--seed", "9"]) == 0

    def test_box_flag(self, capsys):
        # leading '-' requires the '=' form, as usual with argparse
        assert main(["check-poisson", "so3-coadjoint", "--box=-1,1"]) == 0

    @pytest.mark.parametrize(
        "flags",
        [["--box", "oops"], ["--samples", "0"], ["--samples", "-3"], ["--box", "2,-2"]],
        ids=["box-oops", "samples-zero", "samples-negative", "box-empty"],
    )
    def test_bad_box_flag(self, capsys, flags):
        assert main(["check-poisson", "so3-coadjoint", *flags]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "problem",
        list(catalog_names()) + [str(p) for p in sorted(_CONFORMANCE.glob("valid/*.pf"))],
        ids=lambda p: Path(p).stem,
    )
    def test_every_command_ends_in_a_verdict(self, capsys, problem):
        for command in COMMANDS:
            code = main([command, problem, "--samples", "5"])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), command
            assert "Traceback" not in err, command


def _count_calls(monkeypatch, module, name: str) -> list:
    """Count calls of ``module.name`` made through any poissonlift module
    that holds it as a global."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.startswith("poissonlift") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("name", catalog_names())
def test_all_certifies_and_lifts_once(monkeypatch, name):
    jacobi = _count_calls(monkeypatch, chart, "jacobi_check")
    lifts = _count_calls(monkeypatch, tangent, "complete_lift_bivector")
    residuals = _count_calls(monkeypatch, reduction, "pgmap_residuals")
    run_checks(catalog(name), "all")
    assert len(lifts) == 1
    assert len(residuals) <= 1
    assert len(jacobi) <= 3


def test_symplectic_builds_its_pgmap_once(monkeypatch):
    calls = _count_calls(monkeypatch, reduction, "symplectic_pgmap")
    assert main(["symplectic", "canonical-r2-rotation"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", catalog_names())
def test_all_runs_each_bialgebra_check_once(monkeypatch, name):
    calls = count_bialgebra_checks(monkeypatch)
    run_checks(catalog(name), "all")
    # check_cojacobi runs check_jacobi once more, on the dual
    assert len(calls) <= 4
