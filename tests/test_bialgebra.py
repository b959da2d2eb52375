"""Structure-constant checks for Lie bialgebras."""

from __future__ import annotations

from fractions import Fraction

import pytest

from poissonlift import LieBialgebra, abelian_bialgebra, so3_bialgebra
from poissonlift.errors import DimensionMismatchError

from conftest import count_bialgebra_checks


def aff1(lam=1) -> LieBialgebra:
    """[e1,e2] = e2 with cobracket delta(e2) = lam e1^e2."""
    return LieBialgebra(("e1", "e2"), {(0, 1): (0, 1)}, {1: {(0, 1): Fraction(lam)}})


class TestJacobi:
    def test_abelian(self):
        assert abelian_bialgebra(("e1", "e2", "e3")).check_jacobi().verdict == "pass"

    def test_so3_brute_force(self):
        assert so3_bialgebra().check_jacobi().verdict == "pass"

    def test_single_pair_bracket_is_a_lie_algebra(self):
        # [e1,e2] = e1 + e2 and nothing else: the brute-force residual
        # sum_cyc [[e_i,e_j],e_k] vanishes for every triple, because every
        # term contains either [e1+e2, e_k] with k > 2 (zero) or a
        # cancelling pair; the oracle confirms there is nothing to report.
        b = LieBialgebra(("e1", "e2", "e3"), {(0, 1): (1, 1, 0)}, {})
        report = b.check_jacobi()
        assert report.verdict == "pass"
        assert report.residuals == ()

    def test_failing_bracket_lists_quadruple(self):
        # [e1,e2] = e3, [e1,e3] = e1: the cyclic sum for (e1,e2,e3) is
        # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 + 0 - [e1,e2] = -e3.
        b = LieBialgebra(("e1", "e2", "e3"), {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}, {})
        report = b.check_jacobi()
        assert report.verdict == "fail"
        names = [name for name, _ in report.residuals]
        assert "jacobi[e1,e2,e3 -> e3]" in names
        assert dict(report.residuals)["jacobi[e1,e2,e3 -> e3]"] == "-1"

    def test_verified_flag_refuses_bad_data(self):
        b = LieBialgebra(("e1", "e2", "e3"), {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}, {})
        assert not b.verified


class TestAntisymmetry:
    def test_folds_reversed_keys(self):
        b = LieBialgebra(("e1", "e2"), {(1, 0): (0, -1)}, {})
        assert b.bracket(0, 1) == (Fraction(0), Fraction(1))

    def test_rejects_inconsistent_pairs(self):
        with pytest.raises(ValueError):
            LieBialgebra(("e1", "e2"), {(0, 1): (0, 1), (1, 0): (0, 1)}, {})

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            LieBialgebra(("e1", "e2"), {(0, 0): (1, 0)}, {})


class TestCocycle:
    def test_zero_cobracket(self):
        assert so3_bialgebra().check_cocycle().verdict == "pass"

    def test_abelian_any_cobracket(self):
        # with zero bracket the adjoint terms vanish and the residual is 0
        b = LieBialgebra(("e1", "e2", "e3"), {}, {0: {(1, 2): 5}, 2: {(0, 1): Fraction(-7, 3)}})
        assert b.check_cocycle().verdict == "pass"

    @pytest.mark.parametrize("lam", [1, 2, Fraction(-5, 7)])
    def test_two_dimensional_family(self, lam):
        # delta([e1,e2]) = lam e1^e2 and ad_(e1)(lam e1^e2) = lam e1^e2 cancel
        assert aff1(lam).check_cocycle().verdict == "pass"
        assert aff1(lam).verified

    def test_detects_violation(self):
        # so3 brackets with delta(e1) = e1^e2: for the pair (e1, e2) the
        # residual is delta(e3) - ad_(e1)(0) + ad_(e2)(e1^e2)
        # = [e2,e1]^e2 + e1^[e2,e2] = -e3^e2 = e2^e3, which is nonzero.
        b = LieBialgebra(
            ("e1", "e2", "e3"),
            {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (2, 0): (0, 1, 0)},
            {0: {(0, 1): 1}},
            verify=False,
        )
        report = b.check_cocycle()
        assert report.verdict == "fail"
        assert dict(report.residuals)["cocycle[e1,e2 -> e2^e3]"] == "1"


class TestCojacobi:
    def test_zero_cobracket(self):
        assert abelian_bialgebra(("e1",)).check_cojacobi().verdict == "pass"

    def test_so3_zero_cobracket(self):
        assert so3_bialgebra().check_cojacobi().verdict == "pass"

    def test_two_dimensional(self):
        assert aff1().check_cojacobi().verdict == "pass"

    def test_dual_of_dual_is_identity(self):
        for b in (so3_bialgebra(), aff1(), aff1(Fraction(2, 3))):
            assert b.dual().dual() == b

    def test_dual_swaps_roles(self):
        d = aff1().dual()
        # dual bracket [f1, f2] = gamma^(12)_k f_k = f2
        assert d.bracket(0, 1) == (Fraction(0), Fraction(1))
        # dual cobracket row of f2 comes from c^2_(12) = 1
        assert d.cobracket_row(1) == {(0, 1): Fraction(1)}


class TestCobracketApply:
    def test_basis_rows(self):
        b = aff1(3)
        assert b.cobracket_apply((1, 0)) == {}
        assert b.cobracket_apply((0, 1)) == {(0, 1): Fraction(3)}

    def test_zero_vector(self):
        assert so3_bialgebra().cobracket_apply((0, 0, 0)) == {}

    def test_linearity(self):
        b = aff1(2)
        left = b.cobracket_apply((1, 1))
        assert left == {(0, 1): Fraction(2)}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            so3_bialgebra().cobracket_apply((1, 0))


def test_catalog_bialgebras_fully_verified():
    for b in (abelian_bialgebra(("e1",)), so3_bialgebra(), aff1()):
        assert b.check_jacobi().verdict == "pass"
        assert b.check_cocycle().verdict == "pass"
        assert b.check_cojacobi().verdict == "pass"
        assert b.verified


class TestStructureChecksOnce:
    def test_computed_on_first_use_and_kept(self, monkeypatch):
        calls = count_bialgebra_checks(monkeypatch)
        b = aff1()
        assert calls == []
        assert b.verified
        # check_cojacobi runs check_jacobi on the dual
        assert sorted(calls) == ["check_cocycle", "check_cojacobi", "check_jacobi", "check_jacobi"]
        reports = b.structure_checks
        assert [rep.check_id for rep in reports] == [
            "bialgebra-jacobi", "bialgebra-cocycle", "bialgebra-cojacobi"
        ]
        assert b.verified
        assert len(calls) == 4

    def test_failing_check_means_unverified(self):
        b = LieBialgebra(("e1", "e2", "e3"), {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}, {})
        assert not b.verified
        assert [rep.verdict for rep in b.structure_checks][0] == "fail"

    def test_verify_false_skips_checks(self, monkeypatch):
        calls = count_bialgebra_checks(monkeypatch)
        b = LieBialgebra(("e1", "e2"), {(0, 1): (0, 1)}, {}, verify=False)
        assert b.verified is False
        assert calls == []
        assert all(rep.passed for rep in b.structure_checks)
        assert b.verified is False
