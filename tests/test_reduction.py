"""PG-map certification, comomenta, lifted generators, level sets and the
symplectic/cotangent comparison.

Sign conventions as documented in poissonlift.poisson; every expected value
below is computed by hand from those conventions in the adjacent comment.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from poissonlift import (
    Chart,
    CoordinateMap,
    DifferentialForm,
    LieBialgebra,
    Multivector,
    PGMap,
    Polynomial,
    Resolved,
    PoissonStructure,
    SymplecticForm,
    bracket_closure_check,
    catalog,
    catalog_names,
    certify_pgmap,
    characteristic_identity_check,
    comomentum_components,
    complete_lift_bivector,
    complete_lift_vf,
    cotangent_momentum_relation,
    d_T,
    differential,
    hamiltonian_pgmap,
    hamiltonian_vf,
    i_T,
    level_set_tangency_check,
    lie_poisson,
    parse_form,
    parse_multivector,
    parse_poly,
    parse_problem,
    sharp,
    so3_bialgebra,
    symplectic_pgmap,
    tangent_chart,
    tangent_generator,
    tangent_generator_check,
    tangent_generator_direct,
)
from poissonlift import _linalg, tangent
from poissonlift.cli import run_checks
from poissonlift.errors import ChartMismatchError, DimensionMismatchError, LevelSetError
from poissonlift.reduction import (
    bracket_closure_residuals,
    characteristic_identity_residuals,
    require_zero_level,
)

from conftest import (
    abelian,
    cayley_rotation,
    count_calls,
    gl_problem,
    integer_points,
    momentum_map,
    rand_form,
    rand_fraction,
    rand_multivector,
    rand_poly,
)
from reference import chained_characteristic_residuals, dense_bracket, dense_koszul


@pytest.fixture
def canonical(chart_qp):
    return PoissonStructure(parse_multivector("e_q^e_p", chart_qp))


@pytest.fixture
def so3(chart_xyz):
    return lie_poisson(so3_bialgebra(), chart_xyz)


@pytest.fixture
def so3_pg(chart_xyz):
    return PGMap(
        so3_bialgebra(), chart_xyz, tuple(parse_form("d" + c, chart_xyz) for c in "xyz")
    )


def aff1_setup():
    """Nonabelian 2-dim bialgebra with nonzero cobracket and its certified family."""
    chart = Chart("M", ("q", "p"))
    b = LieBialgebra(("e1", "e2"), {(0, 1): {1: 1}}, {1: {(0, 1): 1}})
    pi = PoissonStructure(parse_multivector("p*e_q^e_p", chart))
    pg = PGMap(b, chart, (parse_form("dq", chart), parse_form("-p*dq + dp", chart)))
    return chart, b, pi, pg


class TestCertify:
    def test_abelian_exact_image(self, chart_qp, canonical):
        pg = PGMap(abelian(1), chart_qp, (parse_form("dq", chart_qp),))
        assert certify_pgmap(Resolved(canonical, pg)).verdict == "pass"

    def test_so3_exact_images(self, so3, so3_pg):
        # axiom (i) reduces to [df, dg]_pi = d{f, g} for the coordinate duals
        assert certify_pgmap(Resolved(so3, so3_pg)).verdict == "pass"

    def test_momentum_style_counterexample(self, chart_qp, canonical):
        pg = PGMap(abelian(1), chart_qp, (parse_form("p*dq", chart_qp),))
        report = certify_pgmap(Resolved(canonical, pg))
        assert report.verdict == "fail"
        # d(p dq) = dp^dq = -dq^dp survives as the cobracket-axiom residual
        assert dict(report.residuals)["cocycle-axiom[e1]"] == "-dq^dp"

    def test_aff1_family(self):
        _, _, pi, pg = aff1_setup()
        assert certify_pgmap(Resolved(pi, pg)).verdict == "pass"

    @pytest.mark.parametrize("name", ["gl2-perturbed", "gl3-perturbed", "aff1-cobracket"])
    def test_bracket_axiom_matches_the_dense_koszul_route(self, name):
        # second route: the Koszul bracket by its defining formula, two Lie
        # derivatives over every coordinate index, against the Cartan form
        # that pgmap_residuals evaluates from PGMap.differentials
        if name.startswith("gl"):
            problem = parse_problem(gl_problem(int(name[2]), perturb_map=True))
        else:
            problem = catalog(name)
        pi, pg = problem.poisson, problem.pgmap
        b = pg.bialgebra
        residuals = Resolved(pi, pg).certification
        # some image has d(phi) != 0, so a contraction runs
        assert any(not d.is_zero() for d in pg.differentials)
        for i in range(b.dim):
            for j in range(i + 1, b.dim):
                expected = DifferentialForm.zero(pg.chart, 1)
                for m, coeff in b.bracket(i, j).items():
                    expected = expected + pg.images[m] * coeff
                expected = expected - dense_koszul(pi.bivector, pg.images[i], pg.images[j])
                residual = residuals[f"bracket-axiom[{b.basis[i]},{b.basis[j]}]"]
                assert residual == expected
                assert residual.to_string() == expected.to_string()
        bracket_residuals = [res for key, res in residuals.items() if key.startswith("bracket-axiom")]
        assert len(bracket_residuals) == b.dim * (b.dim - 1) // 2
        if name != "aff1-cobracket":  # the perturbed maps fail the axiom
            assert any(not res.is_zero() for res in bracket_residuals)

    def test_refuses_unverified_bialgebra(self, chart_qp, canonical):
        bad = LieBialgebra(("e1", "e2", "e3"), {(0, 1): {2: 1}, (0, 2): {0: 1}}, {})
        assert not bad.verified
        pg = PGMap(bad, chart_qp, tuple(parse_form("dq", chart_qp) for _ in range(3)))
        report = certify_pgmap(Resolved(canonical, pg))
        assert report.check_id == "pgmap-certification"
        assert report.verdict == "fail"
        assert report.residuals == (
            ("unverified-input", "bialgebra failed (or skipped) its structure checks"),
        )

    def test_refuses_unverified_poisson(self, chart_xyz, so3_pg):
        bad = PoissonStructure(parse_multivector("z*e_x^e_y + x*e_x^e_z", chart_xyz))
        report = certify_pgmap(Resolved(bad, so3_pg))
        assert report.verdict == "fail"
        assert report.residuals == (("unverified-input", "Poisson structure is not Jacobi-verified"),)


class TestGenerator:
    def test_harmonic_rotation(self, chart_qp, canonical):
        h = parse_poly("1/2*q^2 + 1/2*p^2", chart_qp.coords)
        pg = PGMap(abelian(1), chart_qp, (differential(chart_qp, h),))
        # pi#(q dq + p dp) = q e_p - p e_q under the fixed conventions
        assert sharp(canonical, pg.images[0]) == parse_multivector("q*e_p - p*e_q", chart_qp)

    def test_coadjoint_rotation_fields(self, chart_xyz, so3, so3_pg):
        # sharp of the linear structure matrix, row by row
        x, y, z = (sharp(so3, image) for image in so3_pg.images)
        assert x == parse_multivector("z*e_y - y*e_z", chart_xyz)
        assert y == parse_multivector("-z*e_x + x*e_z", chart_xyz)
        assert z == parse_multivector("y*e_x - x*e_y", chart_xyz)


class TestComomentum:
    def test_coordinate_form(self, chart_qp, canonical):
        pg = PGMap(abelian(1), chart_qp, (parse_form("dq", chart_qp),))
        r = Resolved(canonical, pg)
        assert r.comomenta == (r.tc.total.coord_poly("v_q"),)

    def test_linearity(self, so3_pg):
        tc = tangent_chart(so3_pg.chart)
        c = comomentum_components(so3_pg, tc)
        assert i_T(tc, so3_pg.images[0] + so3_pg.images[1]).as_poly() == c[0] + c[1]

    def test_dressing_projection(self):
        # identity momentum map on a dual-algebra chart: c is the projection
        # onto the fiber coordinates, component for component
        chart = Chart("G", ("m1", "m2"))
        b = LieBialgebra(("e1", "e2"), {(0, 1): {1: 1}}, {})
        momentum = momentum_map(chart, (chart.coord_poly("m1"), chart.coord_poly("m2")))
        pg = hamiltonian_pgmap(momentum, b)
        tc = tangent_chart(chart)
        assert comomentum_components(pg, tc) == [
            tc.total.coord_poly("v_m1"),
            tc.total.coord_poly("v_m2"),
        ]


class TestBracketClosure:
    def test_abelian_commuting(self, chart_qp, canonical):
        pg = PGMap(
            abelian(2),
            chart_qp,
            (parse_form("dq", chart_qp), parse_form("dp", chart_qp)),
        )
        assert bracket_closure_check(Resolved(canonical, pg)).verdict == "pass"

    def test_so3_closure_exact(self, so3, so3_pg):
        # full symbolic expansion: {v_x, v_y}_TM = v_z and cyclic
        report = bracket_closure_check(Resolved(so3, so3_pg))
        assert report.verdict == "pass"
        tc = tangent_chart(so3_pg.chart)
        pi_tm = complete_lift_bivector(so3, tc)
        from poissonlift import poisson_bracket

        c = comomentum_components(so3_pg, tc)
        assert poisson_bracket(pi_tm, c[0], c[1]) == c[2]

    def test_aff1_closure(self):
        _, _, pi, pg = aff1_setup()
        assert bracket_closure_check(Resolved(pi, pg)).verdict == "pass"

    def test_perturbed_bracket_constant_detected(self, chart_xyz, so3):
        # negative control: scaling [e1,e2] to 2 e3 keeps a valid Lie algebra
        # but breaks closure; the report names the offending pair.
        perturbed = LieBialgebra(
            ("e1", "e2", "e3"),
            {(0, 1): {2: 2}, (1, 2): {0: 1}, (2, 0): {1: 1}},
            {},
        )
        assert perturbed.verified
        pg = PGMap(perturbed, chart_xyz, tuple(parse_form("d" + c, chart_xyz) for c in "xyz"))
        refusal = bracket_closure_check(Resolved(so3, pg))  # certification fails first
        assert refusal.check_id == "bracket-closure"
        assert refusal.verdict == "fail"
        assert refusal.residuals == (("unverified-input",
                                      "map is not certified; failing residuals: bracket-axiom[e1,e2]"),)
        residual = bracket_closure_residuals(Resolved(so3, pg))["closure[e1,e2]"]
        assert not residual.is_zero()
        # residual {c_1, c_2} - 2 c_3 = v_z - 2 v_z = -v_z
        assert residual.to_string() == "-v_z"


    @pytest.mark.parametrize("name", [*catalog_names(), "gl3", "gl3-perturbed"])
    def test_closure_matches_the_dense_bracket(self, name):
        # second route: {c_i, c_j}_TM by a walk over every component of pi_TM,
        # sharing neither sharp nor pairing with <dc_j, X_(c_i)>
        if name.startswith("gl3"):
            problem = parse_problem(gl_problem(3, perturb_map=name == "gl3-perturbed"))
        else:
            problem = catalog(name)
        r = Resolved(problem.poisson, problem.pgmap)
        b, c = r.pg.bialgebra, r.comomenta
        residuals = bracket_closure_residuals(r)
        assert len(residuals) == b.dim * (b.dim - 1) // 2
        for i in range(b.dim):
            for j in range(i + 1, b.dim):
                expected = dense_bracket(r.pi_tm.bivector, c[i], c[j])
                for k, coeff in b.bracket(i, j).items():
                    expected = expected - coeff * c[k]
                residual = residuals[f"closure[{b.basis[i]},{b.basis[j]}]"]
                assert residual == expected
                assert residual.to_string() == expected.to_string()
        if name == "gl3-perturbed":
            assert any(not residual.is_zero() for residual in residuals.values())


class TestTangentGenerator:
    def test_rotation_both_branches(self, chart_qp, canonical):
        h = parse_poly("1/2*q^2 + 1/2*p^2", chart_qp.coords)
        pg = PGMap(abelian(1), chart_qp, (differential(chart_qp, h),))
        lifted = tangent_generator(Resolved(canonical, pg), 0)
        tc = tangent_chart(chart_qp)
        # complete lift of q e_p - p e_q
        expected = parse_multivector(
            "q*e_p - p*e_q + v_q*e_v_p - v_p*e_v_q", tc.total
        )
        assert lifted == expected
        assert tangent_generator_direct(Resolved(canonical, pg), 0) == expected
        # closed image: the lifted generator is Hamiltonian for c = i_T(dH)
        pi_tm = complete_lift_bivector(canonical, tc)
        c = i_T(tc, pg.images[0]).as_poly()
        assert lifted == hamiltonian_vf(pi_tm, c)

    def test_so3_matches_complete_lift(self, so3, so3_pg):
        lifted = tangent_generator(Resolved(so3, so3_pg), 2)
        tc = tangent_chart(so3_pg.chart)
        direct = complete_lift_vf(tc, sharp(so3, so3_pg.images[2]))
        assert lifted == direct

    def test_agreement_check_all_setups(self, canonical, chart_qp, so3, so3_pg):
        _, _, pi_aff, pg_aff = aff1_setup()
        pg_ab = PGMap(abelian(1), chart_qp, (parse_form("dq", chart_qp),))
        for pg, pi in ((pg_ab, canonical), (so3_pg, so3), (pg_aff, pi_aff)):
            assert tangent_generator_check(Resolved(pi, pg)).verdict == "pass"

    def test_abelian_closed_hamiltonian(self, chart_qp, canonical):
        pg = PGMap(abelian(1), chart_qp, (parse_form("dq", chart_qp),))
        tc = tangent_chart(chart_qp)
        pi_tm = complete_lift_bivector(canonical, tc)
        assert tangent_generator(Resolved(canonical, pg), 0) == hamiltonian_vf(
            pi_tm, tc.total.coord_poly("v_q")
        )


class TestCharacteristicIdentity:
    def test_zero_cobracket_cases(self, canonical, chart_qp, so3, so3_pg):
        pg = PGMap(abelian(1), chart_qp, (parse_form("dq", chart_qp),))
        assert characteristic_identity_check(Resolved(canonical, pg)).verdict == "pass"
        assert characteristic_identity_check(Resolved(so3, so3_pg)).verdict == "pass"

    def test_aff1_nonzero_gamma(self):
        # i_T(d phi_2) = i_T(dq^dp) = v_q dp - v_p dq must match
        # c_1 tau*phi_2 - c_2 tau*phi_1 with c_1 = v_q, c_2 = -p v_q + v_p
        _, _, pi, pg = aff1_setup()
        assert characteristic_identity_check(Resolved(pi, pg)).verdict == "pass"

    def test_axiom_violating_family_fails(self, chart_qp, canonical):
        pg = PGMap(abelian(1), chart_qp, (parse_form("p*dq", chart_qp),))
        refusal = characteristic_identity_check(Resolved(canonical, pg))
        assert refusal.verdict == "fail"
        assert refusal.residuals == (("unverified-input",
                                      "map is not certified; failing residuals: cocycle-axiom[e1]"),)
        residual = characteristic_identity_residuals(Resolved(canonical, pg))["characteristic[e1]"]
        assert not residual.is_zero()
        # residual i_T(dp^dq) = v_p dq - v_q dp
        assert residual.to_string() == "(v_p)*dq + (-v_q)*dp"

    def test_perturbed_gamma_detected(self):
        # negative control for the cobracket data: doubling gamma keeps the
        # bialgebra valid but breaks both axiom (ii) and this identity.
        chart, _, pi, _ = aff1_setup()
        doubled = LieBialgebra(("e1", "e2"), {(0, 1): {1: 1}}, {1: {(0, 1): 2}})
        assert doubled.verified
        pg = PGMap(doubled, chart, (parse_form("dq", chart), parse_form("-p*dq + dp", chart)))
        cert = certify_pgmap(Resolved(pi, pg))
        assert cert.verdict == "fail"
        assert "cocycle-axiom[e2]" in dict(cert.residuals)
        residuals = characteristic_identity_residuals(Resolved(pi, pg))
        assert not residuals["characteristic[e2]"].is_zero()

    def test_aff1_matches_the_pullback_chain(self):
        problem = catalog("aff1-cobracket")
        r = Resolved(problem.poisson, problem.pgmap)
        assert characteristic_identity_residuals(r) == chained_characteristic_residuals(r)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rows_match_the_pullback_chain(self, seed):
        # the *_residuals functions take no certification step, so random
        # images and cobracket rows need not satisfy either axiom
        rng = random.Random(900 + seed)
        chart = Chart("M", ("x", "y", "z"))
        basis = ("e1", "e2", "e3")
        pairs = [(j, k) for j in range(3) for k in range(j + 1, 3)]
        rows = {i: {pair: rand_fraction(rng) for pair in pairs if rng.random() < 0.7} for i in range(3)}
        pg = PGMap(LieBialgebra(basis, {}, rows), chart,
                   tuple(rand_form(rng, chart, 1, max_degree=3) for _ in basis))
        r = Resolved(PoissonStructure(rand_multivector(rng, chart, 2)), pg)
        fused = characteristic_identity_residuals(r)
        assert fused == chained_characteristic_residuals(r)
        total = r.tc.total.coords
        assert all(poly.variables == total for form in fused.values() for poly in form.components.values())

    def test_reads_base_components_without_pullback(self, monkeypatch):
        # a row pulled both images of each cobracket pair back along TM -> M
        # and summed them with the tensor operators: 2 calls on aff1-cobracket
        problem = catalog("aff1-cobracket")
        r = Resolved(problem.poisson, problem.pgmap)
        r.twists, r.comomenta  # their owners pull back through i_T
        calls = count_calls(monkeypatch, tangent, "base_pullback")
        residuals = characteristic_identity_residuals(r)
        assert all(form.is_zero() for form in residuals.values())
        assert calls == []


class TestHamiltonianComomentum:
    # c_i = d_T(J_i), the complete lift of the function J_i
    def test_harmonic(self, chart_qp):
        j = parse_poly("1/2*q^2 + 1/2*p^2", chart_qp.coords)
        tc = tangent_chart(chart_qp)
        total = tc.total
        assert d_T(tc, DifferentialForm.from_poly(chart_qp, j)).as_poly() == (
            total.coord_poly("q") * total.coord_poly("v_q")
            + total.coord_poly("p") * total.coord_poly("v_p")
        )

    def test_constant_momentum(self, chart_qp):
        tc = tangent_chart(chart_qp)
        assert d_T(tc, DifferentialForm.from_poly(chart_qp, chart_qp.constant_poly(7))).is_zero()

    def test_matches_pgmap_pipeline(self, chart_xyz):
        momentum = momentum_map(chart_xyz, tuple(chart_xyz.coord_poly(c) for c in "xyz"))
        pg = hamiltonian_pgmap(momentum, so3_bialgebra())
        tc = tangent_chart(chart_xyz)
        via_dt = [d_T(tc, DifferentialForm.from_poly(chart_xyz, j)).as_poly() for j in momentum.components]
        assert via_dt == comomentum_components(pg, tc)


class TestLevelSetTangency:
    def test_linear_momentum(self, chart_qp):
        momentum = momentum_map(chart_qp, (chart_qp.coord_poly("p"),))
        param = CoordinateMap(
            Chart("S", ("s",)), chart_qp, (parse_poly("s", ("s",)), parse_poly("0", ("s",)))
        )
        samples = [(Fraction(k, 7),) for k in range(-10, 11)]
        report = level_set_tangency_check(momentum, param, *integer_points(samples))
        assert report.verdict == "pass"

    def test_zero_momentum_everything_passes(self, chart_qp):
        momentum = momentum_map(chart_qp, (chart_qp.zero_poly(),))
        param = CoordinateMap(
            Chart("S", ("a", "b")),
            chart_qp,
            (parse_poly("a", ("a", "b")), parse_poly("b", ("a", "b"))),
        )
        report = level_set_tangency_check(momentum, param, [(1, 2), (0, 0)], 1)
        # dJ vanishes identically: every sample is rank-deficient, informative
        assert report.verdict == "informative"

    def test_isolated_zero_reports_rank_deficient(self, chart_qp):
        momentum = momentum_map(chart_qp, (parse_poly("1/2*q^2 + 1/2*p^2", chart_qp.coords),))
        param = CoordinateMap(
            Chart("S", ("s",)), chart_qp, (parse_poly("0", ("s",)), parse_poly("0", ("s",)))
        )
        report = level_set_tangency_check(momentum, param, [(1,), (6,)], 3)
        assert report.verdict == "informative"
        assert any(name.startswith("RankDeficient") for name, _ in report.residuals)

    def test_rejects_bad_parametrization(self, chart_qp):
        momentum = momentum_map(chart_qp, (chart_qp.coord_poly("p"),))
        param = CoordinateMap(
            Chart("S", ("s",)), chart_qp, (parse_poly("s", ("s",)), parse_poly("s", ("s",)))
        )
        with pytest.raises(LevelSetError):
            require_zero_level(momentum, param)

    def test_zero_level_is_proved_once_at_parse_time(self, monkeypatch):
        # the levelset block holds require_zero_level's value, and the check
        # reads it without composing J with the parametrization again
        problem = catalog("hamiltonian-level-set")
        calls = count_calls(monkeypatch, Polynomial, "compose")
        reports = run_checks(problem, "hamiltonian")
        assert [rep.verdict for rep in reports] == ["pass", "pass"]
        assert calls == []

    @pytest.mark.parametrize("sample", [(), (1, 99), (1, 99, 7)])
    def test_rejects_sample_of_wrong_length(self, chart_qp, sample):
        momentum = momentum_map(chart_qp, (chart_qp.coord_poly("p"),))
        param = CoordinateMap(
            Chart("S", ("s",)), chart_qp, (parse_poly("s", ("s",)), parse_poly("0", ("s",)))
        )
        with pytest.raises(DimensionMismatchError):
            level_set_tangency_check(momentum, param, [(1,), sample], 1)

    def test_without_components_the_level_set_is_the_chart(self, chart_qp):
        # J^-1(0) is all of M, so a curve does not span its tangent space
        param = CoordinateMap(
            Chart("S", ("s",)), chart_qp, (parse_poly("s", ("s",)), parse_poly("0", ("s",)))
        )
        report = level_set_tangency_check(momentum_map(chart_qp, ()), param, [(2,)], 1)
        assert report.verdict == "fail"
        assert report.residuals == (("kernel-not-spanned[sample 0]", "1"),)


# -- the tangency check against its Fraction route ---------------------------------------
# The route below is the check as it ran before it moved to integers: Fraction
# substitution at every sample, RREF, a kernel basis of dJ and one rank per kernel
# vector.  It keeps the forward test G.C = 0, which cannot fail on a zero level.


def _fraction_rref(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    rows, cols = len(a), len(a[0]) if a else 0
    pivots = []
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def _fraction_rank(mat):
    return len(_fraction_rref(mat)[1])


def _fraction_kernel_basis(mat):
    a, pivots = _fraction_rref(mat)
    cols = len(a[0]) if a else 0
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for row_idx, pcol in enumerate(pivots):
            vec[pcol] = -a[row_idx][f]
        basis.append(vec)
    return basis


def _fraction_level_set_route(momentum, parametrization, samples):
    """(verdict, residuals) of the Fraction route."""
    chart = momentum.source
    jac = parametrization.jacobian()
    grads = [[j_comp.derivative(c) for c in chart.coords] for j_comp in momentum.components]
    m = parametrization.source.dim
    n = chart.dim
    residuals = {}
    informative_entries = []
    failures = 0
    for s_index, s in enumerate(samples):
        assignment = dict(zip(parametrization.source.coords, (Fraction(x) for x in s)))
        point = [p.substitute(assignment) for p in parametrization.components]
        point_assignment = dict(zip(chart.coords, point))
        jac_at = [[entry.substitute(assignment) for entry in row] for row in jac]
        grad_at = [[entry.substitute(point_assignment) for entry in row] for row in grads]
        for a in range(m):
            direction = [jac_at[i][a] for i in range(n)]
            for gi, grad in enumerate(grad_at):
                value = sum((g * d for g, d in zip(grad, direction)), Fraction(0))
                if value != 0:
                    failures += 1
                    residuals[f"pushforward[sample {s_index}, dir {a}, J_{gi}]"] = value
        if _fraction_rank(grad_at) < len(momentum.components):
            informative_entries.append(
                (f"RankDeficient[sample {s_index}]",
                 "differential of J drops rank at this level-set point")
            )
            continue
        columns = [[jac_at[i][a] for i in range(n)] for a in range(m)]
        span_rank = _fraction_rank([list(col) for col in zip(*columns)]) if columns else 0
        for kv in _fraction_kernel_basis(grad_at):
            stacked = [list(row) for row in zip(*(columns + [kv]))] if columns else [[x] for x in kv]
            if _fraction_rank(stacked) != span_rank:
                failures += 1
                residuals[f"kernel-not-spanned[sample {s_index}]"] = Fraction(1)
    entries = [(name, str(value)) for name, value in residuals.items()]
    verdict = "fail" if failures else "informative" if informative_entries else "pass"
    return verdict, tuple(entries + informative_entries)


def _small_poly(rng, variables, max_degree):
    return rand_poly(rng, variables, max_degree if variables else 0)


def _random_level_set(rng):
    """A random zero level and its parametrization, as the graph of a map:
    coordinates x_0..x_(d-1) are g(s), every later x_i is f_i(g(s)), and
    J_k = sum_i A_ki(x) (x_i - f_i(x_0..x_(d-1))) vanishes on the image."""
    n, m = rng.randint(1, 4), rng.randint(0, 3)
    d = rng.randint(0, min(m, n))
    k = n - d if 1 <= n - d <= 3 and rng.random() < 0.6 else rng.randint(1, 3)
    xs = tuple(f"x{i}" for i in range(n))
    ss = tuple(f"s{a}" for a in range(m))
    chart, source = Chart("X", xs), Chart("S", ss)
    free = [
        (rand_fraction(rng, 3) or 1) * source.coord_poly(ss[i]) + _small_poly(rng, ss, 2)
        if rng.random() < 0.8 else _small_poly(rng, ss, 2)
        for i in range(d)
    ]
    graph = [_small_poly(rng, xs[:d], 2) for _ in range(d, n)]
    on_source = [f.compose(dict(zip(xs[:d], free))) for f in graph]
    param = CoordinateMap(source, chart, tuple(free + on_source))
    components = []
    for _ in range(k):
        j = chart.zero_poly()
        for i, f in zip(range(d, n), graph):
            if rng.random() < 0.8:
                j = j + _small_poly(rng, xs, 1) * (chart.coord_poly(xs[i]) - f)
        components.append(j)
    samples = [tuple(rand_fraction(rng, 3) for _ in range(m)) for _ in range(4)]
    return momentum_map(chart, tuple(components)), param, samples


class TestLevelSetAgainstFractionRoute:
    def test_zero_levels_agree(self):
        rng = random.Random(20261018)
        verdicts = []
        for index in range(150):
            momentum, param, samples = _random_level_set(rng)
            points, denominator = integer_points(samples)
            # a stream's denominator can exceed the least common one
            scale = 1 + index % 3
            report = level_set_tangency_check(
                momentum, param, [tuple(scale * x for x in point) for point in points], scale * denominator)
            expected = _fraction_level_set_route(momentum, param, samples)
            assert (report.verdict, report.residuals) == expected
            verdicts.append(report.verdict)
        assert set(verdicts) == {"pass", "fail", "informative"}


class TestIntegerRank:
    def test_against_fraction_rref(self):
        rng = random.Random(3)
        for _ in range(400):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            mat = [[rand_fraction(rng, 3) if rng.random() < 0.7 else Fraction(0) for _ in range(cols)]
                   for _ in range(rows)]
            if rows > 1 and rng.random() < 0.3:
                mat[-1] = list(mat[0])  # a repeated row
            if rows and rng.random() < 0.2:
                mat[0] = [x * rng.randint(-3, 3) for x in mat[-1]]  # a multiple of another row
            # clearing each row's denominators keeps the rank
            scaled = []
            for row in mat:
                lcm = math.lcm(*(x.denominator for x in row))
                scaled.append([int(x * lcm) for x in row])
            assert _linalg.rank(scaled) == (_fraction_rank(mat) if cols else 0)

    def test_single_row_or_column_against_bareiss(self):
        # a zero row and a zero column keep the rank and send the matrix
        # through the elimination that a single row or column skips
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 6)
            line = [rng.randint(-9, 9) if rng.random() < 0.4 else 0 for _ in range(n)]
            for mat in ([line], [[x] for x in line]):
                padded = [row + [0] for row in mat] + [[0] * (len(mat[0]) + 1)]
                assert _linalg.rank(mat) == _linalg.rank(padded)

    @pytest.mark.parametrize("mat,expected", [
        ([], 0),
        ([[]], 0),
        ([[], []], 0),
        ([[0, 0], [0, 0], [0, 0]], 0),
        ([[0, 3, -6]], 1),
        ([[0], [0], [5]], 1),
        ([[1, 2, 3], [1, 2, 3], [2, 4, 6]], 1),
        ([[0, 2, 1], [0, 4, 3], [0, 6, 4]], 2),
        ([[2, 3], [4, 5]], 2),
    ])
    def test_small_cases(self, mat, expected):
        assert _linalg.rank(mat) == expected


class TestSymplecticAction:
    def test_rotation(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        rotation = parse_multivector("-p*e_q + q*e_p", chart_qp)
        pg, report = symplectic_pgmap(omega, [rotation], abelian(1))
        assert report.verdict == "pass"
        # i_X omega = -q dq - p dp, closed and exact
        assert pg.images[0] == parse_form("-q*dq - p*dp", chart_qp)
        tc = tangent_chart(chart_qp)
        c = i_T(tc, pg.images[0]).as_poly()
        total = tc.total
        assert c == -(
            total.coord_poly("q") * total.coord_poly("v_q")
            + total.coord_poly("p") * total.coord_poly("v_p")
        )

    def test_translation(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        pg, report = symplectic_pgmap(omega, [parse_multivector("e_q", chart_qp)], abelian(1))
        assert report.verdict == "pass"
        assert pg.images[0] == parse_form("dp", chart_qp)

    def test_non_invariant_rejected(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        pg, report = symplectic_pgmap(omega, [parse_multivector("q*e_q", chart_qp)], abelian(1))
        assert pg is None
        assert report.check_id == "symplectic-images-closed"
        assert report.verdict == "fail"
        assert report.residuals == (("L_X(omega)[0]", "dq^dp"),)

    def test_generator_recovered_by_sharp(self, chart_qp):
        from poissonlift import sharp

        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        pi = omega.poisson
        rotation = parse_multivector("-p*e_q + q*e_p", chart_qp)
        pg, _ = symplectic_pgmap(omega, [rotation], abelian(1))
        assert sharp(pi, pg.images[0]) == rotation


class TestCotangentMomentumRelation:
    def test_rotation(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        rotation = parse_multivector("-p*e_q + q*e_p", chart_qp)
        pg, _ = symplectic_pgmap(omega, [rotation], abelian(1))
        report = cotangent_momentum_relation(tangent_chart(chart_qp), omega, [rotation], pg)
        assert report.verdict == "pass"
        assert "c = -(j . omega_flat)" in report.identity

    def test_zero_action(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        fields = [Multivector.zero(chart_qp, 1)]
        pg, _ = symplectic_pgmap(omega, fields, abelian(1))
        report = cotangent_momentum_relation(tangent_chart(chart_qp), omega, fields, pg)
        assert report.verdict == "pass"

    def test_translation(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        fields = [parse_multivector("e_q", chart_qp)]
        pg, _ = symplectic_pgmap(omega, fields, abelian(1))
        report = cotangent_momentum_relation(tangent_chart(chart_qp), omega, fields, pg)
        assert report.verdict == "pass"
        assert "c = -(j . omega_flat)" in report.identity

    def test_both_generators_consistent_sign(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        fields = [
            parse_multivector("-p*e_q + q*e_p", chart_qp),
            parse_multivector("e_q", chart_qp),
            parse_multivector("e_p", chart_qp),
        ]
        report = cotangent_momentum_relation(tangent_chart(chart_qp), omega, fields, symplectic_pgmap(omega, fields, abelian(3))[0])
        assert report.verdict == "pass"
        assert "c = -(j . omega_flat)" in report.identity

    def test_pgmap_for_other_generators_rejected(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        fields = [parse_multivector("e_q", chart_qp), parse_multivector("e_p", chart_qp)]
        pg, _ = symplectic_pgmap(omega, fields[:1], abelian(1))
        with pytest.raises(DimensionMismatchError):
            cotangent_momentum_relation(tangent_chart(chart_qp), omega, fields, pg)

    def test_tangent_chart_of_another_base_rejected(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        fields = [parse_multivector("e_q", chart_qp)]
        pg, _ = symplectic_pgmap(omega, fields, abelian(1))
        with pytest.raises(ChartMismatchError):
            cotangent_momentum_relation(tangent_chart(Chart("N", ("q",))), omega, fields, pg)


class TestRandomizedCertifiedFamilies:
    def test_orthogonal_momentum_families_on_so3(self, chart_xyz, so3):
        # rational rotations from the Cayley transform of skew matrices give
        # exactly equivariant linear momentum maps: J = A x with A in SO(3)
        rng = random.Random(40)
        for _ in range(10):
            A = cayley_rotation(rng)
            momentum = momentum_map(
                chart_xyz,
                tuple(
                    sum(
                        (A[i][k] * chart_xyz.coord_poly(chart_xyz.coords[k]) for k in range(3)),
                        chart_xyz.zero_poly(),
                    )
                    for i in range(3)
                ),
            )
            pg = hamiltonian_pgmap(momentum, so3_bialgebra())
            assert certify_pgmap(Resolved(so3, pg)).verdict == "pass"
            assert tangent_generator_check(Resolved(so3, pg)).verdict == "pass"
