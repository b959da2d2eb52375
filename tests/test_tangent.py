"""Tangent derivations, exchange maps and complete lifts."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from poissonlift import (
    Chart,
    CoordinateMap,
    DifferentialForm,
    Multivector,
    Polynomial,
    PoissonStructure,
    base_pullback,
    bundle_chart,
    catalog,
    complete_lift_bivector,
    complete_lift_vf,
    d_T,
    differential,
    exterior_derivative,
    i_T,
    jacobi_check,
    lie_derivative,
    lie_poisson,
    parse_form,
    parse_multivector,
    parse_poly,
    so3_bialgebra,
    tangent,
    tangent_chart,
    wedge,
)
from poissonlift.cli import run_checks
from poissonlift.errors import NameCollisionError, NotPoissonError
from poissonlift.problemfile import parse_problem
from poissonlift.tangent import one_form_lift_residuals, tangent_lift_residuals

from conftest import (
    count_calls,
    dense_vector,
    gl_problem,
    is_one_form,
    rand_form,
    rand_multivector,
    rand_poly,
    run_lifted,
    use_wrong_lift_kernel,
)
from reference import (
    canonical_involution,
    compose,
    dense_complete_lift,
    dense_lemma_residuals,
    is_identity,
    one_form_prolongation,
    tulczyjew_alpha,
    tulczyjew_alpha_inverse,
)


@pytest.fixture
def tc_qp(chart_qp):
    return tangent_chart(chart_qp)


def assert_graded_sum(lhs, parts):
    """lhs equals the sum of the parts, where a part of the wrong degree is
    tolerated only if it is a degree-clamped zero (e.g. i_T of a function)."""
    total = None
    for part in parts:
        if part.degree != lhs.degree:
            assert part.is_zero()
            continue
        total = part if total is None else total + part
    if total is None:
        assert lhs.is_zero()
    else:
        assert lhs == total


class TestTangentChart:
    def test_fiber_names(self, chart_qp):
        tc = tangent_chart(chart_qp)
        assert tc.total.coords == ("q", "p", "v_q", "v_p")

    def test_single_coordinate(self):
        tc = tangent_chart(Chart("L", ("x",)))
        assert tc.total.coords == ("x", "v_x")

    def test_name_collision(self):
        with pytest.raises(NameCollisionError):
            tangent_chart(Chart("B", ("q", "v_q")))


class TestBasePullback:
    def test_one_form(self, chart_qp, tc_qp):
        pulled = base_pullback(tc_qp, parse_form("q*dq", chart_qp))
        assert pulled == parse_form("q*dq", tc_qp.total)

    def test_function(self, chart_qp, tc_qp):
        f = DifferentialForm.from_poly(chart_qp, chart_qp.coord_poly("q"))
        assert base_pullback(tc_qp, f).as_poly() == tc_qp.total.coord_poly("q")

    def test_two_form(self, chart_qp, tc_qp):
        pulled = base_pullback(tc_qp, parse_form("dq^dp", chart_qp))
        assert pulled == parse_form("dq^dp", tc_qp.total)

    def test_zero_polynomial_is_the_kept_zero(self, chart_qp, tc_qp):
        # a base polynomial meets a bundle polynomial on the bundle's universe,
        # which extends the base's, so no key is rebuilt
        zero = tc_qp.total.zero_poly()
        assert zero + chart_qp.zero_poly() is zero
        assert zero + parse_poly("q - q", ("q",)) is zero
        p = parse_poly("q*p", chart_qp.coords)
        pulled = zero + p
        assert pulled.variables == tc_qp.total.coords
        assert pulled._terms is p._terms
        assert pulled == tc_qp.total.coord_poly("q") * tc_qp.total.coord_poly("p")


class TestVerticalContraction:
    def test_one_form(self, chart_qp, tc_qp):
        got = i_T(tc_qp, parse_form("q*dq", chart_qp))
        assert got.as_poly() == tc_qp.total.coord_poly("q") * tc_qp.total.coord_poly("v_q")

    def test_zero_on_functions(self, chart_qp, tc_qp):
        rng = random.Random(31)
        for _ in range(10):
            f = DifferentialForm.from_poly(chart_qp, rand_poly(rng, chart_qp.coords))
            assert i_T(tc_qp, f).is_zero()

    def test_area_form(self, chart_qp, tc_qp):
        got = i_T(tc_qp, parse_form("dq^dp", chart_qp))
        assert got == parse_form("v_q*dp - v_p*dq", tc_qp.total)

    def test_degree_minus_one_leibniz(self):
        # i_T(w1 ^ w2) = i_T(w1) ^ tau*w2 + (-1)^k tau*w1 ^ i_T(w2)
        rng = random.Random(32)
        for dim in (1, 2, 3):
            chart = Chart("B", tuple(f"x{i}" for i in range(dim)))
            tc = tangent_chart(chart)
            for _ in range(12):
                k = rng.randint(0, dim)
                l = rng.randint(0, dim - k)
                w1 = rand_form(rng, chart, k)
                w2 = rand_form(rng, chart, l)
                lhs = i_T(tc, wedge(w1, w2))
                first = wedge(i_T(tc, w1), base_pullback(tc, w2))
                second = wedge(base_pullback(tc, w1), i_T(tc, w2))
                if k % 2:
                    second = -second
                assert_graded_sum(lhs, (first, second))


def _complete_lift_form_oracle(tc, omega: DifferentialForm) -> DifferentialForm:
    """Direct coordinate formula for the complete lift of a form:

    d_T(w) = sum_I (v_k d_k w_I) dq^I
           + sum_I w_I sum_a (-1)^(k-a-1) dq^(I minus i_a) ^ dv^(i_a sorted last)
    assembled through from_terms.  It is written for T alone and moves each dv
    last by hand, while ``d_T`` runs the chart's Lie derivative kernel, which
    takes any field.
    """
    chart = omega.chart
    n = chart.dim
    terms = []
    for idx, poly in omega.components.items():
        transported = tc.total.zero_poly()
        for k, ck in enumerate(chart.coords):
            d = poly.derivative(ck)
            if not d.is_zero():
                transported = transported + tc.coord_blocks[1][k] * d.with_variables(tc.total.coords)
        if not transported.is_zero():
            terms.append((idx, transported))
        pulled = poly.with_variables(tc.total.coords)
        for pos, i in enumerate(idx):
            swapped = idx[:pos] + idx[pos + 1:] + (n + i,)
            sign = 1 if (len(idx) - pos - 1) % 2 == 0 else -1
            terms.append((swapped, pulled * sign))
    return DifferentialForm.from_terms(tc.total, omega.degree, terms)


class TestCompleteLiftOfForms:
    def test_coordinate_function(self, chart_qp, tc_qp):
        f = DifferentialForm.from_poly(chart_qp, chart_qp.coord_poly("q"))
        assert d_T(tc_qp, f).as_poly() == tc_qp.total.coord_poly("v_q")

    def test_one_form_coordinate_data(self, chart_qp, tc_qp):
        # for theta = theta_j dq^j: dq-coefficients d_j theta_i v_j, dv-coefficients theta_i
        theta = parse_form("q^2*dp + p*dq", chart_qp)
        lifted = d_T(tc_qp, theta)
        total = tc_qp.total
        dq, dp, dv_q, dv_p = dense_vector(lifted)
        assert dq == total.coord_poly("v_p")  # d_p(p) v_p
        assert dp == 2 * total.coord_poly("q") * total.coord_poly("v_q")
        assert dv_q == total.coord_poly("p")
        assert dv_p == total.coord_poly("q") ** 2

    def test_area_form(self, chart_qp, tc_qp):
        got = d_T(tc_qp, parse_form("dq^dp", chart_qp))
        assert got == parse_form("dq^dv_p - dp^dv_q", tc_qp.total)

    def test_lie_derivative_kernel_equals_direct_formula(self):
        rng = random.Random(33)
        for dim in (1, 2, 3):
            chart = Chart("B", tuple(f"x{i}" for i in range(dim)))
            tc = tangent_chart(chart)
            for _ in range(12):
                omega = rand_form(rng, chart, rng.randint(0, dim))
                assert d_T(tc, omega) == _complete_lift_form_oracle(tc, omega)

    def test_functions_lift_to_contracted_differential(self):
        # d_T f = v_k d_k f must equal i_T(df), the route through 1-forms
        rng = random.Random(40)
        for dim in (1, 2, 3):
            chart = Chart("B", tuple(f"x{i}" for i in range(dim)))
            tc = tangent_chart(chart)
            for _ in range(12):
                f = rand_poly(rng, chart.coords)
                lifted = d_T(tc, DifferentialForm.from_poly(chart, f))
                assert lifted == i_T(tc, differential(chart, f))

    def test_degree_zero_leibniz(self):
        # d_T(w1 ^ w2) = d_T(w1) ^ tau*w2 + tau*w1 ^ d_T(w2), the degree-0
        # instance of the twisted derivation law (no sign).
        rng = random.Random(34)
        for dim in (1, 2, 3):
            chart = Chart("B", tuple(f"x{i}" for i in range(dim)))
            tc = tangent_chart(chart)
            for _ in range(12):
                k = rng.randint(0, dim)
                w1 = rand_form(rng, chart, k)
                w2 = rand_form(rng, chart, rng.randint(0, dim - k))
                lhs = d_T(tc, wedge(w1, w2))
                rhs = wedge(d_T(tc, w1), base_pullback(tc, w2)) + wedge(
                    base_pullback(tc, w1), d_T(tc, w2)
                )
                assert lhs == rhs

    def test_commutes_with_d(self):
        rng = random.Random(35)
        for dim in (1, 2, 3):
            chart = Chart("B", tuple(f"x{i}" for i in range(dim)))
            tc = tangent_chart(chart)
            for _ in range(10):
                omega = rand_form(rng, chart, rng.randint(0, dim - 1))
                lhs = exterior_derivative(d_T(tc, omega))
                rhs = d_T(tc, exterior_derivative(omega))
                if lhs.degree == rhs.degree:
                    assert lhs == rhs
                else:
                    assert lhs.is_zero() and rhs.is_zero()


class TestExchangeMaps:
    def test_alpha_on_line(self):
        tc = tangent_chart(Chart("L", ("q",)))
        alpha = tulczyjew_alpha(tc)
        # (q, p, qdot, pdot) -> (q, qdot, pdot, p)
        assert alpha.components == tuple(alpha.source.coord_poly(c) for c in ("q", "dot_q", "dot_p_q", "p_q"))

    def test_alpha_inverse(self):
        for dim in (1, 2, 3):
            tc = tangent_chart(Chart("B", tuple(f"x{i}" for i in range(dim))))
            alpha = tulczyjew_alpha(tc)
            inv = tulczyjew_alpha_inverse(tc)
            assert is_identity(compose(alpha, inv))
            assert is_identity(compose(inv, alpha))

    def test_alpha_dimensions(self, chart_qp, tc_qp):
        alpha = tulczyjew_alpha(tc_qp)
        assert alpha.source.dim == alpha.target.dim == 4 * chart_qp.dim

    def test_involution(self):
        for dim in (1, 2, 3):
            tc = tangent_chart(Chart("B", tuple(f"x{i}" for i in range(dim))))
            kappa = canonical_involution(tc)
            assert is_identity(compose(kappa, kappa))

    def test_involution_swaps_middle_blocks(self, tc_qp):
        kappa = canonical_involution(tc_qp)
        coords = kappa.source.coords
        assert kappa.components == tuple(kappa.source.coord_poly(coords[i]) for i in (0, 1, 4, 5, 2, 3, 6, 7))

    def test_involution_fixed_points(self, tc_qp):
        kappa = canonical_involution(tc_qp)
        tt = kappa.source
        # the points whose v block equals their qdot block
        diagonal = CoordinateMap(tt, tt, tuple(tt.coord_poly(tt.coords[i]) for i in (0, 1, 2, 3, 2, 3, 6, 7)))
        assert compose(kappa, diagonal).components == diagonal.components


class TestCompleteLiftVectorField:
    def test_constant_field(self, chart_qp, tc_qp):
        lifted = complete_lift_vf(tc_qp, parse_multivector("e_q", chart_qp))
        assert lifted == parse_multivector("e_q", tc_qp.total)

    def test_euler_field(self, chart_qp, tc_qp):
        lifted = complete_lift_vf(tc_qp, parse_multivector("q*e_q", chart_qp))
        assert lifted == parse_multivector("q*e_q + v_q*e_v_q", tc_qp.total)

    def test_rotation_field(self):
        chart = Chart("M", ("x", "y"))
        tc = tangent_chart(chart)
        lifted = complete_lift_vf(tc, parse_multivector("x*e_y - y*e_x", chart))
        assert lifted == parse_multivector(
            "x*e_y - y*e_x + v_x*e_v_y - v_y*e_v_x", tc.total
        )

    def test_matches_flip_of_prolongation(self, chart_qp, tc_qp):
        # oracle: build T(X): TM -> TTM by hand, flip the middle blocks with
        # the involution, and read the last 2n components as a field on TM.
        rng = random.Random(36)
        ttm = bundle_chart(chart_qp, "TT")
        kappa = canonical_involution(tc_qp)
        n = chart_qp.dim
        for _ in range(10):
            X = rand_multivector(rng, chart_qp, 1)
            x = dense_vector(X)
            comps = [tc_qp.total.coord_poly(c) for c in chart_qp.coords]
            comps += [xi.with_variables(tc_qp.total.coords) for xi in x]
            comps += [tc_qp.total.coord_poly(f"v_{c}") for c in chart_qp.coords]
            for i in range(n):
                vertical = tc_qp.total.zero_poly()
                for k, ck in enumerate(chart_qp.coords):
                    vertical = vertical + tc_qp.coord_blocks[1][k] * x[i].derivative(
                        ck
                    ).with_variables(tc_qp.total.coords)
                comps.append(vertical)
            prolonged = CoordinateMap(tc_qp.total, ttm, tuple(comps))
            flipped = compose(kappa, prolonged)
            expected = Multivector(
                tc_qp.total,
                1,
                {(i,): flipped.components[2 * n + i] for i in range(2 * n)},
            )
            assert complete_lift_vf(tc_qp, X) == expected

    def test_comomentum_compatibility(self, chart_qp, tc_qp):
        # X^c(i_T theta) = i_T(L_X theta) for random fields and 1-forms
        rng = random.Random(37)
        for _ in range(10):
            X = rand_multivector(rng, chart_qp, 1)
            theta = rand_form(rng, chart_qp, 1)
            lifted = complete_lift_vf(tc_qp, X)
            lhs = lie_derivative(
                lifted, DifferentialForm.from_poly(tc_qp.total, i_T(tc_qp, theta).as_poly())
            ).as_poly()
            rhs = i_T(tc_qp, lie_derivative(X, theta)).as_poly()
            assert lhs == rhs


@pytest.fixture
def canonical_qp(chart_qp):
    return PoissonStructure(parse_multivector("e_q^e_p", chart_qp))


def _degree_in(poly, names) -> int:
    """The largest combined exponent of the given variables over the terms."""
    at = [poly.variables.index(n) for n in names if n in poly.variables]
    return max((sum(exps[i] for i in at) for exps in poly.terms), default=0)


class TestCompleteLiftBivector:
    def test_canonical_components(self, chart_qp, canonical_qp):
        lifted = complete_lift_bivector(canonical_qp, tangent_chart(chart_qp))
        expected = parse_multivector("e_q^e_v_p - e_p^e_v_q", tangent_chart(chart_qp).total)
        assert lifted.bivector == expected
        assert lifted.jacobi_verified

    def test_canonical_identity(self, chart_qp, canonical_qp):
        assert run_lifted("tangent-lift-identity", canonical_qp).verdict == "pass"

    def test_so3_lift(self, chart_xyz):
        pi = lie_poisson(so3_bialgebra(), chart_xyz)
        lifted = complete_lift_bivector(pi, tangent_chart(chart_xyz))
        assert lifted.jacobi_verified
        assert jacobi_check(lifted.bivector).is_zero()
        assert run_lifted("tangent-lift-identity", pi).verdict == "pass"
        # fiberwise linear: v-degree at most one, exactly one somewhere
        fibers = [f"v_{c}" for c in chart_xyz.coords]
        degrees = [_degree_in(poly, fibers) for poly in lifted.bivector.components.values()]
        assert max(degrees) == 1

    def test_zero_lift(self, chart_qp):
        pi = PoissonStructure(Multivector.zero(chart_qp, 2))
        assert complete_lift_bivector(pi, tangent_chart(chart_qp)).bivector.is_zero()

    def test_rejects_unverified(self, chart_xyz):
        bad = PoissonStructure(
            parse_multivector("z*e_x^e_y + x*e_x^e_z", chart_xyz)
        )
        with pytest.raises(NotPoissonError):
            complete_lift_bivector(bad, tangent_chart(chart_xyz))

    def test_wrong_candidate_detected(self, chart_qp, canonical_qp):
        zero = Multivector.zero(tangent_chart(chart_qp).total, 2)
        residuals = tangent_lift_residuals(canonical_qp, PoissonStructure(zero))
        # nonzero residuals witnessing failure
        assert any(not residual.is_zero() for residual in residuals.values())

    def test_fiber_degree_invariant(self):
        rng = random.Random(38)
        chart = Chart("M", ("q", "p"))
        tc = tangent_chart(chart)
        fibers = [f"v_{c}" for c in chart.coords]
        for _ in range(15):
            bivector = rand_multivector(rng, chart, 2, max_degree=2)
            pi = PoissonStructure(bivector)  # dim 2: always Poisson
            lifted = complete_lift_bivector(pi, tc)
            polys = list(lifted.bivector.components.values())
            assert all(_degree_in(poly, fibers) <= 1 for poly in polys)
            nonconstant = any(
                not mat_entry.is_constant() for mat_entry in bivector.components.values()
            )
            has_linear = any(_degree_in(poly, fibers) == 1 for poly in polys)
            assert has_linear == nonconstant

    def test_lift_identity_on_random_two_dim(self):
        rng = random.Random(39)
        chart = Chart("M", ("q", "p"))
        tc = tangent_chart(chart)
        for _ in range(10):
            pi = PoissonStructure(rand_multivector(rng, chart, 2, max_degree=2))
            residuals = tangent_lift_residuals(pi, complete_lift_bivector(pi, tc))
            assert all(residual.is_zero() for residual in residuals.values())


def lemma_holds(theta: DifferentialForm) -> bool:
    """Whether every residual of alpha . T(theta) = d_T(theta) is zero."""
    residuals = one_form_lift_residuals(tangent_chart(theta.chart), {"": theta})
    return all(r.is_zero() for r in residuals.values())


class TestOneFormLiftIdentity:
    def test_euler_form_on_line(self):
        chart = Chart("L", ("q",))
        assert lemma_holds(parse_form("q*dq", chart))

    def test_constant_form(self, chart_qp):
        assert lemma_holds(parse_form("dq", chart_qp))

    def test_mixed_form(self, chart_qp):
        assert lemma_holds(parse_form("q^2*dp + p*dq", chart_qp))

    def test_prolongation_coordinates(self, chart_qp, tc_qp):
        # T(theta)(q, v) = (q, theta(q), v, (d_k theta_j) v_k) read blockwise
        theta = parse_form("q*p*dq + p^2*dp", chart_qp)
        prolonged = one_form_prolongation(tc_qp, theta)
        point = {"q": Fraction(2), "p": Fraction(3), "v_q": Fraction(1), "v_p": Fraction(5)}
        values = [comp.substitute(point) for comp in prolonged.components]
        # theta components at (2,3): (6, 9); derivative block:
        # d(qp) = p dq + q dp -> 3*1 + 2*5 = 13; d(p^2) = 2p dp -> 6*5 = 30
        assert values == [2, 3, 6, 9, 1, 5, 13, 30]

    def test_block_order_matches_composition(self, monkeypatch):
        # against the composition of the dense coordinate maps, the residual
        # dict leaves out only names whose dense residual is zero and keeps
        # the others in T*TM coordinate order, also when a wrong complete-lift
        # kernel makes the lemma fail
        for kernel in ("exact", "doubled", "negated"):
            with monkeypatch.context() as patch:
                if kernel != "exact":
                    use_wrong_lift_kernel(patch, kernel)
                rng = random.Random(41)
                failing = 0
                for dim in (1, 2, 3, 4):
                    chart = Chart("B", tuple(f"x{i}" for i in range(dim)))
                    tc = tangent_chart(chart)
                    for _ in range(8):
                        theta = rand_form(rng, chart, 1, max_degree=3)
                        dense = dense_lemma_residuals(tc, theta)
                        residuals = one_form_lift_residuals(tc, {"": theta})
                        assert list(residuals) == [name for name in dense if name in residuals]
                        assert all(dense[name].is_zero() for name in dense if name not in residuals)
                        assert all(residuals[name] == dense[name] for name in residuals)
                        assert all(r.variables == tc.total.coords for r in residuals.values())
                        # both sides take their (q, v) blocks from tc.coord_polys
                        assert not residuals.keys() & set(tc.total.coords)
                        failing += any(not r.is_zero() for r in residuals.values())
                assert (failing > 0) == (kernel != "exact"), kernel

    @pytest.mark.parametrize(
        "order", [p for p in itertools.permutations(range(4)) if p != tangent._ALPHA_ORDER])
    def test_wrong_exchange_map_fails_the_lemma(self, order, monkeypatch):
        monkeypatch.setattr(tangent, "_ALPHA_ORDER", order)
        (report,) = run_checks(catalog("so3-coadjoint"), "verify-lemma")
        assert report.verdict == "fail"

    def test_verify_lemma_builds_no_map_or_chart_per_probe(self, monkeypatch):
        problem = parse_problem(gl_problem(3))
        maps = count_calls(monkeypatch, CoordinateMap, "__init__")
        charts = count_calls(monkeypatch, Chart, "__init__")
        forms = count_calls(monkeypatch, DifferentialForm, "__init__")
        (report,) = run_checks(problem, "verify-lemma")
        assert report.verdict == "pass"
        assert maps == []
        # the command's one tangent chart; none for any of the 90 probes
        assert [args[0].name for args in charts] == ["TM"]
        # the 90 probes hold chart polynomials and are built trusted; they
        # passed the validating constructor once each before
        assert forms == []

    def test_verify_lemma_composes_no_polynomials(self, monkeypatch):
        assert _compose_calls(monkeypatch, "verify-lemma") == []


def _compose_calls(monkeypatch, command: str) -> list:
    """The Polynomial.compose calls of ``command`` on two catalog entries,
    each of which must pass."""
    calls = count_calls(monkeypatch, Polynomial, "compose")
    for name in ("aff1-cobracket", "so3-coadjoint"):
        (report,) = run_checks(catalog(name), command)
        assert report.verdict == "pass"
    return calls


@pytest.mark.parametrize("dim", [1, 2, 3, 9, 17, 33])
def test_complete_lift_kernel_matches_the_dense_formula(dim):
    # the key shift moves one unit from field k to field n + k; with 33
    # base coordinates the v block starts past bit 1024 of a key
    rng = random.Random(600 + dim)
    base = Chart("R", tuple(f"x{k}" for k in range(dim)))
    tc = tangent_chart(base)
    x0 = base.coord_poly("x0")
    polys = [base.zero_poly(), base.constant_poly(Fraction(5, 3)),
             x0 ** 2 * Fraction(1, 2),  # 1/2 x0^2 lifts to x0*v_x0, coefficient int 1
             x0 ** 3 * Fraction(2, 3) - x0 * 7]
    polys += [rand_poly(rng, base.coords, max_degree=4, terms=5) for _ in range(12)]
    # a universe that is a proper prefix of the base, and one in another order
    polys += [rand_poly(rng, base.coords[:max(1, dim // 2)]) for _ in range(3)]
    polys += [rand_poly(rng, tuple(reversed(base.coords))) for _ in range(3)]
    for f in polys:
        lifted = tangent._complete_lift_poly(tc, f)
        assert lifted == dense_complete_lift(tc, f)
        assert lifted.variables == tc.total.coords
        assert all(is_one_form(c) for c in lifted.terms.values())
    assert tangent._complete_lift_poly(tc, polys[1]).is_zero()
    assert tangent._complete_lift_poly(tc, polys[2]) == x0 * tc.coord_blocks[1][0]


def test_verify_lift_composes_no_polynomials(monkeypatch):
    # setting v = qdot in the candidate is a renaming, not a composition
    assert _compose_calls(monkeypatch, "verify-lift") == []


def test_chart_block_orders(chart_qp):
    expected = {
        "T": ("q", "p", "v_q", "v_p"),
        "T*": ("q", "p", "p_q", "p_p"),
        "TT*": ("q", "p", "p_q", "p_p", "dot_q", "dot_p", "dot_p_q", "dot_p_p"),
        "T*T": ("q", "p", "v_q", "v_p", "a_q", "a_p", "b_q", "b_p"),
        "TT": ("q", "p", "v_q", "v_p", "dot_q", "dot_p", "dot_v_q", "dot_v_p"),
    }
    for kind, coords in expected.items():
        chart = bundle_chart(chart_qp, kind)
        assert chart.coords == coords
        assert chart.name == kind + chart_qp.name
    assert bundle_chart(chart_qp, "T") == tangent_chart(chart_qp).total
    with pytest.raises(ValueError):
        bundle_chart(chart_qp, "TTT")
