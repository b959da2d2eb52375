"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each (visible with pytest -s).

Every verdict here is an exact zero-residual claim except the two float
checks in criterion 11, whose tolerances are stated inline.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction

from poissonlift import (
    Chart,
    CoordinateMap,
    DifferentialForm,
    LieBialgebra,
    MomentumMapData,
    Multivector,
    PGMap,
    Resolved,
    PoissonStructure,
    SamplePlan,
    SymplecticForm,
    abelian_bialgebra,
    base_pullback,
    bracket_closure_check,
    catalog,
    catalog_names,
    certify_pgmap,
    characteristic_identity_check,
    comomentum_components,
    complete_lift_bivector,
    cotangent_momentum_relation,
    d_T,
    exterior_derivative,
    fd_derivative_check,
    hamiltonian_comomentum,
    hamiltonian_pgmap,
    hamiltonian_vf,
    i_T,
    jacobi_check,
    level_set_tangency_check,
    lie_poisson,
    parse_form,
    parse_multivector,
    parse_poly,
    sample_residual,
    so3_bialgebra,
    symplectic_pgmap,
    tangent_chart,
    tangent_generator,
    tangent_generator_check,
    tangent_generator_direct,
    verify_tangent_lift_identity,
    wedge,
)
from poissonlift.reduction import bracket_closure_residuals, characteristic_identity_residuals
from poissonlift.tangent import one_form_lift_residuals, tangent_lift_residuals

from conftest import rand_form, rand_poly


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} [{title}]: PASS")


def _canonical(chart: Chart) -> PoissonStructure:
    comps = "e_q^e_p" if chart.dim == 2 else "e_q1^e_p1 + e_q2^e_p2"
    return PoissonStructure(parse_multivector(comps, chart))


def _collected_zero_residuals():
    """Residual families asserted exactly zero by criteria 1-10, for the
    float cross-check of criterion 11."""
    residuals = []
    for pi in _lift_test_structures():
        lifted = complete_lift_bivector(pi, tangent_chart(pi.chart))
        residuals += list(tangent_lift_residuals(pi, lifted.bivector).values())
    for name in catalog_names():
        problem = catalog(name)
        if problem.pgmap is not None:
            pi = problem.poisson_structure
            residuals += [
                poly for poly in bracket_closure_residuals(Resolved(pi, problem.pgmap)).values()
            ]
            for form in characteristic_identity_residuals(Resolved(pi, problem.pgmap)).values():
                residuals += list(form.components.values()) or [form.chart.zero_poly()]
    return residuals


def _lift_test_structures():
    r2 = Chart("M", ("q", "p"))
    r4 = Chart("N", ("q1", "p1", "q2", "p2"))
    so3 = Chart("g", ("x", "y", "z"))
    return (
        _canonical(r2),
        _canonical(r4),
        lie_poisson(so3_bialgebra(), so3),
        PoissonStructure(parse_multivector("q*e_q^e_p", r2)),
    )


def test_criterion_1_tangent_lift_identity():
    with criterion(1, "tangent-lift identity on four structures"):
        for pi in _lift_test_structures():
            lifted = complete_lift_bivector(pi, tangent_chart(pi.chart))
            report = verify_tangent_lift_identity(pi, lifted)
            assert report.verdict == "pass", report.residuals
            assert lifted.jacobi_verified


def test_criterion_2_one_form_prolongation():
    """Seeded random forms of degree up to 3: the guard against a higher-order
    bug that the affine forms of ``verify-lemma`` would not see."""
    with criterion(2, "alpha . T(theta) = d_T(theta), 50 random 1-forms"):
        rng = random.Random(20260808)
        charts = [Chart("C", tuple(f"x{i}" for i in range(dim))) for dim in (1, 2, 3)]
        for index in range(50):
            chart = charts[index % 3]
            theta = DifferentialForm(
                chart,
                1,
                {(i,): rand_poly(rng, chart.coords, max_degree=3) for i in range(chart.dim)},
            )
            residuals = one_form_lift_residuals(tangent_chart(chart), theta)
            assert all(r.is_zero() for r in residuals.values()), (index, residuals)


def _graded_parts_equal(lhs, parts):
    total = None
    for part in parts:
        if part.degree != lhs.degree:
            assert part.is_zero()
            continue
        total = part if total is None else total + part
    return lhs.is_zero() if total is None else lhs == total


def test_criterion_3_derivation_laws():
    with criterion(3, "tangent-derivation laws on 100 random pairs"):
        rng = random.Random(3141)
        charts = [Chart("C", tuple(f"x{i}" for i in range(dim))) for dim in (1, 2, 3)]
        for index in range(100):
            chart = charts[index % 3]
            tc = tangent_chart(chart)
            k = rng.randint(0, chart.dim)
            l = rng.randint(0, chart.dim - k)
            w1 = rand_form(rng, chart, k)
            w2 = rand_form(rng, chart, l)
            product = wedge(w1, w2)
            # degree -1 law, sign (-1)^k on the second term
            second = wedge(base_pullback(tc, w1), i_T(tc, w2))
            if k % 2:
                second = -second
            assert _graded_parts_equal(
                i_T(tc, product), (wedge(i_T(tc, w1), base_pullback(tc, w2)), second)
            )
            # degree 0 law carries no sign
            assert _graded_parts_equal(
                d_T(tc, product),
                (
                    wedge(d_T(tc, w1), base_pullback(tc, w2)),
                    wedge(base_pullback(tc, w1), d_T(tc, w2)),
                ),
            )
        # Cartan-style decomposition on 100 random forms
        for index in range(100):
            chart = charts[index % 3]
            tc = tangent_chart(chart)
            omega = rand_form(rng, chart, rng.randint(0, chart.dim))
            lhs = d_T(tc, omega)
            if omega.degree == 0:
                assert lhs == i_T(tc, exterior_derivative(omega))
            else:
                assert _graded_parts_equal(
                    lhs,
                    (
                        i_T(tc, exterior_derivative(omega)),
                        exterior_derivative(i_T(tc, omega)),
                    ),
                )


def _cayley_rotation(rng: random.Random):
    from poissonlift._linalg import invert

    a, b, c = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
    S = [[Fraction(0), a, b], [-a, Fraction(0), c], [-b, -c, Fraction(0)]]
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    i_minus = [[eye[i][j] - S[i][j] for j in range(3)] for i in range(3)]
    i_plus = [[eye[i][j] + S[i][j] for j in range(3)] for i in range(3)]
    inv = invert(i_plus)
    return [
        [sum(i_minus[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def test_criterion_4_lifted_generator_agreement():
    with criterion(4, "two lifted-generator formulas agree everywhere"):
        for name in catalog_names():
            problem = catalog(name)
            if problem.pgmap is None:
                continue
            report = tangent_generator_check(Resolved(problem.poisson_structure, problem.pgmap))
            assert report.verdict == "pass", (name, report.residuals)
        chart = Chart("g", ("x", "y", "z"))
        pi = lie_poisson(so3_bialgebra(), chart)
        rng = random.Random(444)
        for _ in range(20):
            A = _cayley_rotation(rng)
            momentum = MomentumMapData(
                chart,
                tuple(
                    sum(
                        (A[i][k] * chart.coord_poly(chart.coords[k]) for k in range(3)),
                        chart.zero_poly(),
                    )
                    for i in range(3)
                ),
            )
            pg = hamiltonian_pgmap(momentum, so3_bialgebra())
            assert certify_pgmap(Resolved(pi, pg)).verdict == "pass"
            assert tangent_generator_check(Resolved(pi, pg)).verdict == "pass"


def test_criterion_5_closed_images_give_hamiltonian_lift():
    with criterion(5, "closed image: lifted generator is Hamiltonian for i_T(phi)"):
        problem = catalog("canonical-r2-rotation")
        pg = problem.pgmap
        pi = problem.poisson_structure
        tc = tangent_chart(problem.chart)
        pi_tm = complete_lift_bivector(pi, tc)
        lifted = tangent_generator(Resolved(pi, pg), (1,))
        c = i_T(tc, pg.images[0]).as_poly()
        assert lifted == hamiltonian_vf(pi_tm, c)
        assert lifted == tangent_generator_direct(Resolved(pi, pg), (1,))


def test_criterion_6_bracket_closure_with_negative_control():
    with criterion(6, "fiber-linear momentum components close under the lifted bracket"):
        for name in catalog_names():
            problem = catalog(name)
            if problem.pgmap is None:
                continue
            report = bracket_closure_check(Resolved(problem.poisson_structure, problem.pgmap))
            assert report.verdict == "pass", (name, report.residuals)
        # negative control A: a perturbed cobracket entry is detected by the
        # gamma-sensitive checks (the closure residual itself is independent
        # of gamma, so certification is where the perturbation must surface).
        base = catalog("aff1-cobracket")
        perturbed_gamma = LieBialgebra(("e1", "e2"), {(0, 1): {1: 1}}, {1: {(0, 1): 2}})
        assert perturbed_gamma.verified
        pg_gamma = PGMap(perturbed_gamma, base.chart, base.pgmap.images)
        cert = certify_pgmap(Resolved(base.poisson_structure, pg_gamma))
        assert cert.verdict == "fail"
        assert "cocycle-axiom[e2]" in dict(cert.residuals)
        char = characteristic_identity_residuals(Resolved(base.poisson_structure, pg_gamma))
        assert not char["characteristic[e2]"].is_zero()
        # negative control B: a perturbed bracket constant produces a nonzero
        # closure residual with the failing pair named.
        so3 = catalog("so3-coadjoint")
        perturbed_c = LieBialgebra(
            ("e1", "e2", "e3"),
            {(0, 1): {2: 2}, (1, 2): {0: 1}, (2, 0): {1: 1}},
            {},
        )
        pg_c = PGMap(perturbed_c, so3.chart, so3.pgmap.images)
        refusal = bracket_closure_check(Resolved(so3.poisson_structure, pg_c))
        assert refusal.verdict == "fail"
        assert refusal.residuals == (("unverified-input",
                                      "map is not certified; failing residuals: bracket-axiom[e1,e2]"),)
        residual = bracket_closure_residuals(Resolved(so3.poisson_structure, pg_c))["closure[e1,e2]"]
        assert not residual.is_zero()
        assert residual.to_string() == "-v_z"


def test_criterion_7_characteristic_identity():
    with criterion(7, "ideal-coefficient identity for the lifted generator"):
        problem = catalog("aff1-cobracket")
        assert problem.bialgebra.cobracket_row(1)  # nonzero cobracket entry
        report = characteristic_identity_check(Resolved(problem.poisson_structure, problem.pgmap))
        assert report.verdict == "pass"
        # axiom-(ii)-violating counterexample fails with a named residual
        chart = Chart("M", ("q", "p"))
        pi = PoissonStructure(parse_multivector("e_q^e_p", chart))
        bad = PGMap(abelian_bialgebra(("e1",)), chart, (parse_form("p*dq", chart),))
        failing = characteristic_identity_residuals(Resolved(pi, bad))
        assert not failing["characteristic[e1]"].is_zero()


def test_criterion_8_momentum_pipeline_and_level_set():
    with criterion(8, "d_T(J) pipeline and level-set tangency at 100 samples"):
        chart = Chart("M", ("q", "p"))
        momentum = MomentumMapData(chart, (chart.coord_poly("p"),))
        via_dt = hamiltonian_comomentum(momentum)
        pg = hamiltonian_pgmap(momentum, abelian_bialgebra(("e1",)))
        tc = tangent_chart(chart)
        assert [c.as_polynomial(tc) for c in via_dt] == comomentum_components(pg, tc)
        # and on the dressing-style catalog data
        dressing = catalog("dressing-linearized")
        via_dt2 = hamiltonian_comomentum(dressing.momentum)
        tc2 = tangent_chart(dressing.chart)
        assert [c.as_polynomial(tc2) for c in via_dt2] == comomentum_components(
            dressing.pgmap, tc2
        )
        param = CoordinateMap(
            Chart("S", ("s",)), chart, (parse_poly("s", ("s",)), parse_poly("0", ("s",)))
        )
        denominator, samples = SamplePlan.uniform(count=100, seed=88).stream(1)
        assert len(samples) == 100
        report = level_set_tangency_check(momentum, param, samples, denominator)
        assert report.verdict == "pass", report.residuals


def test_criterion_9_cotangent_momentum_relation():
    with criterion(9, "tangent vs cotangent momentum through the flat map"):
        chart = Chart("M", ("q", "p"))
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart))
        rotation = parse_multivector("-p*e_q + q*e_p", chart)
        translation = parse_multivector("e_q", chart)
        for fields in ([rotation], [translation], [rotation, translation]):
            report = cotangent_momentum_relation(omega, fields, symplectic_pgmap(omega, fields)[0])
            assert report.verdict == "pass", report.residuals
            assert "c = -(j . omega_flat)" in report.identity


def test_criterion_10_dressing_projection():
    with criterion(10, "linearized dressing momentum is the fiber projection"):
        problem = catalog("dressing-linearized")
        tc = tangent_chart(problem.chart)
        components = comomentum_components(problem.pgmap, tc)
        expected = [tc.total.coord_poly(f"v_{c}") for c in problem.chart.coords]
        assert components == expected


def test_criterion_11_oracle_consistency():
    with criterion(11, "float oracle agrees with the exact pipeline"):
        plan = SamplePlan.uniform(count=100, seed=20260808)
        residuals = _collected_zero_residuals()
        assert residuals
        for residual in residuals:
            assert sample_residual(residual, plan) == 0.0
        # finite differences within 1e-6 guarded relative error on 100
        # random polynomials of degree <= 4 in the default box
        rng = random.Random(1111)
        charts = [Chart("C", tuple(f"x{i}" for i in range(dim))) for dim in (1, 2, 3)]
        for index in range(100):
            chart = charts[index % 3]
            f = rand_poly(rng, chart.coords, max_degree=4, terms=5)
            denominator, points = plan.stream(chart.dim)
            err = fd_derivative_check(f, chart.coords, points[index % 100], denominator, Fraction(1, 10**6))
            assert err <= 1e-6, (index, err)


def test_criterion_12_jacobi_negative_control():
    with criterion(12, "Jacobi failure detected; dimension-two always passes"):
        chart = Chart("g", ("x", "y", "z"))
        bad = parse_multivector("z*e_x^e_y + x*e_x^e_z", chart)
        residual = jacobi_check(bad)
        assert not residual.is_zero()
        assert (0, 1, 2) in residual.components  # named trivector component
        assert not PoissonStructure(bad).jacobi_verified
        rng = random.Random(2222)
        two_dim = Chart("M", ("u", "w"))
        for _ in range(100):
            comps = {(0, 1): rand_poly(rng, two_dim.coords, max_degree=3)}
            assert jacobi_check(Multivector(two_dim, 2, comps)).is_zero()
