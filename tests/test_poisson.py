"""Poisson-induced operations under the fixed sign conventions.

Conventions (see the poissonlift.poisson module docstring):
{f,g} = pi(df,dg), pi#(alpha) = pi(alpha, .), X_f = pi#(df),
[alpha,beta]_pi = L_(pi#alpha) beta - L_(pi#beta) alpha - d(pi(alpha,beta)).
"""

from __future__ import annotations

import itertools
import random

import pytest

from poissonlift import (
    Chart,
    CoordinateMap,
    DifferentialForm,
    Multivector,
    Polynomial,
    PoissonStructure,
    SymplecticForm,
    catalog,
    catalog_names,
    complete_lift_bivector,
    d_T,
    differential,
    exterior_derivative,
    fd_derivative_check,
    hamiltonian_vf,
    i_T,
    jacobi_check,
    koszul_bracket,
    lie_poisson,
    pairing,
    parse_form,
    parse_multivector,
    parse_poly,
    parse_problem,
    poisson,
    poisson_bracket,
    schouten_bracket,
    sharp,
    so3_bialgebra,
    tangent_chart,
    wedge,
)
from poissonlift.errors import ChartMismatchError, DegreeError, UnknownSymbolError
from poissonlift.poly import EXPONENT_LIMIT
from poissonlift.tangent import bundle_chart, tangent_lift_residuals

from conftest import (
    count_calls,
    dense_matrix,
    dense_vector,
    gl_problem,
    integer_points,
    rand_form,
    rand_fraction,
    rand_multivector,
    rand_poly,
)
from reference import dense_bracket, dense_complete_lift, dense_d, dense_gradient, dense_koszul, dense_sharp


@pytest.fixture
def canonical(chart_qp):
    return PoissonStructure(parse_multivector("e_q^e_p", chart_qp))


@pytest.fixture
def so3(chart_xyz):
    return lie_poisson(so3_bialgebra(), chart_xyz)


class TestSharp:
    def test_canonical(self, chart_qp, canonical):
        assert sharp(canonical, parse_form("dq", chart_qp)) == parse_multivector("e_p", chart_qp)

    def test_linearity_zero(self, chart_qp, canonical):
        assert sharp(canonical, DifferentialForm.zero(chart_qp, 1)).is_zero()

    def test_so3_row(self, chart_xyz, so3):
        # matrix application oracle: (pi# dx)^j = P[x][j], the x-row
        # P[x][y] = z and P[x][z] = -y for the rotation-algebra structure.
        assert sharp(so3, parse_form("dx", chart_xyz)) == parse_multivector(
            "z*e_y - y*e_z", chart_xyz
        )

    def test_defining_pairing(self, chart_xyz, so3):
        rng = random.Random(21)
        for _ in range(20):
            alpha = DifferentialForm(
                chart_xyz, 1, {(i,): rand_poly(rng, chart_xyz.coords) for i in range(3)}
            )
            beta = DifferentialForm(
                chart_xyz, 1, {(i,): rand_poly(rng, chart_xyz.coords) for i in range(3)}
            )
            # pi(alpha, beta) = sum_ij pi^(ij) alpha_i beta_j from the dense matrix
            mat = dense_matrix(so3.bivector)
            a, b = dense_vector(alpha), dense_vector(beta)
            expected = sum((mat[i][j] * a[i] * b[j] for i in range(3) for j in range(3)),
                           chart_xyz.zero_poly())
            assert pairing(beta, sharp(so3, alpha)) == expected


class TestPoissonBracket:
    def test_canonical_pair(self, chart_qp, canonical):
        assert poisson_bracket(canonical, chart_qp.coord_poly("q"), chart_qp.coord_poly("p")) == 1

    def test_antisymmetry_diagonal(self, chart_qp, canonical):
        rng = random.Random(22)
        for _ in range(10):
            f = rand_poly(rng, chart_qp.coords)
            assert poisson_bracket(canonical, f, f).is_zero()

    def test_so3_structure_bracket(self, chart_xyz, so3):
        # from structure constants: {x, y} = z for the rotation algebra dual
        x, y, z = (chart_xyz.coord_poly(c) for c in "xyz")
        assert poisson_bracket(so3, x, y) == z
        assert poisson_bracket(so3, y, z) == x
        assert poisson_bracket(so3, z, x) == y

    def test_leibniz(self, chart_xyz, so3):
        rng = random.Random(23)
        for _ in range(10):
            f = rand_poly(rng, chart_xyz.coords)
            g = rand_poly(rng, chart_xyz.coords)
            h = rand_poly(rng, chart_xyz.coords)
            assert poisson_bracket(so3, f, g * h) == poisson_bracket(so3, f, g) * h + g * poisson_bracket(so3, f, h)

    def test_jacobi_identity_when_verified(self, chart_xyz, so3):
        assert so3.jacobi_verified
        rng = random.Random(24)
        for _ in range(10):
            f = rand_poly(rng, chart_xyz.coords, max_degree=2)
            g = rand_poly(rng, chart_xyz.coords, max_degree=2)
            h = rand_poly(rng, chart_xyz.coords, max_degree=2)
            total = (
                poisson_bracket(so3, f, poisson_bracket(so3, g, h))
                + poisson_bracket(so3, g, poisson_bracket(so3, h, f))
                + poisson_bracket(so3, h, poisson_bracket(so3, f, g))
            )
            assert total.is_zero()

    def test_sharp_bracket_consistency(self, chart_qp, canonical):
        rng = random.Random(25)
        for _ in range(15):
            f = rand_poly(rng, chart_qp.coords)
            g = rand_poly(rng, chart_qp.coords)
            lhs = poisson_bracket(canonical, f, g)
            rhs = pairing(differential(chart_qp, g), sharp(canonical, differential(chart_qp, f)))
            assert lhs == rhs


class TestHamiltonianField:
    def test_coordinate_hamiltonian(self, chart_qp, canonical):
        assert hamiltonian_vf(canonical, chart_qp.coord_poly("q")) == parse_multivector(
            "e_p", chart_qp
        )

    def test_constant_hamiltonian(self, chart_qp, canonical):
        assert hamiltonian_vf(canonical, chart_qp.constant_poly(5)).is_zero()

    def test_harmonic_oscillator(self, chart_qp, canonical):
        # expanding pi#(q dq + p dp) under the fixed convention gives exactly
        # the rotation field q e_p - p e_q (no extra sign).
        h = parse_poly("1/2*q^2 + 1/2*p^2", chart_qp.coords)
        assert hamiltonian_vf(canonical, h) == parse_multivector("q*e_p - p*e_q", chart_qp)

    def test_generates_bracket(self, chart_xyz, so3):
        rng = random.Random(26)
        for _ in range(10):
            f = rand_poly(rng, chart_xyz.coords)
            g = rand_poly(rng, chart_xyz.coords)
            xf = hamiltonian_vf(so3, f)
            directional = chart_xyz.zero_poly()
            for xi, c in zip(dense_vector(xf), chart_xyz.coords):
                directional = directional + xi * g.derivative(c)
            assert directional == poisson_bracket(so3, f, g)


class TestKoszulBracket:
    def test_exact_pair_canonical(self, chart_qp, canonical):
        dq, dp = parse_form("dq", chart_qp), parse_form("dp", chart_qp)
        assert koszul_bracket(canonical, dq, dp).is_zero()  # d{q,p} = d(1) = 0

    def test_antisymmetry(self, chart_xyz, so3):
        rng = random.Random(27)
        for _ in range(10):
            alpha = DifferentialForm(
                chart_xyz, 1, {(i,): rand_poly(rng, chart_xyz.coords) for i in range(3)}
            )
            assert koszul_bracket(so3, alpha, alpha).is_zero()

    def test_so3_exact_pair(self, chart_xyz, so3):
        # [df, dg]_pi = d{f, g}; with {x, y} = z this is dz
        dx, dy, dz = (parse_form("d" + c, chart_xyz) for c in "xyz")
        assert koszul_bracket(so3, dx, dy) == dz

    def test_de_rham_compatibility(self, chart_qp, canonical, chart_xyz, so3):
        rng = random.Random(28)
        for pi, chart in ((canonical, chart_qp), (so3, chart_xyz)):
            for _ in range(10):
                f = rand_poly(rng, chart.coords, max_degree=2)
                g = rand_poly(rng, chart.coords, max_degree=2)
                lhs = koszul_bracket(pi, differential(chart, f), differential(chart, g))
                rhs = differential(chart, poisson_bracket(pi, f, g))
                assert lhs == rhs


class TestPoissonStructure:
    def test_verified_flag(self, chart_qp):
        assert PoissonStructure(parse_multivector("e_q^e_p", chart_qp)).jacobi_verified

    def test_unverified_flag(self, chart_xyz):
        bad = parse_multivector("z*e_x^e_y + x*e_x^e_z", chart_xyz)
        assert not PoissonStructure(bad).jacobi_verified

    def test_invariant(self, chart_xyz):
        pi = lie_poisson(so3_bialgebra(), chart_xyz)
        assert pi.jacobi_verified
        assert jacobi_check(pi.bivector).is_zero()

    def test_verdict_computed_on_first_read_and_kept(self, monkeypatch, chart_xyz):
        calls = count_calls(monkeypatch, poisson, "jacobi_check")
        pi = PoissonStructure(parse_multivector("z*e_x^e_y + x*e_x^e_z", chart_xyz))
        assert calls == []
        assert not pi.jacobi_verified
        assert not pi.jacobi_verified
        assert len(calls) == 1


class TestSymplecticForm:
    def test_canonical_inverse(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        assert omega.poisson.bivector == parse_multivector("-e_q^e_p", chart_qp)
        pi = omega.poisson
        assert pi.jacobi_verified
        assert poisson_bracket(pi, chart_qp.coord_poly("q"), chart_qp.coord_poly("p")) == -1

    def test_sharp_inverts_flat(self, chart_qp):
        omega = SymplecticForm.from_two_form(parse_form("dq^dp", chart_qp))
        pi = omega.poisson
        rng = random.Random(29)
        for _ in range(10):
            field = rand_multivector(rng, chart_qp, 1)
            assert sharp(pi, omega.flat(field)) == field

    def test_four_dimensional(self):
        chart = Chart("M", ("q1", "q2", "p1", "p2"))
        omega = SymplecticForm.from_two_form(parse_form("dq1^dp1 + dq2^dp2", chart))
        pi = omega.poisson
        assert pi.jacobi_verified
        rng = random.Random(30)
        for _ in range(5):
            field = rand_multivector(rng, chart, 1)
            assert sharp(pi, omega.flat(field)) == field

    def test_rejects_non_closed(self):
        chart = Chart("M", ("a", "b", "c", "d"))
        with pytest.raises(ValueError):
            SymplecticForm.from_two_form(parse_form("c*da^db + dc^dd", chart))

    def test_rejects_degenerate(self):
        chart = Chart("M", ("a", "b", "c", "d"))
        with pytest.raises(ValueError, match="two-form is degenerate"):
            SymplecticForm.from_two_form(parse_form("da^db", chart))

    def test_rejects_wrong_inverse(self, chart_qp):
        with pytest.raises(ValueError, match="not mutual inverses"):
            SymplecticForm.from_two_form(
                parse_form("dq^dp", chart_qp), parse_multivector("e_q^e_p", chart_qp)
            )

    def test_polynomial_matrix_with_supplied_inverse(self):
        # omega = (1 + q^2) dq^dp needs its inverse provided explicitly; the
        # pairing check then requires exact polynomial inverses, which only
        # works when the determinant is invertible; use a constant rescale.
        chart = Chart("M", ("q", "p"))
        with pytest.raises(ValueError, match="non-constant symplectic matrix"):
            SymplecticForm.from_two_form(parse_form("(1 + q^2)*dq^dp", chart))


def test_lie_poisson_matches_direct_literal(chart_xyz):
    via_constants = lie_poisson(so3_bialgebra(), chart_xyz)
    direct = parse_multivector("z*e_x^e_y - y*e_x^e_z + x*e_y^e_z", chart_xyz)
    assert via_constants.bivector == direct


# -- dense references ------------------------------------------------------------
#
# The kernels walk only the nonzero components of their operands and
# differentiate only by the variables a polynomial uses.  The loops below and
# those of tests/reference.py walk every coordinate index instead, and every
# kernel must agree with them exactly, on Poisson and non-Poisson bivectors
# alike.


def _dense_schouten_half(a, b):
    """sum_i (da/dxi_i) ^ (d_i b), walking every coordinate i and
    differentiating every component of b by it."""
    chart = a.chart
    deg = a.degree + b.degree - 1
    if a.degree == 0 or deg > chart.dim:
        return Multivector.zero(chart, min(max(deg, 0), chart.dim))
    acc = Multivector.zero(chart, deg)
    for i, name in enumerate(chart.coords):
        left = {}
        for idx, poly in a.components.items():
            if i in idx:
                pos = idx.index(i)
                left[idx[:pos] + idx[pos + 1:]] = -poly if pos % 2 else poly
        right = {idx: poly.derivative(name) for idx, poly in b.components.items()}
        acc = acc + wedge(Multivector(chart, a.degree - 1, left), Multivector(chart, b.degree, right))
    return acc


def _dense_schouten(a, b):
    if a.degree == 0 and b.degree == 0:
        return Multivector.zero(a.chart, 0)
    u, v = a.degree - 1, b.degree - 1
    first, second = _dense_schouten_half(a, b), _dense_schouten_half(b, a)
    return (-first if u % 2 else first) + (second if (u * v + v) % 2 else -second)


def _dense_complete_lift(tc, bivector):
    n = tc.dim
    mat = dense_matrix(bivector)
    comps = {(i, n + j): mat[i][j].with_variables(tc.total.coords) for i in range(n) for j in range(n)}
    comps.update({(n + i, n + j): dense_complete_lift(tc, mat[i][j])
                  for i in range(n) for j in range(i + 1, n)})
    return Multivector(tc.total, 2, comps)


def _dense_lift_residuals(bivector, cand):
    """pi_TM# . alpha - kappa . T(pi#) from the two full component matrices."""
    base = bivector.chart
    n = base.dim
    zchart = bundle_chart(base, "TT*")
    z = [zchart.coord_poly(c) for c in zchart.coords]
    p, qdot, pdot = z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
    mat = dense_matrix(bivector)
    rhs = [zchart.zero_poly() for _ in range(2 * n)]
    for j in range(n):
        for i in range(n):
            pij = mat[i][j].with_variables(zchart.coords)
            rhs[j] = rhs[j] + p[i] * pij
            rhs[n + j] = rhs[n + j] + pdot[i] * pij
            for k in range(n):
                d = mat[i][j].derivative(base.coords[k]).with_variables(zchart.coords)
                rhs[n + j] = rhs[n + j] + p[i] * d * qdot[k]
    q_qdot = zchart.coords[:n] + zchart.coords[2 * n:3 * n]
    csub = [[Polynomial(q_qdot, entry.terms).with_variables(zchart.coords) for entry in row]
            for row in dense_matrix(cand)]
    lhs = [zchart.zero_poly() for _ in range(2 * n)]
    for j in range(n):
        for i in range(n):
            lhs[j] = lhs[j] + pdot[i] * csub[i][j] + p[i] * csub[n + i][j]
            lhs[n + j] = lhs[n + j] + pdot[i] * csub[i][n + j] + p[i] * csub[n + i][n + j]
    names = bundle_chart(base, "TT").coords[2 * n:]
    return {name: r - l for name, r, l in zip(names, rhs, lhs)}


def _dense_i_T(tc, omega):
    if omega.degree == 0:
        return DifferentialForm.zero(tc.total, 0)
    terms = []
    for idx, poly in omega.components.items():
        pulled = poly.with_variables(tc.total.coords)
        for pos, i in enumerate(idx):
            contrib = pulled * tc.coord_blocks[1][i]
            terms.append((idx[:pos] + idx[pos + 1:], -contrib if pos % 2 else contrib))
    return DifferentialForm.from_terms(tc.total, omega.degree - 1, terms)


def _dense_d_T(tc, omega):
    if omega.degree == 0:
        return DifferentialForm.from_poly(tc.total, dense_complete_lift(tc, omega.as_poly()))
    first = _dense_i_T(tc, dense_d(omega))
    second = dense_d(_dense_i_T(tc, omega))
    # d of a top-degree base form is a degree-clamped zero
    return second if first.degree != second.degree else first + second


def _operands(rng, chart):
    """Bivectors (Poisson and not) and 1-forms (full and one-component) on the chart."""
    i, j = sorted(rng.sample(range(chart.dim), 2))
    constant = Multivector(chart, 2, {(a, b): chart.constant_poly(rand_fraction(rng))
                                      for a in range(chart.dim) for b in range(a + 1, chart.dim)
                                      if rng.random() < 0.6})
    bivectors = [
        constant,  # constant bivectors are Poisson
        Multivector(chart, 2, {(i, j): rand_poly(rng, chart.coords)}),  # so is f e_i^e_j
        rand_multivector(rng, chart, 2),
        rand_multivector(rng, chart, 2, max_degree=1),
    ]
    forms = [rand_form(rng, chart, 1), rand_form(rng, chart, 1),
             DifferentialForm(chart, 1, {(rng.randrange(chart.dim),): rand_poly(rng, chart.coords)})]
    return bivectors, forms


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_kernels_match_dense_references(dim, monkeypatch):
    rng = random.Random(100 + dim)
    chart = Chart("R", tuple(f"x{k}" for k in range(dim)))
    tc = tangent_chart(chart)
    verdicts = set()
    for _ in range(3):
        bivectors, forms = _operands(rng, chart)
        funcs = [rand_poly(rng, chart.coords, max_degree=4, terms=4) for _ in range(3)]
        funcs.append(chart.constant_poly(rand_fraction(rng)))
        for bivector in bivectors:
            verdicts.add(jacobi_check(bivector).is_zero())
            pi = PoissonStructure(bivector)
            for alpha in forms:
                assert sharp(pi, alpha) == dense_sharp(bivector, alpha)
                for beta in forms:
                    assert koszul_bracket(pi, alpha, beta) == dense_koszul(bivector, alpha, beta)
            for f in funcs:
                for g in funcs:
                    bracket = poisson_bracket(pi, f, g)
                    assert bracket == dense_bracket(bivector, f, g)
                    assert bracket.variables == chart.coords
            lift = _dense_complete_lift(tc, bivector)
            if pi.jacobi_verified:
                lifted = complete_lift_bivector(pi, tc).bivector
                assert lifted == lift
                assert list(lifted.components) == list(lift.components)  # listing order
            # wrong candidates too: the CLI only ever passes the lift itself
            one = {(rng.randrange(dim), dim + rng.randrange(dim)): rand_poly(rng, tc.total.coords, 2)}
            for cand in (lift, rand_multivector(rng, tc.total, 2, max_degree=1),
                         Multivector(tc.total, 2, one)):
                residuals = tangent_lift_residuals(pi, PoissonStructure(cand))
                dense = _dense_lift_residuals(bivector, cand)
                assert residuals == dense
                assert list(residuals) == list(dense)
                # == ignores the universe, but the sampled stream does not
                assert all(r.variables == bundle_chart(chart, "TT*").coords for r in residuals.values())
        for a_degree in range(dim + 1):
            for b_degree in range(dim + 1):
                a = rand_multivector(rng, chart, a_degree, max_degree=2)
                b = rand_multivector(rng, chart, b_degree, max_degree=2)
                assert schouten_bracket(a, b) == _dense_schouten(a, b)
        for degree in range(dim + 1):
            omega = rand_form(rng, chart, degree)
            assert i_T(tc, omega) == _dense_i_T(tc, omega)
            assert d_T(tc, omega) == _dense_d_T(tc, omega)
        for omega in forms + [rand_form(rng, chart, k) for k in range(dim + 1)]:
            assert exterior_derivative(omega) == dense_d(omega)
        for f in funcs:
            lifted = d_T(tc, DifferentialForm.from_poly(chart, f)).as_poly()
            assert lifted == dense_complete_lift(tc, f)
            assert lifted.variables == tc.total.coords
            point = {c: rand_fraction(rng) for c in chart.coords}
            (numerators,), denominator = integer_points([point.values()])
            assert fd_derivative_check({"f": f}, chart.coords, [numerators], denominator) == {}
            gradient = dense_gradient(f)
            if not gradient:
                continue
            # one term dropped from one partial is a difference of that term's value
            i = max(gradient)
            exps, coeff = next(iter(gradient[i].terms.items()))
            term = Polynomial(f.variables, {exps: coeff})
            with monkeypatch.context() as patch:
                exact = Polynomial._partials
                patch.setattr(Polynomial, "_partials",
                              lambda g: {**exact(g), i: exact(g)[i] - term} if g is f else exact(g))
                value = term.substitute(point)
                assert fd_derivative_check({"f": f}, chart.coords, [numerators], denominator) == (
                    {f"f/d{f.variables[i]}": value} if value else {})
    # dim 2 has only Poisson bivectors
    assert verdicts == ({True} if dim == 2 else {True, False})


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_lift_identity_renaming_matches_dense_route(dim):
    # tangent_lift_residuals sets v = qdot by moving the v fields of each
    # monomial key up n fields; the dense route renames exponent tuples
    # through the public constructor, here with exponents up to the limit
    rng = random.Random(400 + dim)
    chart = Chart("R", tuple(f"x{k}" for k in range(dim)))
    tc = tangent_chart(chart)
    for _ in range(6):
        bivector = rand_multivector(rng, chart, 2, max_degree=2)
        wide = {}
        for _ in range(3):
            i, j = sorted(rng.sample(range(2 * dim), 2))
            exps = [0] * (2 * dim)
            for k in rng.sample(range(2 * dim), 2):
                exps[k] = rng.choice([1, 2, EXPONENT_LIMIT - 1])
            wide[(i, j)] = Polynomial(tc.total.coords, {tuple(exps): rand_fraction(rng), (0,) * (2 * dim): 1})
        for cand in (rand_multivector(rng, tc.total, 2, max_degree=3), Multivector(tc.total, 2, wide)):
            residuals = tangent_lift_residuals(PoissonStructure(bivector), PoissonStructure(cand))
            dense = _dense_lift_residuals(bivector, cand)
            assert residuals == dense
            assert list(residuals) == list(dense)
            assert all(r.variables == bundle_chart(chart, "TT*").coords for r in residuals.values())


def test_kernels_keep_their_errors(chart_qp, chart_xyz, so3):
    dq = parse_form("dq", chart_qp)
    dx = parse_form("dx", chart_xyz)
    with pytest.raises(DegreeError):
        sharp(so3, parse_form("dx^dy", chart_xyz))
    with pytest.raises(DegreeError):  # a Poisson structure is a bivector
        sharp(PoissonStructure(parse_multivector("e_x", chart_xyz)), dx)
    with pytest.raises(ChartMismatchError):
        sharp(so3, dq)
    with pytest.raises(DegreeError):
        koszul_bracket(so3, dx, parse_form("dx^dy", chart_xyz))
    with pytest.raises(ChartMismatchError):
        koszul_bracket(so3, dx, dq)
    with pytest.raises(UnknownSymbolError):
        poisson_bracket(so3, parse_poly("x*w", ("x", "w")), chart_xyz.coord_poly("y"))
    with pytest.raises(UnknownSymbolError):
        poisson_bracket(so3, chart_xyz.coord_poly("y"), parse_poly("0", ("w",)))
    with pytest.raises(ChartMismatchError):
        d_T(tangent_chart(chart_xyz), DifferentialForm.from_poly(chart_qp, chart_qp.coord_poly("q")))
    # a polynomial off the chart's universe is refused at every entry point
    w = Polynomial.variable("w")
    with pytest.raises(UnknownSymbolError):
        parse_multivector("x*e_x", chart_xyz) * w
    with pytest.raises(UnknownSymbolError):
        Multivector.from_terms(chart_xyz, 1, [((0,), w)])
    with pytest.raises(UnknownSymbolError):
        CoordinateMap(chart_xyz, chart_qp, (chart_xyz.coord_poly("x"), w))


# -- a second route for poisson-jacobi ---------------------------------------------


@pytest.mark.parametrize(
    "problem",
    [*catalog_names(), "gl2", "gl3", "gl3-non-poisson"],
)
def test_jacobiator_is_twice_the_cyclic_bracket_sum(problem):
    """[pi, pi]^(ijk) = 2 ({x_i,{x_j,x_k}} + cyclic): the Schouten bracket
    against nested Poisson brackets, which share no code with it."""
    if problem.startswith("gl"):
        text = gl_problem(int(problem[2]), non_poisson=problem.endswith("non-poisson"))
        pi = parse_problem(text).poisson
    else:
        pi = catalog(problem).poisson
    chart = pi.chart
    x = [chart.coord_poly(c) for c in chart.coords]

    def bracket(f, g):
        return poisson_bracket(pi, f, g)

    nonzero = 0
    for i, j, k in itertools.combinations(range(chart.dim), 3):
        cyclic = (bracket(x[i], bracket(x[j], x[k])) + bracket(x[j], bracket(x[k], x[i]))
                  + bracket(x[k], bracket(x[i], x[j])))
        assert pi.jacobiator.components.get((i, j, k), chart.zero_poly()) == 2 * cyclic
        nonzero += not cyclic.is_zero()
    assert pi.jacobi_verified == (nonzero == 0)
    assert nonzero == (5 if problem == "gl3-non-poisson" else 0)
