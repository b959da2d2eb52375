"""The library's argument guards: each refusal that no command reaches, called
with one bad argument, raises its own exception type.

The loader and the command line refuse bad input before these guards see it,
so without this table none of them would run under the test suite."""

from __future__ import annotations

import pytest

from poissonlift import (
    Chart,
    CoordinateMap,
    DifferentialForm,
    LieBialgebra,
    Multivector,
    PGMap,
    PoissonStructure,
    Polynomial,
    SymplecticForm,
    complete_lift_bivector,
    complete_lift_vf,
    exterior_derivative,
    interior_product,
    jacobi_check,
    lie_derivative,
    lie_poisson,
    pairing,
    parse_reports,
    schouten_bracket,
    symplectic_pgmap,
    tangent_chart,
)
from poissonlift import _linalg
from poissonlift.errors import (
    ChartMismatchError,
    DegreeError,
    DimensionMismatchError,
    KindMismatchError,
    UnknownSymbolError,
)
from poissonlift.reduction import require_zero_level
from poissonlift.tangent import one_form_lift_residuals, tangent_lift_residuals

M = Chart("M", ("q", "p"))
N = Chart("N", ("q", "p"))  # the same coordinates on another chart
ONE = M.constant_poly(1)
DQ = DifferentialForm.basis(M, "q")
DQ_N = DifferentialForm.basis(N, "q")
OMEGA = DifferentialForm(M, 2, {(0, 1): ONE})
OMEGA_N = DifferentialForm(N, 2, {(0, 1): N.constant_poly(1)})
E_Q = Multivector.basis(M, "q")
E_Q_N = Multivector.basis(N, "q")
PI = PoissonStructure(Multivector(M, 2, {(0, 1): ONE}))
TM = tangent_chart(M)
E1 = LieBialgebra(["e1"], {})
J = CoordinateMap(M, Chart("g*", ("x",)), (M.coord_poly("p"),))
SCHEMA = "schema: 1\n"

REFUSALS = {
    # chart.py
    "chart-degree-out-of-range": (lambda: DifferentialForm.zero(M, 3), DegreeError),
    "tensor-index-length": (lambda: DifferentialForm(M, 1, {(0, 1): ONE}), DegreeError),
    "tensor-index-range": (lambda: DifferentialForm(M, 1, {(2,): ONE}), DegreeError),
    "tensor-index-order": (lambda: DifferentialForm(M, 2, {(1, 0): ONE}), DegreeError),
    "as-poly-of-a-1-form": (lambda: DQ.as_poly(), DegreeError),
    "add-form-and-multivector": (lambda: DQ + E_Q, KindMismatchError),
    "add-across-charts": (lambda: DQ + DQ_N, ChartMismatchError),
    "add-across-degrees": (lambda: DQ - OMEGA, DegreeError),
    "multiply-two-tensors": (lambda: DQ * DQ, KindMismatchError),
    "d-of-a-multivector": (lambda: exterior_derivative(E_Q), KindMismatchError),
    "interior-product-by-a-form": (lambda: interior_product(DQ, OMEGA), KindMismatchError),
    "interior-product-into-a-multivector": (lambda: interior_product(E_Q, E_Q), KindMismatchError),
    "interior-product-across-charts": (lambda: interior_product(E_Q, OMEGA_N), ChartMismatchError),
    "lie-derivative-along-a-form": (lambda: lie_derivative(DQ, OMEGA), KindMismatchError),
    "lie-derivative-across-charts": (lambda: lie_derivative(E_Q, OMEGA_N), ChartMismatchError),
    "schouten-of-a-form": (lambda: schouten_bracket(DQ, E_Q), KindMismatchError),
    "schouten-across-charts": (lambda: schouten_bracket(E_Q, E_Q_N), ChartMismatchError),
    "jacobi-of-a-vector-field": (lambda: jacobi_check(E_Q), DegreeError),
    # poisson.py
    "pairing-of-a-2-form": (lambda: pairing(OMEGA, E_Q), DegreeError),
    "pairing-across-charts": (lambda: pairing(DQ, E_Q_N), ChartMismatchError),
    "symplectic-1-form": (lambda: SymplecticForm(DQ, PI), DegreeError),
    "symplectic-across-charts": (lambda: SymplecticForm(OMEGA_N, PI), ChartMismatchError),
    "symplectic-from-a-1-form": (lambda: SymplecticForm.from_two_form(DQ), DegreeError),
    # tangent.py
    "coordinate-map-length": (lambda: CoordinateMap(M, M, (ONE,)), DimensionMismatchError),
    "complete-lift-off-the-base": (lambda: complete_lift_vf(TM, E_Q_N), ChartMismatchError),
    "complete-lift-onto-another-base": (lambda: complete_lift_bivector(PI, tangent_chart(N)),
                                        ChartMismatchError),
    "lift-candidate-on-the-base": (lambda: tangent_lift_residuals(PI, PI), ChartMismatchError),
    "prolongation-of-a-2-form": (lambda: one_form_lift_residuals(TM, {"": OMEGA}), DegreeError),
    # reduction.py
    "pgmap-image-count": (lambda: PGMap(E1, M, ()), DimensionMismatchError),
    "pgmap-image-chart": (lambda: PGMap(E1, M, (DQ_N,)), ChartMismatchError),
    "pgmap-image-degree": (lambda: PGMap(E1, M, (OMEGA,)), DegreeError),
    "levelset-target": (lambda: require_zero_level(J, CoordinateMap(M, N, (ONE, ONE))), ChartMismatchError),
    "symplectic-generator-chart": (
        lambda: symplectic_pgmap(SymplecticForm.from_two_form(OMEGA), [E_Q_N], E1), ChartMismatchError),
    # report.py
    "report-stray-end": (lambda: parse_reports(SCHEMA + "end\n"), ValueError),
    "report-record-not-ended": (lambda: parse_reports(SCHEMA + "check: a\ncheck: b\nend\n"), ValueError),
    "report-line-outside-record": (lambda: parse_reports(SCHEMA + "verdict: pass\n"), ValueError),
    "report-unknown-line": (lambda: parse_reports(SCHEMA + "check: a\nnote: b\nend\n"), ValueError),
    "report-unterminated": (lambda: parse_reports(SCHEMA + "check: a\n"), ValueError),
    # bialgebra.py
    "cobracket-index": (lambda: LieBialgebra(["e1"], {}, {1: {}}), DimensionMismatchError),
    "cobracket-key": (lambda: LieBialgebra(["e1", "e2"], {}, {0: {(0, 2): 1}}), DimensionMismatchError),
    "lie-poisson-dimension": (lambda: lie_poisson(E1, M), DimensionMismatchError),
    # poly.py
    "variable-outside-universe": (lambda: Polynomial.variable("x", ("q", "p")), UnknownSymbolError),
    "add-a-string": (lambda: M.coord_poly("q") + "p", TypeError),
    # _linalg.py
    "invert-non-square": (lambda: _linalg.invert([[1, 2]]), ValueError),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_a_bad_argument_raises_its_own_type(case):
    call, expected = REFUSALS[case]
    with pytest.raises(Exception) as err:
        call()
    assert type(err.value) is expected
