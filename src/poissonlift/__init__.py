"""poissonlift: exact symbolic verification of tangent lifts of Poisson
structures, momentum maps, and the coisotropic-reduction identities that
connect them, in explicit coordinates over the rationals.

The sign conventions used throughout are documented in
:mod:`poissonlift.poisson`.
"""

from .bialgebra import LieBialgebra, lie_poisson, so3_bialgebra
from .chart import (
    Chart,
    DifferentialForm,
    Multivector,
    exterior_derivative,
    interior_product,
    jacobi_check,
    lie_derivative,
    schouten_bracket,
    wedge,
)
from .oracle import SamplePlan, fd_derivative_check, sample_residual
from .parser import parse_form, parse_multivector, parse_poly
from .poisson import (
    PoissonStructure,
    SymplecticForm,
    differential,
    hamiltonian_vf,
    koszul_bracket,
    pairing,
    poisson_bracket,
    sharp,
)
from .poly import Polynomial
from .problemfile import ProblemFile, catalog, catalog_names, parse_problem
from .reduction import (
    PGMap,
    Resolved,
    comomentum_components,
    cotangent_momentum_residuals,
    hamiltonian_pgmap,
    level_set_tangency_residuals,
    symplectic_pgmap,
    tangent_generator,
    tangent_generator_direct,
)
from .report import CheckReport, emit_reports, make_report, parse_reports
from .tangent import (
    CoordinateMap,
    TangentChart,
    base_pullback,
    bundle_chart,
    complete_lift_bivector,
    complete_lift_vf,
    d_T,
    i_T,
    tangent_chart,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
