"""poissonlift: exact symbolic verification of tangent lifts of Poisson
structures, momentum maps, and the coisotropic-reduction identities that
connect them, in explicit coordinates over the rationals.

The sign conventions used throughout are documented in
:mod:`poissonlift.poisson`.
"""

from .bialgebra import LieBialgebra, abelian_bialgebra, lie_poisson, so3_bialgebra
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
    bivector_pairing,
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
    FiberLinearFunction,
    MomentumMapData,
    PGMap,
    Resolved,
    bracket_closure_check,
    certify_pgmap,
    characteristic_identity_check,
    comomentum,
    comomentum_components,
    cotangent_momentum_relation,
    generator,
    hamiltonian_comomentum,
    hamiltonian_pgmap,
    level_set_tangency_check,
    symplectic_pgmap,
    tangent_generator,
    tangent_generator_check,
    tangent_generator_direct,
)
from .report import CheckReport, emit_reports, make_report, parse_reports
from .tangent import (
    CoordinateMap,
    TangentChart,
    base_pullback,
    bundle_chart,
    canonical_involution,
    complete_lift_bivector,
    complete_lift_vf,
    d_T,
    i_T,
    tangent_chart,
    tulczyjew_alpha,
    tulczyjew_alpha_inverse,
    verify_tangent_lift_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
