"""Numerical laboratory for the one-phase free boundary problem on cones.

Constructs the symmetric one-homogeneous solution on the cone
x4 = c |x| in R^4, classifies its stability, locates the critical slope
by bisection, minimizes the positivity-penalized Dirichlet energy on
axisymmetric grids, audits the scale-invariant boundary-energy monitor,
and certifies explicit sub- and supersolution barriers.
"""

from .errors import (
    ConvergenceFailureError,
    GridMismatchError,
    InvalidBracketError,
    InvalidParameterError,
    InvalidTestFunctionError,
    NoZeroError,
    PoleCollisionError,
    PropertyViolationError,
)
from .geometry import (
    CapGeometry,
    cap_geometry,
    homogeneity_exponent,
    is_minimizing,
    morgan_threshold,
)
from .ode import (
    RadialProfile,
    SymmetricSolution,
    beta_half_profile,
    first_zero,
    integrate_profile,
    symmetric_solution,
)
from .stability import (
    SmoothBump,
    StabilityReport,
    find_critical_c0,
    radial_instability_witness,
    stability_margin,
    steklov_min_quotient,
)
from .grid import (
    AxisymField,
    dirichlet_solve,
    field_from_solution,
    gradient_sq_field,
    make_field,
    save_field_text,
)
from .minimize import (
    MinimizeConfig,
    MinimizeResult,
    compare_to_symmetric,
    energy,
    free_boundary_angle,
    minimize,
)
from .weiss import WeissTrace, rescale_field, weiss, weiss_trace
from .barriers import (
    BarrierConfig,
    BarrierReport,
    LiftReport,
    admissible_parameter_search,
    audit_pair,
    decomposition_terms,
    hessian_gradient_inequality,
    laplacian_sign_audit,
    subharmonicity_margin,
    supersolution_lift_check,
)

__version__ = "0.1.0"
