"""Numerical laboratory for the one-phase free boundary problem on cones.

Constructs the symmetric one-homogeneous solution on the cone
x4 = c |x| in R^4, classifies its stability, locates the critical slope
by ITP root finding, minimizes the positivity-penalized Dirichlet energy on
axisymmetric grids, audits the scale-invariant boundary-energy monitor,
and certifies explicit sub- and supersolution barriers.

Importing the package loads no submodule: each name below is imported
from its module on first access, so ``conefbp morgan`` and ``import
conefbp`` start without numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": "ConvergenceFailureError GridMismatchError InvalidBracketError InvalidParameterError"
        " InvalidTestFunctionError NoZeroError PoleCollisionError PropertyViolationError",
        "geometry": "CapGeometry cap_geometry homogeneity_exponent is_minimizing morgan_threshold",
        "ode": "RadialProfile SymmetricSolution beta_half_profile first_zero integrate_profile symmetric_solution",
        "stability": "SmoothBump StabilityReport find_critical_c0 radial_instability_witness stability_margin"
        " steklov_min_quotient",
        "grid": "AxisymField dirichlet_solve field_from_solution gradient_sq_field make_field save_field_text",
        "minimize": "MinimizeConfig MinimizeResult compare_to_symmetric energy free_boundary_angle minimize",
        "weiss": "WeissTrace rescale_field weiss weiss_trace",
        "barriers": "BarrierConfig BarrierReport LiftReport admissible_parameter_search audit_pair"
        " decomposition_terms hessian_gradient_inequality laplacian_sign_audit subharmonicity_margin"
        " supersolution_lift_check",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing conefbp.minimize or conefbp.weiss binds the submodule to
        # its name here; the exported function of that name keeps it
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
