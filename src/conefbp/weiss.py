"""Scale-invariant energy monitor for axisymmetric fields.

For a field u on the unit ball of the cone the monitor at radius r is

    W(r, u) = r^-3 int_{C_r} (|grad_c u|^2 + chi_{u>0}) dV
            - r^-4 int_{dC_r} u^2 r^2 sin(phi) / sqrt(1+c^2) dphi dtheta,

with the cone volume form r'^2 sin(phi) sqrt(1+c^2) dr' dphi dtheta in
the bulk.  The surface weight is the one consistent with the volume
form through the unit metric conormal (the cone is a metric cone in the
geodesic radius sqrt(1+c^2) r, and this W is the intrinsic monitor of
that cone times a constant): with it W is constant in r exactly on
fields homogeneous of degree one, non-decreasing on energy minimizers,
and first-order neutral under radial repowerings of the symmetric
solution.  The cell between the vertex and the first grid ring is
accounted for by the linear-growth model (integrand proportional to
r'^2).  One array evaluator gives W at any set of radii; weiss is its
one-element view, and the blow-up rescaling shares its row
interpolation in r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, as_count, require_finite
from .grid import AxisymField, gradient_sq_field, make_field
from .quadrature import trapezoid_weights

__all__ = ["WeissTrace", "weiss", "weiss_trace", "rescale_field"]

# Most samples of a trace (radii times the field's angles), checked before
# anything is allocated: 32 MiB per array, as for a field of 2^22 nodes.
_MAX_SAMPLES = 2**22


@dataclass(frozen=True)
class WeissTrace:
    """Monitor values over increasing radii with monotonicity flags."""

    radii: np.ndarray
    values: np.ndarray
    monotone_violation: float
    homogeneity_flag: bool


def _cumulative_bulk(fld: AxisymField):
    """Bulk integral of (|grad_c u|^2 + chi_{u>0}) dV over C_r at every grid ring r."""
    gsq = gradient_sq_field(fld)
    chi = (fld.values > 0.0).astype(float)
    r = fld.r
    # the shell density q is the bulk integrand over its r'^2 growth; the
    # quadrature of q(r') d(r'^3/3) is exact when q is constant (one-homogeneous fields)
    q = ((gsq + chi) * (np.sin(fld.phi) * trapezoid_weights(fld.phi))).sum(axis=1)
    q *= 2.0 * math.pi * math.sqrt(1.0 + fld.c * fld.c)
    cum = np.empty_like(r)
    cum[0] = q[0] * r[0] ** 3 / 3.0
    cum[1:] = cum[0] + np.cumsum(0.5 * (q[1:] + q[:-1]) * np.diff(r**3) / 3.0)
    return cum


def weiss(fld: AxisymField, r: float) -> float:
    """Monitor value at one radius, interpolating between grid rings."""
    return float(_weiss_at(fld, _cumulative_bulk(fld), np.array([float(r)]))[0])


def _rows_at(fld: AxisymField, radii: np.ndarray) -> np.ndarray:
    """Field rows at the given radii, linear in r between grid rings and beyond the end rings."""
    i = np.clip(np.searchsorted(fld.r, radii) - 1, 0, len(fld.r) - 2)
    t = ((radii - fld.r[i]) / (fld.r[i + 1] - fld.r[i]))[:, None]
    return (1.0 - t) * fld.values[i] + t * fld.values[i + 1]


def _weiss_at(fld: AxisymField, cum: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Monitor values at an array of radii from the field's cumulative bulk integral."""
    outside = ~((2.0 * fld.r_min < radii) & (radii < 1.0) & (radii <= fld.r[-1]))
    if outside.any():
        raise InvalidParameterError(f"radius {float(radii[outside][0])} outside the measurable range")
    # the bulk term interpolates the scale-free cum / r^3, exact on
    # one-homogeneous fields where it is constant; the surface term is
    # the sphere's integral of u^2 with the r^2 of its measure taken out of r^-4
    bulk = np.interp(radii, fld.r, cum / fld.r**3)
    surf = (_rows_at(fld, radii) ** 2 * np.sin(fld.phi) * trapezoid_weights(fld.phi)).sum(axis=1)
    return bulk - surf * (2.0 * math.pi / math.sqrt(1.0 + fld.c * fld.c)) / radii**2


def weiss_trace(fld: AxisymField, num_radii: int = 16, r_lo=None, r_hi=None) -> WeissTrace:
    """Monitor on a log-spaced radius set with monotonicity summary.

    The radii run from r_lo up to r_hi, which must be finite with
    0 < r_lo < r_hi.  monotone_violation is the most negative increment (0
    when the trace is non-decreasing); the homogeneity flag is set when
    the total variation stays within five grid spacings.
    """
    num_radii = as_count(num_radii, "num_radii")
    if num_radii < 4:
        raise InvalidParameterError("trace needs at least 4 radii")
    # the monitor samples a row of the field's angles at every radius
    if num_radii * fld.shape[1] > _MAX_SAMPLES:
        raise InvalidParameterError(
            f"{num_radii} radii of {fld.shape[1]} angles make more than {_MAX_SAMPLES} samples"
        )
    if r_lo is None:
        r_lo = max(2.5 * fld.r_min, 0.05)
    if r_hi is None:
        r_hi = 0.9
    if not (math.isfinite(r_lo) and math.isfinite(r_hi) and 0.0 < r_lo < r_hi):
        raise InvalidParameterError(f"trace radii need finite 0 < r_lo < r_hi, got {r_lo!r}, {r_hi!r}")
    radii = np.geomspace(r_lo, r_hi, num_radii)
    values = _weiss_at(fld, _cumulative_bulk(fld), radii)
    inc = np.diff(values)
    violation = float(min(0.0, inc.min()))
    h = max(float(np.diff(fld.r).max()), float(fld.phi[1] - fld.phi[0]))
    flag = bool(values.max() - values.min() <= 5.0 * h)
    return WeissTrace(radii=radii, values=values, monotone_violation=violation, homogeneity_flag=flag)


def rescale_field(fld: AxisymField, rho: float) -> AxisymField:
    """The blow-up rescaling u_rho(x) = u(rho x) / rho on the same grid.

    Radii that fall below the puncture use the linear-growth model.
    """
    rho = float(rho)
    if not 0.0 < rho <= 1.0:
        raise InvalidParameterError("rescaling factor must lie in (0, 1]")
    require_finite(fld.values, "field values")
    out = make_field(fld.shape[0], fld.shape[1], fld.c, r_min=fld.r_min)
    rs = fld.r * rho
    vals = _rows_at(fld, rs)
    below = rs < fld.r_min
    if below.any():
        slope = fld.values[0] / fld.r_min
        vals[below] = np.outer(rs[below], slope)
    out.values = np.clip(vals / rho, 0.0, None)
    return out
