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
r'^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .grid import AxisymField, gradient_sq_field, make_field
from .quadrature import trapezoid_weights

__all__ = ["WeissTrace", "weiss", "weiss_trace", "rescale_field"]


@dataclass(frozen=True)
class WeissTrace:
    """Monitor values over increasing radii with monotonicity flags."""

    radii: np.ndarray
    values: np.ndarray
    monotone_violation: float
    homogeneity_flag: bool


def _shell_integrand(fld: AxisymField) -> np.ndarray:
    """Per-radius integrand I(r_i) of the bulk term (theta integrated out)."""
    gsq = gradient_sq_field(fld)
    chi = (fld.values > 0.0).astype(float)
    pw = trapezoid_weights(fld.phi)
    one = math.sqrt(1.0 + fld.c * fld.c)
    ang = ((gsq + chi) * np.sin(fld.phi)[None, :] * pw[None, :]).sum(axis=1)
    return ang * fld.r**2 * 2.0 * math.pi * one


def _cumulative_bulk(fld: AxisymField):
    integrand = _shell_integrand(fld)
    r = fld.r
    # factor out the exact r'^2 growth: the quadrature of q(r') d(r'^3/3)
    # is exact for one-homogeneous fields, whose q is constant
    q = integrand / r**2
    cum = np.empty_like(r)
    cum[0] = q[0] * r[0] ** 3 / 3.0
    cum[1:] = cum[0] + np.cumsum(0.5 * (q[1:] + q[:-1]) * np.diff(r**3) / 3.0)
    return cum


def weiss(fld: AxisymField, r: float) -> float:
    """Monitor value at one radius, interpolating between grid rings."""
    return _weiss_at(fld, _cumulative_bulk(fld), r)


def _weiss_at(fld: AxisymField, cum: np.ndarray, r: float) -> float:
    """Monitor value at one radius from the field's cumulative bulk integral."""
    r = float(r)
    if not 2.0 * fld.r_min < r < 1.0 or r > fld.r[-1]:
        raise InvalidParameterError(f"radius {r} outside the measurable range")
    # interpolate the scale-free density 3 cum / r^3, exact on
    # one-homogeneous fields where it is constant
    bulk = float(np.interp(r, fld.r, 3.0 * cum / fld.r**3)) * r**3 / 3.0
    i = min(max(int(np.searchsorted(fld.r, r)) - 1, 0), len(fld.r) - 2)
    t = (r - fld.r[i]) / (fld.r[i + 1] - fld.r[i])
    row = (1.0 - t) * fld.values[i] + t * fld.values[i + 1]
    pw = trapezoid_weights(fld.phi)
    one = math.sqrt(1.0 + fld.c * fld.c)
    surf = float((row**2 * np.sin(fld.phi) * pw).sum()) * r * r * 2.0 * math.pi / one
    return bulk / r**3 - surf / r**4


def weiss_trace(fld: AxisymField, num_radii: int = 16, r_lo=None, r_hi=None) -> WeissTrace:
    """Monitor on a log-spaced radius set with monotonicity summary.

    The radii run from r_lo up to r_hi, which must be finite with
    r_lo < r_hi.  monotone_violation is the most negative increment (0
    when the trace is non-decreasing); the homogeneity flag is set when
    the total variation stays within five grid spacings.
    """
    if num_radii < 4:
        raise InvalidParameterError("trace needs at least 4 radii")
    if r_lo is None:
        r_lo = max(2.5 * fld.r_min, 0.05)
    if r_hi is None:
        r_hi = 0.9
    if not (math.isfinite(r_lo) and math.isfinite(r_hi) and r_lo < r_hi):
        raise InvalidParameterError(f"trace radii need finite r_lo < r_hi, got {r_lo!r}, {r_hi!r}")
    radii = np.geomspace(r_lo, r_hi, num_radii)
    cum = _cumulative_bulk(fld)
    values = np.array([_weiss_at(fld, cum, r) for r in radii])
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
    out = make_field(fld.shape[0], fld.shape[1], fld.c, r_min=fld.r_min)
    rs = fld.r * rho
    vals = np.empty_like(fld.values)
    for j in range(fld.shape[1]):
        vals[:, j] = np.interp(rs, fld.r, fld.values[:, j], left=np.nan, right=fld.values[-1, j])
    below = rs < fld.r_min
    if below.any():
        slope = fld.values[0] / fld.r_min
        vals[below] = np.outer(rs[below], slope)
    out.values = np.clip(vals / rho, 0.0, None)
    return out
