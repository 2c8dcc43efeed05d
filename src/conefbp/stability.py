"""Stability classification of the symmetric one-homogeneous solution.

The solution is stable exactly when the boundary slope of the
exponent -1/2 comparison profile dominates the free-boundary mean
curvature, g'(phi0) >= H1 g(phi0).  The same number 1/H1 * g'/g is the
infimum of the boundary Rayleigh quotient

    E(F) = int_G g^ij F_i F_j  /  int_dG H F^2 dsigma

over axisymmetric F vanishing on the spherical ends of an annulus.  On a
log-r grid the discrete quotient separates into radial modes, so its
exact minimum (one radial eigenvalue and one angular solve) cross-checks
the closed form.  A radial test function exhibits the loss of stability
for large slopes, and the critical slope is bisected from the sign of
the margin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    InvalidBracketError,
    InvalidParameterError,
    InvalidTestFunctionError,
    PropertyViolationError,
)
from .grid import _stiffness
from .ode import beta_half_profile, symmetric_solution
from .quadrature import simpson_uniform, trapezoid_weights

__all__ = [
    "StabilityReport",
    "SmoothBump",
    "stability_margin",
    "find_critical_c0",
    "radial_instability_witness",
    "steklov_min_quotient",
]

_SWEEP_STEP = 1e-3


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the boundary-slope stability criterion at one slope."""

    c: float
    phi0: float
    H1: float
    g_at_phi0: float
    gp_at_phi0: float
    margin: float
    stable: bool
    ratio: float | None = None
    steklov_lambda: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def stability_margin(c, step=_SWEEP_STEP, with_steklov=False) -> StabilityReport:
    """Evaluate margin = g'(phi0) - H1 g(phi0) for the slope-c cone.

    The product form avoids dividing by H1, so the flat cone (H1 = 0) is
    regular.  The equivalent ratio -(sin/cos)(g'/g) at phi0 is reported
    only when the zero sits strictly beyond the equator, where the two
    forms are algebraically equivalent.  with_steklov adds the discrete
    quotient minimum on (1/32, 32) at the default 257 x 129 grid; it
    stays None on the flat cone c = 0, whose free boundary has no mean
    curvature to weight the quotient by.
    """
    sol = symmetric_solution(c, step=step)
    g = beta_half_profile(c, step=step)
    if sol.phi0 <= g.grid[-1]:
        gv, gp = g.value_and_deriv(sol.phi0)
    else:
        # phi0 loses digits near pi and rounds to it from c = 12 on; tau0 keeps them
        gv, gp = g.value_and_deriv_at_tau(sol.tau0)
    if gv <= 0.0:
        raise PropertyViolationError("comparison profile not positive at the free boundary angle")
    margin = gp - sol.H1 * gv
    ratio = None
    if sol.t0 < -1e-8:
        ratio = -(sol.sin_phi0 / sol.t0) * (gp / gv)
    lam = None
    if with_steklov and c > 0.0:
        lam = steklov_min_quotient(c, 32.0, step=step)
    return StabilityReport(
        c=float(c),
        phi0=sol.phi0,
        H1=sol.H1,
        g_at_phi0=gv,
        gp_at_phi0=gp,
        margin=margin,
        stable=bool(margin >= 0.0),
        ratio=ratio,
        steklov_lambda=lam,
    )


def find_critical_c0(bracket, tol, step=_SWEEP_STEP, record=None) -> float:
    """Bisect the stability margin sign change inside ``bracket``.

    Requires margin > 0 at the low end and < 0 at the high end; each
    margin evaluation is appended to ``record`` when a list is supplied.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 <= lo < hi and math.isfinite(tol) and tol > 0.0):
        raise InvalidParameterError("bracket must satisfy 0 <= lo < hi with finite tol > 0")
    r_lo = stability_margin(lo, step=step)
    r_hi = stability_margin(hi, step=step)
    if record is not None:
        record.extend([r_lo, r_hi])
    if not (r_lo.margin > 0.0 > r_hi.margin):
        raise InvalidBracketError(
            f"margins at bracket ends do not straddle zero: {r_lo.margin}, {r_hi.margin}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        r = stability_margin(mid, step=step)
        if record is not None:
            record.append(r)
        if r.margin > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class SmoothBump:
    """C-infinity bump exp(-1/(1-t^2)) rescaled to the interval (a, b)."""

    def __init__(self, a=0.2, b=0.9):
        if not 0.0 <= a < b <= 1.0:
            raise InvalidParameterError("bump interval must satisfy 0 <= a < b <= 1")
        self.a = float(a)
        self.b = float(b)

    def _t(self, r):
        return (2.0 * np.asarray(r, dtype=float) - (self.a + self.b)) / (self.b - self.a)

    def __call__(self, r):
        t = self._t(r)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
        return out if out.ndim else float(out)

    def deriv(self, r):
        t = self._t(r)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        core = np.exp(-1.0 / (1.0 - ti * ti))
        out[inside] = core * (-2.0 * ti / (1.0 - ti * ti) ** 2) * (2.0 / (self.b - self.a))
        return out if out.ndim else float(out)


def _check_radial_support(F, lo=0.02, hi=0.98):
    r = np.linspace(0.0, 1.0, 2001)
    vals = np.abs(np.asarray(F(r), dtype=float))
    peak = float(vals.max())
    if peak == 0.0:
        return 0.0
    edge = max(float(vals[r <= lo].max()), float(vals[r >= hi].max()))
    if edge > 1e-12 * peak:
        raise InvalidTestFunctionError("radial test function must vanish near 0 and 1")
    return peak


def radial_instability_witness(c, F, step=_SWEEP_STEP):
    """Surface and bulk integrals of the radial second-variation test.

    Returns (lhs, rhs) with lhs the free-boundary surface integral of
    H F^2 and rhs the metric Dirichlet integral of the radial extension
    of F over the positivity cone, both by direct tensor quadrature in
    spherical coordinates (4097 radii, 513 angles) with the flat volume
    normalization of the variational inequality.  F' is F.deriv; an F
    with support and without it raises InvalidTestFunctionError.
    """
    sol = symmetric_solution(c, step=step)
    peak = _check_radial_support(F)
    if peak == 0.0:
        return 0.0, 0.0
    if not hasattr(F, "deriv"):
        raise InvalidTestFunctionError("radial test function needs a deriv method")
    r = np.linspace(0.0, 1.0, 4097)
    fvals = np.asarray(F(r), dtype=float)
    # lhs: H = H1/r against the flat surface measure r sin(phi0) dr dtheta
    integrand = (sol.H1 / np.where(r == 0.0, 1.0, r)) * fvals**2 * (r * sol.sin_phi0) * 2.0 * math.pi
    lhs = simpson_uniform(integrand, r[1] - r[0])
    fp = np.asarray(F.deriv(r), dtype=float)
    phi = np.linspace(0.0, sol.phi0, 513)
    radial = fp**2 / (1.0 + sol.c * sol.c) * r**2 * 2.0 * math.pi
    rad_int = simpson_uniform(radial, r[1] - r[0])
    ang_int = simpson_uniform(np.sin(phi), phi[1] - phi[0])
    rhs = rad_int * ang_int
    return float(lhs), float(rhs)


def steklov_min_quotient(c, R, num_r=257, num_phi=129, step=_SWEEP_STEP) -> float:
    """Minimum of the discrete boundary Rayleigh quotient on (1/R, R).

    Discretizes axisymmetric fields on a grid uniform in log r (which
    resolves the near-optimal r^(-1/2) profile with few nodes) and in
    phi on [0, phi0], with fields vanishing at both radial ends, and
    returns the smallest eigenvalue of A F = lambda B F, where A is the
    metric Dirichlet form and B the free-boundary mass weighted by the
    mean curvature.  Both are tensor products, A = K (x) D + M (x) L and
    B = |t0| M (x) e e^T, so the problem separates (fast diagonalization,
    Lynch, Rice & Thomas 1964): radial mode mu with K v = mu M v gives
    lambda(mu) = 1 / (|t0| e^T (mu D + L)^-1 e), increasing in mu, and
    the minimum is exact at the lowest radial eigenvalue mu_1.

    The zero radial ends raise the lowest radial mode of F = e^(-rho/2)
    v(rho) h(phi) from 1/4 to mu_R = 1/4 + pi^2 / (4 log^2 R).  As the
    grid is refined the result converges to the closed form at mu_R,
    sin(phi0) h'(phi0) / (|cos phi0| h(phi0)) with h'' + cot h' -
    mu_R/(1+c^2) h = 0 regular at the pole, not to the R = inf ratio of
    ``stability_margin`` (mu = 1/4); the gap to that ratio decays like
    1/log^2 R.
    """
    c = float(c)
    R = float(R)
    if not (math.isfinite(c) and c > 0.0):
        raise InvalidParameterError("boundary quotient needs finite c > 0 so the curvature is positive")
    if not (math.isfinite(R) and R >= 4.0):
        raise InvalidParameterError("annulus ratio R must be finite and at least 4")
    if num_r < 3 or num_phi < 2:
        raise InvalidParameterError("annulus grid needs num_r >= 3 and num_phi >= 2")
    sol = symmetric_solution(c, step=step)
    rho_max = math.log(R)
    rho = np.linspace(-rho_max, rho_max, num_r)
    phi = np.linspace(0.0, sol.phi0, num_phi)
    # the discrete form int [F_rho^2/(1+c^2) + F_phi^2] e^rho sin(phi) has
    # radial edge weights a_i d_j and angular edge weights m_i b_j; the
    # free-boundary mass is |t0| m_i on the last phi column
    a = np.exp(0.5 * (rho[1:] + rho[:-1])) / (rho[1] - rho[0])
    d = np.sin(phi) * trapezoid_weights(phi) / (1.0 + c * c)
    m = np.exp(rho) * trapezoid_weights(rho)
    b = np.sin(0.5 * (phi[1:] + phi[:-1])) / (phi[1] - phi[0])
    scale = 1.0 / np.sqrt(m[1:-1])
    k = _stiffness(a)[1:-1, 1:-1]
    mu1 = np.linalg.eigvalsh(scale[:, None] * k * scale[None, :])[0]
    e_last = np.zeros(num_phi)
    e_last[-1] = 1.0
    h = np.linalg.solve(mu1 * np.diag(d) + _stiffness(b), e_last)
    return float(1.0 / (abs(sol.t0) * h[-1]))
