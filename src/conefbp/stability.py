"""Stability classification of the symmetric one-homogeneous solution.

The solution is stable exactly when the boundary slope of the
exponent -1/2 comparison profile dominates the free-boundary mean
curvature, g'(phi0) >= H1 g(phi0).  The same number 1/H1 * g'/g is the
infimum of the boundary Rayleigh quotient

    E(F) = int_G g^ij F_i F_j  /  int_dG H F^2 dsigma

over axisymmetric F vanishing on the spherical ends of an annulus.  On a
log-r grid the discrete quotient separates, so its exact minimum (a
closed-form radial mode and one angular elimination) cross-checks the
closed form.  A radial test function exhibits the loss of stability
for large slopes, and the critical slope is located by ITP (interpolate,
truncate, project) root finding on the sign of the margin.  Every
function here integrates its profiles at ode.DEFAULT_STEP unless given
another step.
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
    as_count,
)
from .ode import DEFAULT_STEP, beta_half_profile, checked_solution, symmetric_solution
from .quadrature import simpson_uniform, trapezoid_weights

__all__ = [
    "StabilityReport",
    "SmoothBump",
    "stability_margin",
    "find_critical_c0",
    "radial_instability_witness",
    "steklov_min_quotient",
]

# Most angles of the Steklov grid, checked before anything is allocated;
# its pivot loop takes about 0.2 s at 2^20.
_MAX_NUM_PHI = 2**20


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

    def to_dict(self) -> dict:
        return asdict(self)


def stability_margin(c, step=DEFAULT_STEP, sol=None) -> StabilityReport:
    """Evaluate margin = g'(phi0) - H1 g(phi0) for the slope-c cone.

    The product form avoids dividing by H1, so the flat cone (H1 = 0) is
    regular.  The equivalent ratio -(sin/cos)(g'/g) at phi0 is reported
    only when the zero sits strictly beyond the equator, where the two
    forms are algebraically equivalent.  A margin that overflows, as
    H1 g(phi0) does from c = 53.28 at the default step and at 1e-3,
    raises InvalidParameterError.  sol, when given, is the symmetric
    solution at this c and step; a solution at another c or step raises
    InvalidParameterError.
    """
    sol = checked_solution(sol, c, step)
    g = beta_half_profile(c, step=step)
    if sol.phi0 <= g.grid[-1]:
        gv, gp = g.value_and_deriv(sol.phi0)
    else:
        # phi0 loses digits near pi and rounds to it from c = 12 on; tau0 keeps them
        gv, gp = g.value_and_deriv_at_tau(sol.tau0)
    if gv <= 0.0:
        raise PropertyViolationError("comparison profile not positive at the free boundary angle")
    margin = gp - sol.H1 * gv
    if not math.isfinite(margin):
        raise InvalidParameterError(
            f"stability margin overflows at slope c = {float(c)!r} (H1 = {sol.H1:.6g})"
        )
    ratio = None
    if sol.t0 < -1e-8:
        ratio = -(sol.sin_phi0 / sol.t0) * (gp / gv)
    return StabilityReport(
        c=float(c),
        phi0=sol.phi0,
        H1=sol.H1,
        g_at_phi0=gv,
        gp_at_phi0=gp,
        margin=margin,
        stable=bool(margin >= 0.0),
        ratio=ratio,
    )


def find_critical_c0(bracket, tol, step=DEFAULT_STEP, record=None) -> float:
    """Locate the stability margin sign change inside ``bracket`` by ITP.

    Requires margin > 0 at the low end and < 0 at the high end; each
    margin evaluation is appended to ``record``, in order, when a list
    is supplied.  ITP (Oliveira & Takahashi, ACM TOMS 47 (2020), art. 5;
    kappa1 = 0.2 / (hi - lo), kappa2 = 2, n0 = 1) moves the regula falsi
    point towards the midpoint by kappa1 (hi - lo)^2 and keeps it within
    a radius of the midpoint that halves with every point, so the search
    never takes more points than bisection plus one.  It stops once the
    bracket is at most tol wide or two adjacent doubles, and returns the
    bracket's midpoint.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 <= lo < hi and math.isfinite(tol) and tol > 0.0):
        raise InvalidParameterError("bracket must satisfy 0 <= lo < hi with finite tol > 0")
    r_lo = stability_margin(lo, step=step)
    r_hi = stability_margin(hi, step=step)
    if record is not None:
        record.extend([r_lo, r_hi])
    m_lo, m_hi = r_lo.margin, r_hi.margin
    if not (m_lo > 0.0 > m_hi):
        raise InvalidBracketError(f"margins at bracket ends do not straddle zero: {m_lo}, {m_hi}")
    k1 = 0.2 / (hi - lo)
    # point j (from 0) lies within radius / 2^j - (hi - lo) / 2 of the
    # midpoint, radius = t 2^n the first such power >= hi - lo, so after
    # n + 1 points the bracket is at most t wide.  A tol below the double
    # spacing at hi counts as that spacing; doubling never raises, as
    # (hi - lo) / tol or 2.0 ** n can
    t = max(tol, math.ulp(hi))
    radius = t
    while radius < hi - lo:
        radius *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        # a tol below the double spacing of the bracket leaves mid on an end
        if not lo < mid < hi:
            break
        x = lo + (hi - lo) * (m_lo / (m_lo - m_hi))
        # truncate towards the midpoint, never past it, then project onto the radius
        x += math.copysign(min(k1 * (hi - lo) ** 2, abs(mid - x)), mid - x)
        r = max(radius - 0.5 * (hi - lo), 0.0)
        x = min(max(x, mid - r), mid + r)
        radius *= 0.5
        # a point rounded onto an end falls back to the midpoint
        if not lo < x < hi:
            x = mid
        rep = stability_margin(x, step=step)
        if record is not None:
            record.append(rep)
        if rep.margin > 0.0:
            lo, m_lo = x, rep.margin
        else:
            hi, m_hi = x, rep.margin
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


def radial_instability_witness(c, F, step=DEFAULT_STEP):
    """Surface and bulk integrals of the radial second-variation test.

    Returns (lhs, rhs): lhs, the free-boundary surface integral of H F^2,
    is -2 pi t0 int F^2 dr, as H = H1/r meets the surface measure
    r sin(phi0) dr dtheta and H1 sin(phi0) = -t0; rhs is the metric
    Dirichlet integral of the radial extension of F over the positivity
    cone (flat volume normalization), whose angular factor is
    int_0^phi0 sin = 1 - t0.  The radial integrals are composite Simpson
    on 4097 radii.  F' is F.deriv; an F with support and without it, or
    with F or F' not finite there, raises InvalidTestFunctionError.
    """
    sol = symmetric_solution(c, step=step)
    peak = _check_radial_support(F)
    if peak == 0.0:
        return 0.0, 0.0
    if not hasattr(F, "deriv"):
        raise InvalidTestFunctionError("radial test function needs a deriv method")
    r = np.linspace(0.0, 1.0, 4097)
    fvals = np.asarray(F(r), dtype=float)
    fp = np.asarray(F.deriv(r), dtype=float)
    if not (np.all(np.isfinite(fvals)) and np.all(np.isfinite(fp))):
        raise InvalidTestFunctionError("radial test function and its derivative must be finite on [0, 1]")
    h = r[1] - r[0]
    lhs = -2.0 * math.pi * sol.t0 * simpson_uniform(fvals**2, h)
    rad_int = simpson_uniform(fp**2 / (1.0 + sol.c * sol.c) * r**2 * 2.0 * math.pi, h)
    return float(lhs), float(rad_int * (1.0 - sol.t0))


def steklov_min_quotient(c, R, num_r=257, num_phi=129, step=DEFAULT_STEP, sol=None) -> float:
    """Minimum of the discrete boundary Rayleigh quotient on (1/R, R).

    Fields on a grid uniform in log r and in phi on [0, phi0] vanish at
    both radial ends.  The quotient separates (fast diagonalization,
    Lynch, Rice & Thomas 1964): its minimum is 1 / (|t0| e^T (mu D + L)^-1
    e), with D and L the angular mass and stiffness and mu = 4 (sinh^2(h/4)
    + sin^2(pi/(2N))) / h^2 the lowest radial eigenvalue, of the mode
    e^(-rho/2) sin(pi i/N) on N = num_r - 1 cells of width h = 2 log R / N.
    Eliminating mu D + L from the pole leaves the inverse of e^T (mu D +
    L)^-1 e as its last pivot, so no matrix is built.  Refined, mu tends
    to 1/4 + pi^2 / (4 log^2 R) and the result to the exact annulus
    minimum, which exceeds the R = inf ratio of ``stability_margin`` by
    O(1/log^2 R).  sol, when given, is the symmetric solution at this c
    and step, as in ``stability_margin``.
    """
    c = float(c)
    R = float(R)
    if not (math.isfinite(c) and c > 0.0):
        raise InvalidParameterError("boundary quotient needs finite c > 0 so the curvature is positive")
    if not (math.isfinite(R) and R >= 4.0):
        raise InvalidParameterError("annulus ratio R must be finite and at least 4")
    if as_count(num_r, "num_r") < 3 or as_count(num_phi, "num_phi") < 2:
        raise InvalidParameterError("annulus grid needs num_r >= 3 and num_phi >= 2")
    if num_phi > _MAX_NUM_PHI:
        raise InvalidParameterError(f"num_phi = {num_phi} is more than {_MAX_NUM_PHI} angles")
    sol = checked_solution(sol, c, step)
    n = num_r - 1
    h = 2.0 * math.log(R) / n
    mu = 4.0 * (math.sinh(0.25 * h) ** 2 + math.sin(0.5 * math.pi / n) ** 2) / h**2
    phi = np.linspace(0.0, sol.phi0, num_phi)
    d = (mu * np.sin(phi) * trapezoid_weights(phi) / (1.0 + c * c)).tolist()
    b = (np.sin(0.5 * (phi[1:] + phi[:-1])) / (phi[1] - phi[0])).tolist()
    # s is each pivot less the next edge weight: the pole side in series
    # with edge b, in parallel with the mass d_j
    s = d[0]
    for dj, bj in zip(d[1:], b):
        s = dj + bj * s / (s + bj)
    return s / abs(sol.t0)
