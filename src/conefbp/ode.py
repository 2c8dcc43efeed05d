"""Shooting machinery for the separated profile equation on the cone.

A one-homogeneous separated harmonic r^beta f(phi) on the slope-c cone
requires

    f''(phi) + cot(phi) f'(phi) + lam f(phi) = 0,
    lam = beta (beta + 1) / (1 + c^2),

with f'(0) = 0 at the pole.  Profiles are integrated by a fixed-step
classical Runge-Kutta scheme from a second-order series start at
phi_eps = 10 * step (the cot singularity is removable only through the
series), carry dense cubic Hermite output, and verify themselves by
mandatory step halving.  First zeros that sit exponentially close to
the far pole are located in the stretched variable tau = log tan(phi/2),
where the equation becomes the smooth u'' = -lam sech(tau)^2 u.  Both
charts are linear, y'' = p y' + q y, so one RK4 kernel integrates them
from coefficient arrays (p = -cot phi, q = -lam on the angular grid;
p = 0, q = -lam sech^2 tau on the tail) and one Hermite evaluator gives
dense (value, slope) output on either.  Being linear, each RK4 step is
a 2x2 matrix; the kernel builds the matrices with numpy in fixed blocks
of steps and applies them in order in a plain-float loop.

The module produces the normalized symmetric solution (beta = 1 profile
rescaled to unit slope at its first zero) and the beta = -1/2 comparison
profiles whose logarithmic derivative drives the stability criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    InvalidParameterError,
    NoZeroError,
    PoleCollisionError,
    PropertyViolationError,
)

__all__ = [
    "DEFAULT_STEP",
    "PHI_CAP",
    "RadialProfile",
    "SymmetricSolution",
    "integrate_profile",
    "first_zero",
    "symmetric_solution",
    "beta_half_profile",
    "pole_series",
]

# Power of two, so grid nodes (10+i)*step are exact doubles and the
# centered-difference residual audit (test_residual_budget in
# tests/test_ode.py) sees an exactly uniform grid.
DEFAULT_STEP = 2.0**-13
# Default far end of the angular grid.  Beyond this angle profiles with a
# logarithmic branch at phi = pi lose the 1e-8 residual budget of the
# centered-difference audit; the stretched-variable tail takes over there.
PHI_CAP = 2.2
_TAIL_STEP_FACTOR = 40.0
_TAIL_PAD = 30.0
_HALVING_TOL = 1e-9
# Steps per block of RK4 step matrices: bounds the numpy temporaries of
# long runs (the halving check at the default step takes ~36k steps).
_BLOCK = 2048


def pole_series(lam: float, phi, f0: float = 1.0, order: int = 6):
    """Series solution f = f0 (1 + a2 phi^2 + a4 phi^4 + a6 phi^6) at the pole.

    Returns (f, f') arrays.  order selects the truncation degree (2, 4 or 6).
    """
    phi = np.asarray(phi, dtype=float)
    a2 = -lam / 4.0
    a4 = lam * (lam - 2.0 / 3.0) / 64.0
    a6 = (a4 * (4.0 / 3.0 - lam) + 2.0 * a2 / 45.0) / 36.0
    coeffs = [a2, a4, a6][: order // 2]
    f = np.ones_like(phi)
    fp = np.zeros_like(phi)
    for k, a in enumerate(coeffs, start=1):
        f = f + a * phi ** (2 * k)
        fp = fp + (2 * k) * a * phi ** (2 * k - 1)
    return f0 * f, f0 * fp


def _rk4_step(y, yp, h, p0, pm, p1, q0, qm, q1):
    """One classical RK4 step for y'' = p y' + q y; the arguments may be arrays."""
    h2 = 0.5 * h
    h6 = h / 6.0
    l1 = p0 * yp + q0 * y
    y2 = y + h2 * yp
    p2 = yp + h2 * l1
    l2 = pm * p2 + qm * y2
    y3 = y + h2 * p2
    p3 = yp + h2 * l2
    l3 = pm * p3 + qm * y3
    y4 = y + h * p3
    p4 = yp + h * l3
    l4 = p1 * p4 + q1 * y4
    return y + h6 * (yp + 2.0 * (p2 + p3) + p4), yp + h6 * (l1 + 2.0 * (l2 + l3) + l4)


def _rk4(y, yp, h, p, q):
    """Classical RK4 for y'' = p y' + q y from (y, yp) in steps of h.

    p and q are arrays (or scalars) of the coefficients at the half-step
    nodes x0, x0 + h/2, x0 + h, ...; 2n+1 coefficients give n steps.
    RK4 is linear in (y, y'), so each step is a 2x2 matrix of h and the
    coefficients at its three half-nodes.  For each block of _BLOCK
    steps, numpy builds the matrices at once (their columns are the step
    applied to (1, 0) and (0, 1)) and a plain-float loop applies them in
    order.  Returns (y, y') at the n+1 step nodes, starting with the
    initial data.
    """
    p, q = np.broadcast_arrays(p, q)
    n = (p.size - 1) // 2
    ys = np.empty(n + 1)
    yps = np.empty(n + 1)
    y, yp = float(y), float(yp)
    ys[0], yps[0] = y, yp
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        # the 2(e - s) + 1 half-nodes of the block, shared at its ends
        pb, qb = p[2 * s : 2 * e + 1], q[2 * s : 2 * e + 1]
        coeffs = (pb[:-1:2], pb[1::2], pb[2::2], qb[:-1:2], qb[1::2], qb[2::2])
        a, c = _rk4_step(1.0, 0.0, h, *coeffs)
        b, d = _rk4_step(0.0, 1.0, h, *coeffs)
        out_y = []
        out_yp = []
        # memoryviews hand out Python floats without a list of them
        for a_, b_, c_, d_ in zip(memoryview(a), memoryview(b), memoryview(c), memoryview(d)):
            y, yp = a_ * y + b_ * yp, c_ * y + d_ * yp
            out_y.append(y)
            out_yp.append(yp)
        ys[s + 1 : e + 1] = out_y
        yps[s + 1 : e + 1] = out_yp
    return ys, yps


def _rk4_angular(lam: float, step: float, phi_max: float):
    """RK4 for f'' = -cot(phi) f' - lam f on [10*step, phi_max] with the series start."""
    phi_eps = 10.0 * step
    n = int((phi_max - phi_eps) / step + 1e-9)
    if n < 8:
        raise InvalidParameterError("angular range too short for the requested step")
    # nodes as integer multiples of the step: exact when step is a power of two
    grid = step * np.arange(10, 11 + n)
    # -cot at the half-nodes (10 + k/2) step, built in place: one array of 2n+1
    p = np.arange(2 * n + 1, dtype=float)
    p *= 0.5
    p += 10.0
    p *= step
    np.tan(p, out=p)
    np.divide(-1.0, p, out=p)
    y = 1.0 - 0.25 * lam * phi_eps * phi_eps
    yp = -0.5 * lam * phi_eps
    f, fp = _rk4(y, yp, step, p, -lam)
    return grid, f, fp


def _tail_q(lam: float, tau: np.ndarray) -> np.ndarray:
    """Coefficient -lam sech(tau)^2 of the tail chart u'' = q u."""
    # sech^2 underflows to zero long before cosh overflows at tau ~ 710
    s = 1.0 / np.cosh(np.minimum(tau, 700.0))
    return -lam * s * s


def _hermite(xs, ys, ds, dds, i, x):
    """Cubic Hermite (value, slope) at x on the interval [xs[i], xs[i+1]].

    The value interpolates ys with slopes ds, the slope interpolates ds
    with slopes dds.  i and x may be scalars or matching arrays.
    """
    x0 = xs[i]
    h = xs[i + 1] - x0
    t = (x - x0) / h
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = (t3 - 2.0 * t2 + t) * h
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = (t3 - t2) * h
    return (
        h00 * ys[i] + h10 * ds[i] + h01 * ys[i + 1] + h11 * ds[i + 1],
        h00 * ds[i] + h10 * dds[i] + h01 * ds[i + 1] + h11 * dds[i + 1],
    )


def _interval(xs, x) -> int:
    """Index i of the interval [xs[i], xs[i+1]] holding the scalar x, clamped to the ends."""
    return min(max(int(np.searchsorted(xs, x)) - 1, 0), len(xs) - 2)


def tau_of_phi(phi: float) -> float:
    """Stretched coordinate log tan(phi/2); maps (0, pi) onto the line."""
    return math.log(math.tan(0.5 * phi))


def phi_of_tau(tau: float) -> float:
    """Inverse of tau_of_phi, evaluated in the half nearest the relevant pole."""
    if tau >= 0.0:
        return math.pi - 2.0 * math.atan(math.exp(-tau))
    return 2.0 * math.atan(math.exp(tau))


class RadialProfile:
    """Sampled solution of the separated equation with dense output.

    Values and derivatives live on the fixed-step angular grid; the
    stretched-variable tail is grown lazily when evaluation or zero
    finding requires angles beyond the grid.
    """

    def __init__(self, beta, c, grid, values, derivs, f0, step, normalized=False):
        self.beta = float(beta)
        self.c = float(c)
        self.lam = self.beta * (self.beta + 1.0) / (1.0 + self.c * self.c)
        self.grid = grid
        self.values = values
        self.derivs = derivs
        self.f0 = float(f0)
        self.step = float(step)
        self.normalized = bool(normalized)
        self._tail_tau = None
        self._tail_u = None
        self._tail_up = None
        self._fpp = None

    # -- dense output -------------------------------------------------

    def second_derivs(self) -> np.ndarray:
        """f'' at the grid nodes from the differential equation itself."""
        if self._fpp is None:
            self._fpp = -np.cos(self.grid) / np.sin(self.grid) * self.derivs - self.lam * self.values
        return self._fpp

    def _tail_step(self) -> float:
        return _TAIL_STEP_FACTOR * self.step

    def ensure_tail(self, tau_target: float) -> None:
        """Extend the stretched-variable tail at least to tau_target."""
        if self._tail_tau is None:
            phi = float(self.grid[-1])
            self._tail_tau = np.array([tau_of_phi(phi)])
            self._tail_u = self.values[-1:].copy()
            self._tail_up = np.array([float(self.derivs[-1]) * math.sin(phi)])
        h = self._tail_step()
        # the first piece reaches past the grid end even for targets short of it
        while self._tail_tau.size == 1 or self._tail_tau[-1] < tau_target:
            tau0 = float(self._tail_tau[-1])
            n = max(8, int(math.ceil((max(tau_target, tau0) - tau0 + _TAIL_PAD) / h)))
            q = _tail_q(self.lam, tau0 + 0.5 * h * np.arange(2 * n + 1))
            u, up = _rk4(self._tail_u[-1], self._tail_up[-1], h, 0.0, q)
            self._tail_tau = np.concatenate([self._tail_tau, tau0 + h * np.arange(1, n + 1)])
            self._tail_u = np.concatenate([self._tail_u, u[1:]])
            self._tail_up = np.concatenate([self._tail_up, up[1:]])

    def _tail_eval(self, tau: float):
        """(u, du/dtau) at one stretched coordinate."""
        self.ensure_tail(tau)
        i = _interval(self._tail_tau, tau)
        tt = self._tail_tau[i : i + 2]
        u = self._tail_u[i : i + 2]
        return _hermite(tt, u, self._tail_up[i : i + 2], _tail_q(self.lam, tt) * u, 0, tau)

    def value_and_deriv_at_tau(self, tau: float):
        """Dense (f, f') at phi = phi_of_tau(tau) through the tail.

        tau keeps the digits that phi loses near pi, where phi may even
        round to pi.  tau must lie beyond the angular grid.
        """
        tau = float(tau)
        u, up = self._tail_eval(tau)
        # f' = u' / sin(phi) with sin(phi) = sech(tau)
        return float(u), float(up * math.cosh(tau))

    def value_and_deriv(self, phi: float):
        """Dense (f, f') at a single angle, tail-aware beyond the grid."""
        phi = float(phi)
        g = self.grid
        if phi <= g[0]:
            f, fp = pole_series(self.lam, np.array([phi]), f0=self.f0, order=2)
            return float(f[0]), float(fp[0])
        if phi >= math.pi:
            raise PoleCollisionError("profile evaluation at or beyond phi = pi")
        if phi <= g[-1]:
            f, fp = _hermite(g, self.values, self.derivs, self.second_derivs(), _interval(g, phi), phi)
            return float(f), float(fp)
        return self.value_and_deriv_at_tau(tau_of_phi(phi))

    def sample(self, phis):
        """Vectorized dense (f, f') on an array of angles."""
        phis = np.asarray(phis, dtype=float)
        g = self.grid
        f = np.empty_like(phis)
        fp = np.empty_like(phis)
        below = phis <= g[0]
        if below.any():
            f[below], fp[below] = pole_series(self.lam, phis[below], f0=self.f0, order=2)
        beyond = phis > g[-1]
        for k in np.nonzero(beyond)[0]:
            f[k], fp[k] = self.value_and_deriv(float(phis[k]))
        mid = ~below & ~beyond
        if mid.any():
            x = phis[mid]
            i = np.clip(np.searchsorted(g, x) - 1, 0, len(g) - 2)
            f[mid], fp[mid] = _hermite(g, self.values, self.derivs, self.second_derivs(), i, x)
        return f, fp

    def value(self, phi):
        if np.ndim(phi):
            return self.sample(phi)[0]
        return float(self.value_and_deriv(float(phi))[0])

    def scaled(self, factor: float) -> "RadialProfile":
        out = RadialProfile(
            self.beta,
            self.c,
            self.grid,
            self.values * factor,
            self.derivs * factor,
            self.f0 * factor,
            self.step,
            normalized=True,
        )
        if self._tail_tau is not None:
            out._tail_tau = self._tail_tau
            out._tail_u = self._tail_u * factor
            out._tail_up = self._tail_up * factor
        return out

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = [
            f"beta={self.beta!r}",
            f"c={self.c!r}",
            f"step={self.step!r}",
            f"f0={self.f0!r}",
            f"normalized={int(self.normalized)}",
        ]
        for p, v, d in zip(self.grid, self.values, self.derivs):
            lines.append("%.17g,%.17g,%.17g" % (p, v, d))
        return "\n".join(lines) + "\n"


def integrate_profile(beta, c, phi_max, step=DEFAULT_STEP, verify=True) -> RadialProfile:
    """Integrate the separated equation on [10*step, phi_max].

    The integration is repeated at half the step when ``verify`` is set;
    a sup-norm disagreement above 1e-9 on shared nodes raises
    ConvergenceFailureError.
    """
    beta = float(beta)
    c = float(c)
    phi_max = float(phi_max)
    step = float(step)
    if not -1.0 <= beta <= 2.0:
        raise InvalidParameterError(f"homogeneity exponent must lie in [-1, 2], got {beta}")
    if not (math.isfinite(c) and c >= 0.0):
        raise InvalidParameterError(f"cone slope must be finite and >= 0, got {c}")
    if not math.isfinite(1.0 + c * c):
        # c * c overflows and would make lam = 0
        raise InvalidParameterError(f"cone slope squared overflows, got {c}")
    if not math.isfinite(phi_max):
        raise InvalidParameterError(f"phi_max must be finite, got {phi_max}")
    if phi_max >= math.pi:
        raise PoleCollisionError(f"phi_max must stay below pi, got {phi_max}")
    if not 0.0 < step <= 1e-3:
        raise InvalidParameterError(f"step must lie in (0, 1e-3], got {step}")
    lam = beta * (beta + 1.0) / (1.0 + c * c)
    grid, f, fp = _rk4_angular(lam, step, phi_max)
    if verify:
        _, f2, fp2 = _rk4_angular(lam, 0.5 * step, phi_max)
        idx = 10 + 2 * np.arange(len(grid))
        df = float(np.max(np.abs(f - f2[idx])))
        dfp = float(np.max(np.abs(fp - fp2[idx])))
        # the second-order series start truncates at 4|a4|(10 step)^3 in
        # f'; at the default step this sits below the 1e-9 budget, at
        # coarser steps it dominates the halving comparison
        a4 = lam * (lam - 2.0 / 3.0) / 64.0
        tol = max(_HALVING_TOL, 6.0 * abs(a4) * (10.0 * step) ** 3)
        if max(df, dfp) > tol:
            raise ConvergenceFailureError(
                f"step-halving disagreement {max(df, dfp):.3e} above {tol:.3e}",
                log=[("sup_df", df), ("sup_dfp", dfp)],
            )
    return RadialProfile(beta, c, grid, f, fp, 1.0, step)


def _bracketed_newton(fun, a, b, fa, fb, tol=1e-13, max_iter=120):
    # orientation-free bracketed Newton with bisection fallback; fun(x)
    # returns the value and the derivative together
    x = 0.5 * (a + b)
    for _ in range(max_iter):
        fx, d = fun(x)
        if fa * fx > 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
        if d != 0.0:
            xn = x - fx / d
        else:
            xn = 0.5 * (a + b)
        if not (min(a, b) < xn < max(a, b)):
            xn = 0.5 * (a + b)
        if abs(xn - x) <= tol * (1.0 + abs(x)):
            return xn
        x = xn
    return x


def _locate_zero(profile: RadialProfile):
    """First zero as (phi0, tau0, deriv_at_zero); tail-aware."""
    v = profile.values
    hits = np.nonzero((v[:-1] > 0.0) & (v[1:] <= 0.0))[0]
    if hits.size:
        i = int(hits[0])
        g = profile.grid
        fpp = profile.second_derivs()

        def fun(x):
            return _hermite(g, v, profile.derivs, fpp, i, x)

        phi0 = _bracketed_newton(fun, g[i], g[i + 1], v[i], v[i + 1])
        return phi0, tau_of_phi(phi0), fun(phi0)[1]
    if float(v[-1]) <= 0.0:
        raise NoZeroError("profile not positive at the start of the searched range")
    # march the stretched-variable tail; curvature dies like exp(-2 tau),
    # after which the exact zero follows from linear extrapolation
    profile.ensure_tail(tau_of_phi(profile.grid[-1]) + _TAIL_PAD)
    tt, u, up = profile._tail_tau, profile._tail_u, profile._tail_up
    hits = np.nonzero((u[:-1] > 0.0) & (u[1:] <= 0.0))[0]
    if hits.size:
        i = int(hits[0])
        tau0 = _bracketed_newton(profile._tail_eval, tt[i], tt[i + 1], u[i], u[i + 1])
        return phi_of_tau(tau0), tau0, profile.value_and_deriv_at_tau(tau0)[1]
    u_end, up_end = float(u[-1]), float(up[-1])
    if up_end >= 0.0:
        raise NoZeroError("profile does not decay; no zero before the far pole")
    tau0 = float(tt[-1]) - u_end / up_end
    try:
        cosh0 = math.cosh(tau0)
    except OverflowError:
        raise InvalidParameterError(
            f"first zero lies within double rounding of pi (tau0 = {tau0:.6g})"
        ) from None
    return phi_of_tau(tau0), tau0, up_end * cosh0


def first_zero(profile: RadialProfile) -> float:
    """Smallest positive zero of the profile, to root tolerance 1e-10.

    Zeros on the angular grid are refined through the dense Hermite
    output; zeros beyond the grid are located in the stretched variable.
    Raises NoZeroError when the profile never crosses zero.
    """
    return _locate_zero(profile)[0]


@dataclass(frozen=True)
class SymmetricSolution:
    """Normalized one-homogeneous symmetric solution r f(phi).

    The profile is the beta = 1 solution rescaled so that f'(phi0) = -1,
    which makes the metric gradient of r f equal to one along the free
    boundary cone phi = phi0.
    """

    profile: RadialProfile
    phi0: float
    tau0: float
    t0: float
    sin_phi0: float
    H1: float
    slope_at_zero: float

    @property
    def c(self) -> float:
        return self.profile.c

    def profile_value(self, phi):
        return self.profile.value(phi)


def _phi_max(step) -> float:
    """Far end of the angular grid: PHI_CAP, or 40 steps short of pi."""
    return min(PHI_CAP, math.pi - 40.0 * step)


def symmetric_solution(c, step=DEFAULT_STEP) -> SymmetricSolution:
    """Build the normalized symmetric solution for slope c."""
    c = float(c)
    prof = integrate_profile(1.0, c, _phi_max(step), step=step)
    phi0, tau0, slope = _locate_zero(prof)
    scale = -1.0 / slope
    norm = prof.scaled(scale)
    # pole-side quantities from tau0: exact and overflow-free near pi
    t0 = -math.tanh(tau0)
    sin0 = 1.0 / math.cosh(tau0)
    return SymmetricSolution(
        profile=norm,
        phi0=phi0,
        tau0=tau0,
        t0=t0,
        sin_phi0=sin0,
        H1=-t0 / sin0,
        slope_at_zero=-1.0,
    )


def beta_half_profile(c, step=DEFAULT_STEP) -> RadialProfile:
    """Comparison profile with exponent -1/2, positive and nondecreasing.

    Positivity and monotonicity are audited on the angular grid and on
    the stretched-variable tail out to the equivalent of pi - 10*step.
    """
    c = float(c)
    prof = integrate_profile(-0.5, c, _phi_max(step), step=step)
    if np.any(prof.values <= 0.0):
        raise PropertyViolationError("comparison profile lost positivity on the grid")
    if np.any(prof.derivs < -1e-12):
        raise PropertyViolationError("comparison profile lost monotonicity on the grid")
    tau_audit = tau_of_phi(math.pi - 10.0 * step)
    prof.ensure_tail(tau_audit)
    keep = prof._tail_tau <= tau_audit + prof._tail_step()
    if np.any(prof._tail_u[keep] <= 0.0) or np.any(prof._tail_up[keep] < -1e-12):
        raise PropertyViolationError("comparison profile lost positivity or monotonicity near the far pole")
    return prof
