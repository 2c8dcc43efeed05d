"""Certification of explicit sub- and supersolution barriers.

The barrier family r f(phi) -/+ eps r^beta (M - cos phi) traps the
symmetric solution when three computable facts hold: the separated
factor r^beta (M - cos phi) is superharmonic on the cone, the squared
metric gradient along the implicit zero set decreases strictly in phi
below the free-boundary angle (its phi-derivative splits into the three
displayed terms I + II + III), and on the supersolution side a pasting
angle phi2 beyond the free boundary keeps the third term negative.  The
pasted lift (harmonic in the ball above the plane x3 = cos(phi2), zero
on the plane) must have metric gradient below one on the plane and
radial flux above the outer barrier's on the sphere.  Every audit here
is a pure decision over sampled grids with worst-node reporting; the
existential constants of the comparison argument are replaced by a
dyadic search that emits checkable certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NoZeroError
from .grid import dirichlet_solve, make_field
from .ode import symmetric_solution

__all__ = [
    "BarrierConfig",
    "BarrierReport",
    "LiftReport",
    "laplacian_sign_audit",
    "gradient_on_zero_set",
    "derivative_decomposition",
    "decomposition_terms",
    "admissible_parameter_search",
    "supersolution_lift_check",
    "hessian_gradient_inequality",
    "subharmonicity_margin",
]


@dataclass(frozen=True)
class BarrierConfig:
    """Barrier parameters; the offset M must exceed 1 so M - cos > 0."""

    c: float
    M: float
    beta: float = -0.5
    epsilon: float | None = None
    phi2: float | None = None

    def __post_init__(self):
        given = (self.c, self.M, self.beta) + (() if self.phi2 is None else (self.phi2,))
        if not all(math.isfinite(v) for v in given):
            raise InvalidParameterError("barrier parameters must be finite")
        if self.M <= 1.0:
            raise InvalidParameterError("barrier offset M must exceed 1")
        if not -1.0 < self.beta < 0.0:
            raise InvalidParameterError("barrier exponent must lie in (-1, 0)")
        if self.c < 0.0:
            raise InvalidParameterError("cone slope must be nonnegative")


@dataclass
class BarrierReport:
    """Audit outcome for one (c, M) pair."""

    config: BarrierConfig
    laplacian_sign_ok: bool
    laplacian_worst_phi: float
    laplacian_worst_value: float
    decomposition_margin: float | None = None
    phi2: float | None = None
    zero_set_min_gradient: float | None = None
    lift: "LiftReport | None" = None
    certified: bool = False

    def to_dict(self) -> dict:
        out = {
            "c": self.config.c,
            "beta": self.config.beta,
            "M": self.config.M,
            "phi2": self.phi2,
            "checks": {
                "laplacian_sign_ok": self.laplacian_sign_ok,
                "certified": self.certified,
            },
            "margins": {
                "laplacian_worst_value": self.laplacian_worst_value,
                "decomposition_margin": self.decomposition_margin,
                "zero_set_min_gradient": self.zero_set_min_gradient,
            },
        }
        if self.lift is not None:
            out["checks"]["lift_gradient_ok"] = self.lift.lift_gradient_ok
            out["margins"]["lift_flat_margin"] = self.lift.flat_margin
            out["margins"]["lift_flux_margin"] = self.lift.flux_margin
        return out


def laplacian_sign_audit(config: BarrierConfig, num: int = 10001):
    """Sign of the separated-factor Laplacian bracket over [0, pi].

    The bracket is beta(beta+1)/(1+c^2) (M - cos phi) + 2 cos phi; the
    factor r^(beta-2) is positive, so the barrier term is superharmonic
    exactly when the bracket stays nonpositive.  Returns (ok, worst phi,
    worst value).
    """
    phi = np.linspace(0.0, math.pi, num)
    lam = config.beta * (config.beta + 1.0) / (1.0 + config.c**2)
    bracket = lam * (config.M - np.cos(phi)) + 2.0 * np.cos(phi)
    k = int(np.argmax(bracket))
    worst = float(bracket[k])
    return worst <= 0.0, float(phi[k]), worst


def decomposition_terms(f, fp, phi, c, M, beta=-0.5):
    """The three displayed terms of d/dphi |grad_c v|^2 / 2 on the zero set.

    g = M - cos(phi) enters analytically; f'' is never differenced, the
    profile equation eliminated it when the terms were derived.
    """
    f = np.asarray(f, dtype=float)
    fp = np.asarray(fp, dtype=float)
    phi = np.asarray(phi, dtype=float)
    one = 1.0 + c * c
    g = M - np.cos(phi)
    gp = np.sin(phi)
    gpp = np.cos(phi)
    q = (g * gpp - gp**2) / g**2
    term1 = ((1.0 - beta) ** 2 / one - 2.0 / one - q) * f * fp
    term2 = f**2 * (gp / g) * (2.0 / one + q)
    term3 = (fp - f * gp / g) * (np.cos(phi) / np.sin(phi) + gp / g) * (-fp)
    return term1, term2, term3


def _profile_samples(sol, phi):
    return sol.profile.sample(np.asarray(phi, dtype=float))


def gradient_on_zero_set(config: BarrierConfig, sol=None, num: int = 2001, side="sub"):
    """Squared metric gradient along the implicit barrier zero set.

    The value depends only on the angle: (1-beta)^2 f^2/(1+c^2) +
    (f' - f g'/g)^2.  On the subsolution side the zero set sweeps angles
    below the free-boundary angle and the values must stay >= 1; on the
    supersolution side it lives beyond the angle and the values must
    stay <= 1.  Returns (angles, values, ok).
    """
    if sol is None:
        sol = symmetric_solution(config.c)
    if side == "sub":
        phi = np.linspace(0.02, sol.phi0, num)
    elif side == "super":
        if config.phi2 is None:
            raise InvalidParameterError("supersolution side needs the pasting angle phi2")
        if config.phi2 <= sol.phi0:
            raise NoZeroError("pasting angle does not reach beyond the free boundary angle")
        phi = np.linspace(sol.phi0, config.phi2, num)
    else:
        raise InvalidParameterError(f"unknown side {side!r}")
    f, fp = _profile_samples(sol, phi)
    g = config.M - np.cos(phi)
    vals = (1.0 - config.beta) ** 2 * f**2 / (1.0 + config.c**2) + (fp - f * np.sin(phi) / g) ** 2
    if side == "sub":
        ok = bool(np.all(vals >= 1.0 - 1e-9))
    else:
        ok = bool(np.all(vals <= 1.0 + 1e-9))
    return phi, vals, ok


def derivative_decomposition(config: BarrierConfig, sol=None, num: int = 2001, phi_lo: float = 0.02):
    """Sampled decomposition rows on (phi_lo, phi0] and their worst value.

    Returns (rows, margin) where rows stacks (phi, I, II, III) and
    margin is the most positive I + II + III; a negative margin
    certifies strict decrease of the zero-set gradient.
    """
    if sol is None:
        sol = symmetric_solution(config.c)
    phi = np.linspace(phi_lo, sol.phi0, num)
    f, fp = _profile_samples(sol, phi)
    t1, t2, t3 = decomposition_terms(f, fp, phi, config.c, config.M, config.beta)
    rows = np.column_stack([phi, t1, t2, t3])
    margin = float((t1 + t2 + t3).max())
    return rows, margin


def _super_window(config: BarrierConfig, sol, num: int = 2001, lo_off=0.05, hi_off=0.3):
    """Largest pasting angle in (phi0+lo, phi0+hi) with III < 0 and |grad| <= 1."""
    phi = np.linspace(sol.phi0 + 1e-9, min(sol.phi0 + hi_off, math.pi - 1e-6), num)
    f, fp = _profile_samples(sol, phi)
    _, _, t3 = decomposition_terms(f, fp, phi, config.c, config.M, config.beta)
    g = config.M - np.cos(phi)
    grad = (1.0 - config.beta) ** 2 * f**2 / (1.0 + config.c**2) + (fp - f * np.sin(phi) / g) ** 2
    bad = (t3 >= 0.0) | (grad > 1.0 + 1e-9)
    if bad.any():
        limit = phi[int(np.argmax(bad))]
    else:
        limit = phi[-1]
    lo = sol.phi0 + lo_off
    if limit <= lo:
        return None
    return 0.5 * (lo + min(limit, sol.phi0 + hi_off))


def audit_pair(c: float, M: float, beta: float = -0.5, num: int = 2001, sol=None) -> BarrierReport:
    """Run the subsolution and window audits for one (c, M)."""
    config = BarrierConfig(c=c, M=M, beta=beta)
    ok_lap, worst_phi, worst_val = laplacian_sign_audit(config, num=num)
    report = BarrierReport(
        config=config,
        laplacian_sign_ok=ok_lap,
        laplacian_worst_phi=worst_phi,
        laplacian_worst_value=worst_val,
    )
    if not ok_lap:
        return report
    if sol is None:
        sol = symmetric_solution(c)
    _, margin = derivative_decomposition(config, sol=sol, num=num)
    report.decomposition_margin = margin
    _, zvals, z_ok = gradient_on_zero_set(config, sol=sol, num=num)
    report.zero_set_min_gradient = float(zvals.min())
    if margin >= 0.0 or not z_ok:
        return report
    phi2 = _super_window(config, sol, num=num)
    if phi2 is None:
        return report
    report.phi2 = phi2
    report.certified = True
    return report


def admissible_parameter_search(c_grid, Ms=None, beta: float = -0.5, num: int = 2001):
    """Largest slope with a certifying dyadic offset M.

    For each slope the dyadic offsets are tried in turn; a certificate
    needs the superharmonicity audit, a strictly negative decomposition
    margin, the zero-set gradient bound, and a nonempty pasting window.
    Returns (c_barrier, reports); c_barrier is None when nothing
    certifies.
    """
    if Ms is None:
        Ms = tuple(float(2**k) for k in range(2, 11))
    reports = []
    c_barrier = None
    for c in c_grid:
        sol = symmetric_solution(float(c))
        best = None
        for M in Ms:
            rep = audit_pair(float(c), float(M), beta=beta, num=num, sol=sol)
            reports.append(rep)
            if rep.certified:
                best = rep
                break
        if best is not None and (c_barrier is None or c > c_barrier):
            c_barrier = float(c)
    return c_barrier, reports


@dataclass
class LiftReport:
    """Discrete audit of the pasted supersolution lift."""

    c: float
    M: float
    phi2: float
    epsilon: float
    flat_margin: float
    flux_margin: float
    lift_gradient_ok: bool
    flat_max_gradient: float
    sup_error_linear: float | None = None


def supersolution_lift_check(config: BarrierConfig, nr: int = 128, nphi: int = 128, sol=None) -> LiftReport:
    """Solve the lift above the plane x3 = cos(phi2) and audit its gradients.

    The lift is harmonic on U = B1 intersect {x3 > cos(phi2)}, matches
    f + eps (M - cos) on the sphere and vanishes on the plane, with
    eps = -f(phi2)/(M - cos(phi2)) so the outer barrier vanishes exactly
    at the pasting circle.  The audit requires metric gradient < 1 along
    the plane (by cut-edge quadratic fits combined with the exact metric
    normal geometry) and radial flux above the outer barrier's on the
    sphere.
    """
    if sol is None:
        sol = symmetric_solution(config.c)
    if config.phi2 is None:
        raise InvalidParameterError("lift check needs the pasting angle phi2")
    phi2 = float(config.phi2)
    if not sol.phi0 < phi2 < math.pi:
        raise InvalidParameterError("pasting angle must lie beyond the free boundary angle")
    c = config.c
    M = config.M
    f2 = sol.profile_value(phi2)
    g2 = M - math.cos(phi2)
    eps = -f2 / g2
    if eps <= 0.0:
        raise InvalidParameterError("derived barrier amplitude is not positive")

    fld = make_field(nr, nphi, c)
    R, P = np.meshgrid(fld.r, fld.phi, indexing="ij")
    psi = R * np.cos(P) - math.cos(phi2)
    inside = psi > 0.0
    data = np.zeros_like(fld.values)
    below2 = fld.phi < phi2
    fvals = sol.profile.sample(fld.phi[below2])[0]
    data[-1, below2] = np.clip(fvals + eps * (M - np.cos(fld.phi[below2])), 0.0, None)
    fld.values = data
    fld.dirichlet = ~inside
    fld.dirichlet[-1, :] = True

    # cut-cell weights: edges leaving U are shortened to the plane
    cut_r = inside[:-1, :] & ~inside[1:, :]
    cut_r |= ~inside[:-1, :] & inside[1:, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac_r = psi[:-1, :] / (psi[:-1, :] - psi[1:, :])
    theta_r = np.where(inside[:-1, :], frac_r, 1.0 - frac_r)
    theta_r = np.clip(theta_r, 1e-3, 1.0)
    wr_scale = np.where(cut_r, 1.0 / theta_r, 1.0)
    cut_p = inside[:, :-1] & ~inside[:, 1:]
    cut_p |= ~inside[:, :-1] & inside[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac_p = psi[:, :-1] / (psi[:, :-1] - psi[:, 1:])
    theta_p = np.where(inside[:, :-1], frac_p, 1.0 - frac_p)
    theta_p = np.clip(theta_p, 1e-3, 1.0)
    wp_scale = np.where(cut_p, 1.0 / theta_p, 1.0)

    solved = dirichlet_solve(fld, tol=1e-10, weight_scale=(wr_scale, wp_scale))
    v = solved.values

    one = 1.0 + c * c

    dr = np.diff(fld.r)
    dp = fld.phi[1] - fld.phi[0]
    corner_r = 1.0 - 3.0 * float(dr.max())

    def grad_norm_sq_at_cut(a_coord, r_cut, phi_cut, coord):
        # v = 0 on the plane: |grad v| = |dv/dcoord| * |grad psi|_g / |psi_coord|.
        # Skip near-tangential edges (the transversal family covers the
        # same plane points) and the sphere-plane corner circle.
        if r_cut > corner_r:
            return None
        psir = math.cos(phi_cut)
        psip = -r_cut * math.sin(phi_cut)
        hyp = math.hypot(psir, psip / r_cut)
        trans = abs(psir) / hyp if coord == "r" else abs(psip / r_cut) / hyp
        if trans < 0.25:
            return None
        norm_psi = math.sqrt(psir * psir / one + psip * psip / (r_cut * r_cut))
        denom = abs(psir) if coord == "r" else abs(psip)
        return (a_coord * norm_psi / denom) ** 2

    flat_sq = []
    for i in range(nr - 1):
        for j in range(nphi):
            if not cut_r[i, j]:
                continue
            if inside[i, j]:
                i_in, direction = i, -1
            else:
                i_in, direction = i + 1, 1
            s1 = theta_r[i, j] * dr[i]
            i2 = i_in + direction
            if not (0 <= i2 < nr and inside[i2, j]):
                continue
            s2 = s1 + abs(fld.r[i2] - fld.r[i_in])
            v1, v2 = v[i_in, j], v[i2, j]
            a = (v1 * s2 * s2 - v2 * s1 * s1) / (s1 * s2 * (s2 - s1))
            r_cut = fld.r[i_in] - direction * s1
            val = grad_norm_sq_at_cut(a, r_cut, fld.phi[j], "r")
            if val is not None:
                flat_sq.append(val)
    for i in range(nr):
        for j in range(nphi - 1):
            if not cut_p[i, j]:
                continue
            if inside[i, j]:
                j_in, direction = j, -1
            else:
                j_in, direction = j + 1, 1
            s1 = theta_p[i, j] * dp
            j2 = j_in + direction
            if not (0 <= j2 < nphi and inside[i, j2]):
                continue
            s2 = s1 + dp
            v1, v2 = v[i, j_in], v[i, j2]
            a = (v1 * s2 * s2 - v2 * s1 * s1) / (s1 * s2 * (s2 - s1))
            phi_cut = fld.phi[j_in] - direction * s1
            val = grad_norm_sq_at_cut(a, fld.r[i], phi_cut, "phi")
            if val is not None:
                flat_sq.append(val)
    flat_max = math.sqrt(max(flat_sq)) if flat_sq else math.nan
    flat_margin = 1.0 - flat_max

    # radial flux at the sphere: one-sided quadratic fit from inside
    flux_margin = math.inf
    rN, rN1, rN2 = fld.r[-1], fld.r[-2], fld.r[-3]
    for j, p in enumerate(fld.phi):
        if p >= phi2 - 2.5 * dp or not inside[-2, j] or not inside[-3, j]:
            continue
        # derivative at r = 1 of the quadratic through (0, vN), (-d1, vN1), (-d2, vN2)
        d1, d2 = rN - rN1, rN - rN2
        b = np.polyfit([0.0, -d1, -d2], [v[-1, j], v[-2, j], v[-3, j]], 2)
        dv = float(b[1])
        outer = sol.profile_value(p) + eps * config.beta * (M - math.cos(p))
        flux_margin = min(flux_margin, dv - outer)
    ok = bool(flat_sq) and flat_margin > 0.0 and flux_margin > 0.0
    sup_err = None
    if c == 0.0:
        k = math.cos(phi2) / g2
        exact = np.clip((1.0 + k) * (R * np.cos(P) - math.cos(phi2)), 0.0, None)
        sup_err = float(np.abs(np.where(inside, v - exact, 0.0)).max())
    return LiftReport(
        c=c,
        M=M,
        phi2=phi2,
        epsilon=eps,
        flat_margin=float(flat_margin),
        flux_margin=float(flux_margin),
        lift_gradient_ok=ok,
        flat_max_gradient=float(flat_max),
        sup_error_linear=sup_err,
    )


def _fd_hessian_gradient(fn, x, h):
    x = np.asarray(x, dtype=float)

    def u(p):
        p = np.asarray(p, dtype=float)
        return fn(p / np.linalg.norm(p))

    grad = np.zeros(3)
    hess = np.zeros((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        grad[i] = (u(x + e) - u(x - e)) / (2 * h)
        hess[i, i] = (u(x + e) - 2.0 * u(x) + u(x - e)) / (h * h)
    for i in range(3):
        for j in range(i + 1, 3):
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = h
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                u(x + ei + ej) - u(x + ei - ej) - u(x - ei + ej) + u(x - ei - ej)
            ) / (4 * h * h)
    return grad, hess


def hessian_gradient_inequality(fn, points, h: float = 1e-4, richardson: bool = True) -> float:
    """Minimum of sum Hess(u)_ij^2 - 2 |grad u|^2 over sphere points.

    u is the zero-homogeneous extension of the sphere function fn; the
    inequality holds pointwise for every such extension.  Derivatives
    come from central differences, Richardson-extrapolated by default.
    """
    worst = math.inf
    for x in points:
        g1, h1 = _fd_hessian_gradient(fn, x, h)
        if richardson:
            g2, h2 = _fd_hessian_gradient(fn, x, 0.5 * h)
            g = (4.0 * g2 - g1) / 3.0
            hs = (4.0 * h2 - h1) / 3.0
        else:
            g, hs = g1, h1
        worst = min(worst, float(np.sum(hs * hs) - 2.0 * float(g @ g)))
    return worst


def subharmonicity_margin(sol, num_points: int = 400, h: float = 1e-4, phi_pad: float = 0.08):
    """Pointwise check that the gradient magnitude is subharmonic on the cap.

    For the degree-alpha separated harmonic the identity
    Laplacian(|grad v|^2) = 2 ||Hess v||^2 - 2 alpha(alpha+1) |grad v|^2
    must be nonnegative; returns (min margin, angle of the gradient
    maximum, boundary flag) where the flag records that the maximum of
    |grad_theta f|^2 over the cap sits at the cap boundary.
    """
    lam = 2.0 / (1.0 + sol.c**2)  # alpha (alpha + 1)

    def fn(p):
        phi = math.acos(max(-1.0, min(1.0, p[2] / np.linalg.norm(p))))
        return sol.profile_value(max(phi, 1e-9))

    worst = math.inf
    rng = np.random.default_rng(20240817)
    phis = rng.uniform(phi_pad, sol.phi0 - phi_pad, num_points)
    thetas = rng.uniform(0.0, 2.0 * math.pi, num_points)
    for phi, th in zip(phis, thetas):
        x = np.array([math.sin(phi) * math.cos(th), math.sin(phi) * math.sin(th), math.cos(phi)])
        g1, h1 = _fd_hessian_gradient(fn, x, h)
        g2, h2 = _fd_hessian_gradient(fn, x, 0.5 * h)
        g = (4.0 * g2 - g1) / 3.0
        hs = (4.0 * h2 - h1) / 3.0
        worst = min(worst, 2.0 * float(np.sum(hs * hs)) - 2.0 * lam * float(g @ g))
    dense = np.linspace(1e-3, sol.phi0, 4001)
    grad_sq = sol.profile.sample(dense)[1] ** 2
    k = int(np.argmax(grad_sq))
    at_boundary = k >= len(dense) - 2
    return float(worst), float(dense[k]), bool(at_boundary)
