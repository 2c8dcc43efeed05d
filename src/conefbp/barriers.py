"""Certification of explicit sub- and supersolution barriers.

The barrier family r f(phi) -/+ eps r^beta (M - cos phi), with the
exponent fixed at beta = BETA = -1/2, traps the symmetric solution when
three computable facts hold: the separated factor r^beta (M - cos phi)
is superharmonic on the cone, the squared metric gradient along the
implicit zero set decreases strictly in phi below the free-boundary
angle (its phi-derivative splits into the three displayed terms
I + II + III), and on the supersolution side a pasting angle phi2
beyond the free boundary keeps the third term negative.  The pasted
lift (harmonic in the ball above the plane x3 = cos(phi2), zero
on the plane) must have metric gradient below one on the plane and
radial flux above the outer barrier's on the sphere.  The
superharmonicity sign is exact: its bracket peaks at the pole.  Every
other audit here is a pure decision over sampled angles or grid nodes,
taken as array expressions, with worst-value reporting; the existential
constants of the comparison argument are replaced by a dyadic search
that emits checkable certificates.  The layer has no step argument: it
builds and accepts symmetric solutions at ode.DEFAULT_STEP only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, as_count, as_slope, require_finite
from .grid import dirichlet_solve, make_field
from .ode import checked_solution, symmetric_solution

BETA = -0.5
DYADIC_OFFSETS = tuple(float(2**k) for k in range(2, 11))
_SUB_POINTS = 400  # angles of the subharmonicity margin
_SUB_PAD = 0.08  # its distance from the pole and from phi0
_MAX_NUM = 2**20  # most sampled angles of an audit, 8 MiB per array

__all__ = [
    "BarrierConfig",
    "BarrierReport",
    "LiftReport",
    "laplacian_sign_audit",
    "decomposition_terms",
    "admissible_parameter_search",
    "audit_pair",
    "supersolution_lift_check",
    "hessian_gradient_inequality",
    "subharmonicity_margin",
]


@dataclass(frozen=True)
class BarrierConfig:
    """Barrier parameters; the offset M must exceed 1 so M - cos > 0."""

    c: float
    M: float
    phi2: float | None = None

    def __post_init__(self):
        given = (self.c, self.M) + (() if self.phi2 is None else (self.phi2,))
        if not all(math.isfinite(v) for v in given):
            raise InvalidParameterError("barrier parameters must be finite")
        if self.M <= 1.0:
            raise InvalidParameterError("barrier offset M must exceed 1")
        as_slope(self.c)


@dataclass
class BarrierReport:
    """Audit outcome for one (c, M) pair."""

    config: BarrierConfig
    laplacian_sign_ok: bool
    laplacian_worst_value: float
    decomposition_margin: float | None = None
    phi2: float | None = None
    zero_set_min_gradient: float | None = None
    certified: bool = False

    def to_dict(self) -> dict:
        return {
            "c": self.config.c,
            "beta": BETA,
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


def laplacian_sign_audit(config: BarrierConfig) -> float:
    """Worst value over [0, pi] of the separated-factor Laplacian bracket.

    The bracket is lam (M - cos phi) + 2 cos phi with lam =
    beta(beta+1)/(1+c^2) = -1/(4(1+c^2)); the factor r^(beta-2) is
    positive, so the barrier term is superharmonic exactly when the
    bracket stays nonpositive.  As lam < 2 the bracket peaks at the pole
    phi = 0, where it equals lam (M - 1) + 2.
    """
    lam = BETA * (BETA + 1.0) / (1.0 + config.c**2)
    return lam * (config.M - 1.0) + 2.0


def decomposition_terms(f, fp, phi, c, M):
    """The three displayed terms of d/dphi |grad_c v|^2 / 2 on the zero set.

    g = M - cos(phi) enters analytically; f'' is never differenced, the
    profile equation eliminated it when the terms were derived.  c and M
    follow BarrierConfig; f, f' not finite or phi outside (0, pi) raise
    InvalidParameterError.
    """
    BarrierConfig(c=c, M=M)
    f, fp, phi = (np.asarray(x, dtype=float) for x in (f, fp, phi))
    require_finite(np.append(f, fp), "profile values and slopes")
    if not np.all((0.0 < phi) & (phi < math.pi)):
        raise InvalidParameterError("decomposition angles must lie in (0, pi)")
    one = 1.0 + c * c
    g = M - np.cos(phi)
    gp = np.sin(phi)
    gpp = np.cos(phi)
    q = (g * gpp - gp**2) / g**2
    term1 = ((1.0 - BETA) ** 2 / one - 2.0 / one - q) * f * fp
    term2 = f**2 * (gp / g) * (2.0 / one + q)
    term3 = (fp - f * gp / g) * (np.cos(phi) / np.sin(phi) + gp / g) * (-fp)
    return term1, term2, term3


def _zero_set_gradient(config: BarrierConfig, f, fp, phi):
    """(1-beta)^2 f^2/(1+c^2) + (f' - f g'/g)^2 with g = M - cos(phi)."""
    g = config.M - np.cos(phi)
    return (1.0 - BETA) ** 2 * f**2 / (1.0 + config.c**2) + (fp - f * np.sin(phi) / g) ** 2


def _super_window(config: BarrierConfig, sol, num: int = 2001):
    """Pasting angle in (phi0 + 0.05, phi0 + 0.3) with III < 0 and |grad| <= 1."""
    hi = sol.phi0 + 0.3
    phi = np.linspace(sol.phi0 + 1e-9, min(hi, math.pi - 1e-6), num)
    f, fp = sol.profile.sample(phi)
    _, _, t3 = decomposition_terms(f, fp, phi, config.c, config.M)
    bad = (t3 >= 0.0) | (_zero_set_gradient(config, f, fp, phi) > 1.0 + 1e-9)
    if bad.any():
        limit = phi[int(np.argmax(bad))]
    else:
        limit = phi[-1]
    lo = sol.phi0 + 0.05
    if limit <= lo:
        return None
    return 0.5 * (lo + min(limit, hi))


def _check_num(num):
    num = as_count(num, "num")
    if num < 2:
        raise InvalidParameterError(f"need at least 2 sampled angles, got num = {num}")
    if num > _MAX_NUM:
        raise InvalidParameterError(f"num = {num} sampled angles is more than {_MAX_NUM}")


def audit_pair(c: float, M: float, num: int = 2001, sol=None) -> BarrierReport:
    """Run the subsolution and window audits for one (c, M).

    The profile is sampled once on num angles in [0.02, phi0]: there the
    decomposition margin (the most positive I + II + III) must be
    strictly negative and the zero-set gradient must stay >= 1.  A given
    sol is checked only when the superharmonicity audit passes.
    """
    _check_num(num)
    config = BarrierConfig(c=c, M=M)
    worst = laplacian_sign_audit(config)
    report = BarrierReport(config=config, laplacian_sign_ok=worst <= 0.0, laplacian_worst_value=worst)
    if worst > 0.0:
        return report
    sol = checked_solution(sol, c)
    phi = np.linspace(0.02, sol.phi0, num)
    f, fp = sol.profile.sample(phi)
    t1, t2, t3 = decomposition_terms(f, fp, phi, c, M)
    margin = float((t1 + t2 + t3).max())
    zvals = _zero_set_gradient(config, f, fp, phi)
    report.decomposition_margin = margin
    report.zero_set_min_gradient = float(zvals.min())
    if margin >= 0.0 or not np.all(zvals >= 1.0 - 1e-9):
        return report
    phi2 = _super_window(config, sol, num=num)
    if phi2 is None:
        return report
    report.phi2 = phi2
    report.certified = True
    return report


def admissible_parameter_search(c_grid, num: int = 2001):
    """Largest slope with a certifying dyadic offset M.

    For each slope the dyadic offsets 4, 8, ..., 1024 are tried in turn;
    a certificate needs the superharmonicity audit, a strictly negative
    decomposition margin, the zero-set gradient bound, and a nonempty
    pasting window.
    Returns (c_barrier, reports); c_barrier is None when nothing
    certifies.
    """
    _check_num(num)
    reports = []
    c_barrier = None
    for c in c_grid:
        sol = symmetric_solution(float(c))
        for M in DYADIC_OFFSETS:
            rep = audit_pair(float(c), M, num=num, sol=sol)
            reports.append(rep)
            if rep.certified:
                if c_barrier is None or c > c_barrier:
                    c_barrier = float(c)
                break
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
    sup_error_linear: float | None = None


def _cut_edges(psi, inside):
    """Cut flags and inside fractions (clipped to [1e-3, 1]) of the edges along axis 0."""
    cut = inside[:-1] != inside[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = psi[:-1] / (psi[:-1] - psi[1:])
    return cut, np.clip(np.where(inside[:-1], frac, 1.0 - frac), 1e-3, 1.0)


def _plane_gradient_sq(v, inside, cut, theta, x, h, y, one, corner_r, radial):
    """Squared metric gradient of v at the plane points of the cut edges along axis 0.

    x holds the node coordinates along axis 0, h the edge lengths, y the
    coordinates along axis 1; radial says whether x is r (else phi).
    v = 0 on the plane, so |grad v| = |dv/dx| |grad psi|_g / |psi_x|,
    with dv/dx from the quadratic through the plane point and the two
    inside nodes behind it.  Near-tangential edges (the transversal
    family covers the same plane points) and the sphere-plane corner
    circle are skipped.
    """
    k, j = np.nonzero(cut)
    low = inside[k, j]  # the inside end of edge k is node k, else node k + 1
    i1 = np.where(low, k, k + 1)
    i2 = np.where(low, k - 1, k + 2)
    i2c = np.clip(i2, 0, len(x) - 1)
    keep = (i2 == i2c) & inside[i2c, j]
    k, j, low, i1, i2 = k[keep], j[keep], low[keep], i1[keep], i2[keep]
    s1 = theta[k, j] * h[k]
    s2 = s1 + h[np.minimum(i1, i2)]
    v1, v2 = v[i1, j], v[i2, j]
    a = (v1 * s2 * s2 - v2 * s1 * s1) / (s1 * s2 * (s2 - s1))
    xc = np.where(low, x[i1] + s1, x[i1] - s1)
    r, p = (xc, y[j]) if radial else (y[j], xc)
    psir = np.cos(p)
    psip = -r * np.sin(p)
    hyp = np.hypot(psir, psip / r)
    along = np.abs(psir) if radial else np.abs(psip / r)
    keep = (r <= corner_r) & (along / hyp >= 0.25)
    a, r, psir, psip = a[keep], r[keep], psir[keep], psip[keep]
    norm_psi = np.sqrt(psir * psir / one + psip * psip / (r * r))
    denom = np.abs(psir) if radial else np.abs(psip)
    return (a * norm_psi / denom) ** 2


def supersolution_lift_check(config: BarrierConfig, nr: int = 128, nphi: int = 128, sol=None) -> LiftReport:
    """Solve the lift above the plane x3 = cos(phi2) and audit its gradients.

    The lift is harmonic on U = B1 intersect {x3 > cos(phi2)}, matches
    f + eps (M - cos) on the sphere and vanishes on the plane, with
    eps = -f(phi2)/(M - cos(phi2)) so the outer barrier vanishes exactly
    at the pasting circle.  The audit requires metric gradient < 1 along
    the plane (by cut-edge quadratic fits combined with the exact metric
    normal geometry) and radial flux above the outer barrier's on the
    sphere.  Raises InvalidParameterError when no plane point or no
    sphere column is left to audit.
    """
    if config.phi2 is None:
        raise InvalidParameterError("lift check needs the pasting angle phi2")
    sol = checked_solution(sol, config.c)
    phi2 = float(config.phi2)
    if not sol.phi0 < phi2:
        raise InvalidParameterError("pasting angle must lie beyond the free boundary angle")
    if not phi2 < math.pi:
        raise InvalidParameterError(
            f"pasting angle phi2 = {phi2:.6g} must lie below pi = {math.pi:.6g}"
            f" (free boundary angle {sol.phi0:.6g})"
        )
    c = config.c
    M = config.M
    f2 = sol.profile.value_and_deriv(phi2)[0]
    g2 = M - math.cos(phi2)
    eps = -f2 / g2
    if eps <= 0.0:
        raise InvalidParameterError("derived barrier amplitude is not positive")

    fld = make_field(nr, nphi, c)
    r, phi = fld.r, fld.phi
    psi = np.outer(r, np.cos(phi)) - math.cos(phi2)
    inside = psi > 0.0
    below2 = phi < phi2
    f = np.zeros_like(phi)
    f[below2] = sol.profile.sample(phi[below2])[0]
    fld.values[-1, below2] = np.clip(f[below2] + eps * (M - np.cos(phi[below2])), 0.0, None)
    fld.dirichlet = ~inside
    fld.dirichlet[-1, :] = True

    # cut-cell weights: edges leaving U are shortened to the plane; the
    # phi edges are the axis-0 edges of the transposed arrays
    cut_r, theta_r = _cut_edges(psi, inside)
    cut_p, theta_p = _cut_edges(psi.T, inside.T)
    weights = (np.where(cut_r, 1.0 / theta_r, 1.0), np.where(cut_p, 1.0 / theta_p, 1.0).T)
    v = dirichlet_solve(fld, weight_scale=weights).values

    one = 1.0 + c * c
    dr = np.diff(r)
    dp = phi[1] - phi[0]
    corner_r = 1.0 - 3.0 * float(dr.max())
    flat_sq = np.concatenate(
        [
            _plane_gradient_sq(v, inside, cut_r, theta_r, r, dr, phi, one, corner_r, radial=True),
            _plane_gradient_sq(
                v.T, inside.T, cut_p, theta_p, phi, np.full(nphi - 1, dp), r, one, corner_r, radial=False
            ),
        ]
    )
    if not flat_sq.size:
        raise InvalidParameterError("no plane point of the lift lies away from the sphere-plane corner")
    flat_margin = 1.0 - math.sqrt(flat_sq.max())

    # radial flux at the sphere: one-sided three-point derivative from inside
    cols = (phi < phi2 - 2.5 * dp) & inside[-2] & inside[-3]
    if not cols.any():
        raise InvalidParameterError("no sphere column of the lift lies inside its domain")
    dv = np.gradient(v[-3:, cols], r[-3:], axis=0, edge_order=2)[-1]
    outer = f[cols] + eps * BETA * (M - np.cos(phi[cols]))
    flux_margin = float((dv - outer).min())
    ok = flat_margin > 0.0 and flux_margin > 0.0
    sup_err = None
    if c == 0.0:
        k = math.cos(phi2) / g2
        exact = np.clip((1.0 + k) * psi, 0.0, None)
        sup_err = float(np.abs(np.where(inside, v - exact, 0.0)).max())
    return LiftReport(
        c=c,
        M=M,
        phi2=phi2,
        epsilon=eps,
        flat_margin=float(flat_margin),
        flux_margin=flux_margin,
        lift_gradient_ok=ok,
        sup_error_linear=sup_err,
    )


def hessian_gradient_inequality(fn, points) -> float:
    """Minimum of sum Hess(u)_ij^2 - 2 |grad u|^2 over sphere points.

    u is the zero-homogeneous extension of the sphere function fn, which
    maps an (N, 3) array of unit vectors to N values; the inequality
    holds pointwise for every such extension.  Derivatives at the rows
    of the (N, 3) array points come from the 19-point central stencil at
    steps 1e-3 and 5e-4, Richardson-extrapolated: 38 calls to fn.  At
    these steps the O(h^4) truncation and the rounding of the second
    differences (1e-16 / h^2) both stay near 1e-9 on unit-size data.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != 3:
        raise InvalidParameterError(f"points must be a nonempty (N, 3) array, got shape {x.shape}")
    if not np.isfinite(x).all() or not np.linalg.norm(x, axis=1).all():
        raise InvalidParameterError("points must be finite and nonzero")

    def u(p):
        vals = np.asarray(fn(p / np.linalg.norm(p, axis=1, keepdims=True)), dtype=float)
        if vals.shape != (len(p),) or not np.isfinite(vals).all():
            raise InvalidParameterError(f"fn must return {len(p)} finite values, got shape {vals.shape}")
        return vals

    grads, hessians = [], []
    for h in (1e-3, 5e-4):
        e = h * np.eye(3)
        centre = u(x)
        plus = [u(x + d) for d in e]
        minus = [u(x - d) for d in e]
        hess = np.empty((len(x), 3, 3))
        for i in range(3):
            hess[:, i, i] = (plus[i] - 2.0 * centre + minus[i]) / (h * h)
            for j in range(i + 1, 3):
                ei, ej = e[i], e[j]
                hess[:, i, j] = hess[:, j, i] = (
                    u(x + ei + ej) - u(x + ei - ej) - u(x - ei + ej) + u(x - ei - ej)
                ) / (4 * h * h)
        grads.append(np.column_stack([(p - m) / (2 * h) for p, m in zip(plus, minus)]))
        hessians.append(hess)
    g = (4.0 * grads[1] - grads[0]) / 3.0
    hs = (4.0 * hessians[1] - hessians[0]) / 3.0
    return float((np.sum(hs * hs, axis=(1, 2)) - 2.0 * np.sum(g * g, axis=1)).min())


def subharmonicity_margin(sol):
    """Pointwise check that the gradient magnitude is subharmonic on the cap.

    For the degree-alpha separated harmonic the identity
    Laplacian(|grad v|^2) = 2 ||Hess v||^2 - 2 alpha(alpha+1) |grad v|^2
    must be nonnegative.  For the zero-homogeneous u = f(phi) at |x| = 1,
    ||Hess u||^2 = f''^2 + cot^2(phi) f'^2 + 2 f'^2 in closed form, with
    f'' from the profile equation; it is evaluated at 400 uniform angles
    in [0.08, phi0 - 0.08] (phi0 >= pi/2, so the range is never empty).
    Returns (min margin, angle of the gradient maximum, boundary flag)
    where the flag records that the maximum of |grad_theta f|^2 over the
    cap sits at the cap boundary.
    """
    lam = sol.profile.lam  # alpha (alpha + 1), the profile equation's eigenvalue
    phi = np.linspace(_SUB_PAD, sol.phi0 - _SUB_PAD, _SUB_POINTS)
    f, fp = sol.profile.sample(phi)
    cot = np.cos(phi) / np.sin(phi)
    fpp = -cot * fp - lam * f
    hess_sq = fpp**2 + (cot * fp) ** 2 + 2.0 * fp**2
    worst = float((2.0 * hess_sq - 2.0 * lam * fp**2).min())
    dense = np.linspace(1e-3, sol.phi0, 4001)
    grad_sq = sol.profile.sample(dense)[1] ** 2
    k = int(np.argmax(grad_sq))
    at_boundary = k >= len(dense) - 2
    return worst, float(dense[k]), bool(at_boundary)
