"""Discrete minimization of the positivity-penalized Dirichlet energy.

The energy of an axisymmetric field on the unit ball of the cone is

    J(u) = int |grad_c u|^2 + chi_{u>0}  dV,

with the cone volume form r^2 sin(phi) sqrt(1+c^2) and the indicator
evaluated exactly on the discrete positivity mask.  The non-convex
indicator is handled by continuation: a smoothstep ramp of width eps
replaces chi, eps shrinks geometrically to a floor tied to the grid
spacing, and each stage runs Jacobi-preconditioned projected gradient
descent with the positivity projection u <- max(u, 0).  The scalings
1/eps, (6/eps) cells and eta/diag are formed before a stage's sweep
loop, so each sweep only multiplies, in place, with the bits of the
allocating form.  A final
sharpening pass truncates sub-tolerance values and applies one harmonic
replacement on the positivity set.  The true energy is enforced to be
non-increasing across stages (the step is halved on failure) and the
output never exceeds the energy of the initial one-homogeneous extension
of the boundary data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConvergenceFailureError, GridMismatchError, InvalidParameterError, require_finite
from .grid import (
    AxisymField,
    dirichlet_edge_weights,
    dirichlet_solve,
    edge_apply,
    edge_diag,
    make_field,
    pad_phi_weights,
)
from .quadrature import trapezoid_weights

__all__ = [
    "MinimizeConfig",
    "MinimizeResult",
    "energy",
    "minimize",
    "free_boundary_angle",
    "compare_to_symmetric",
]

# projected-gradient sweeps per continuation stage, Jacobi step scale and
# the number of step halvings before the descent is declared failed
_INNER_ITERS = 300
_STEP_SCALE = 0.9
_MAX_HALVINGS = 10


@dataclass(frozen=True)
class MinimizeConfig:
    """Cone slope and grid; the continuation schedule follows from them."""

    c: float
    nr: int = 128
    nphi: int = 128

    def grid_h(self) -> float:
        return max(1.0 / self.nr, math.pi / self.nphi)

    def schedule(self, data_peak: float) -> tuple:
        """Ramp widths halving from max(peak/2, 4 floor) down to the floor h max(1, peak)."""
        floor = self.grid_h() * max(1.0, data_peak)
        eps = []
        e = max(0.5 * data_peak, 4.0 * floor)
        while e > floor * 1.0001:
            eps.append(e)
            e *= 0.5
        eps.append(floor)
        return tuple(eps)

    def truncation(self, data_peak: float) -> float:
        return 0.5 * self.grid_h() * max(1.0, data_peak)


@dataclass
class MinimizeResult:
    """Converged field with its energy diagnostics."""

    field: AxisymField
    energy: float
    fb_angle_per_radius: list
    fb_mean: float | None
    fb_spread: float | None
    outer_energies: list = dataclass_field(default_factory=list)
    halvings: int = 0


def _weights(fld: AxisymField):
    """Edge weights (wr, wp) and cell volumes, all with the cone prefactor 2 pi sqrt(1+c^2)."""
    const = 2.0 * math.pi * math.sqrt(1.0 + fld.c * fld.c)
    wr, wp = dirichlet_edge_weights(fld)
    rw = trapezoid_weights(fld.r)
    pw = trapezoid_weights(fld.phi)
    cells = (fld.r**2 * rw)[:, None] * (np.sin(fld.phi) * pw)[None, :] * const
    return wr * const, wp * const, cells


def _energy(u, wr, wp, cells, eps=None) -> float:
    """Edge form of u plus the exact indicator volume, or its smoothstep ramp of width eps."""
    chi = cells[u > 0.0] if eps is None else _smoothstep(u / eps) * cells
    return (
        float(np.sum(wr * (u[1:, :] - u[:-1, :]) ** 2))
        + float(np.sum(wp * (u[:, 1:] - u[:, :-1]) ** 2))
        + float(np.sum(chi))
    )


def energy(fld: AxisymField) -> float:
    """Cone energy by edge-midpoint tensor quadrature, exact discrete chi."""
    require_finite(fld.values, "field values")
    return _energy(fld.values, *_weights(fld))


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _sweeps(u, eps, eta, wr2, wp2, diag_a, cells):
    """_INNER_ITERS projected-gradient sweeps from u at ramp width eps, rows [:-1] free.

    Each sweep is grad = 2 A u + t (1 - t) ((6 / eps) cells) with
    t = min(u (1 / eps), 1), then u <- max(u - grad (eta / diag), 0).  The
    scalings 1 / eps, (6 / eps) cells and eta / diag are formed once per
    call, so a sweep only multiplies; it runs in place in buffers
    allocated once per call, in the operation order of that formula, so
    the bits are those of the allocating form with t = clip(u (1 / eps),
    0, 1).  wr2 and wp2 (padded) are the doubled edge weights, so one
    edge_apply gives 2 A u.
    """
    # Hessian diagonal bound: 2A plus the ramp curvature 6/eps^2
    step = eta / (2.0 * diag_a + (6.0 / (eps * eps)) * cells)
    inv_eps = 1.0 / eps
    cells6 = (6.0 / eps) * cells
    trial = u.copy()
    free_rows = trial[:-1]
    grad, ramp, rest = (np.empty_like(u) for _ in range(3))
    grad_free = grad[:-1]
    scratch = np.empty(u.size)
    for _ in range(_INNER_ITERS):
        edge_apply(trial, wr2, wp2, out=grad, scratch=scratch)
        np.multiply(trial, inv_eps, out=ramp)
        # min(t, 1) gives the bits of clip(t, 0, 1): the iterate is never
        # negative (the data are checked >= 0 and every update is
        # projected), and where t is -0.0 the ramp term is a zero of either
        # sign, which adds to grad without changing its bits because
        # edge_apply's accumulator is never -0.0
        np.minimum(ramp, 1.0, out=ramp)
        np.subtract(1.0, ramp, out=rest)
        ramp *= rest
        ramp *= cells6
        grad += ramp
        grad *= step
        free_rows -= grad_free
        np.maximum(free_rows, 0.0, out=free_rows)
    return trial


def minimize(config: MinimizeConfig, boundary) -> MinimizeResult:
    """Minimize the penalized energy for Dirichlet data at r = 1.

    boundary is an array of nphi nonnegative values at the grid angles
    linspace(0, pi, nphi).  The iterate starts from the one-homogeneous
    extension of the data, which keeps the search inside the basin of the
    symmetric solution whenever that is the minimizer.
    """
    fld = make_field(config.nr, config.nphi, config.c)
    data = np.asarray(boundary, dtype=float)
    if data.shape != (config.nphi,):
        raise GridMismatchError("boundary data length does not match the grid")
    if np.any(~np.isfinite(data)) or np.any(data < 0.0):
        raise InvalidParameterError("boundary data must be finite and nonnegative")
    peak = float(data.max())
    fld.values = np.outer(fld.r, data)

    wr, wp, cells = _weights(fld)
    # make_field fixes exactly the row r = 1, which _sweeps leaves alone
    assert not fld.dirichlet[:-1].any() and fld.dirichlet[-1].all()
    diag_a = edge_diag(wr, wp, fld.values.shape)
    # 2A by doubled weights: scaling by 2 is exact, so the bits are those of 2 * (A u)
    wr2, wp2 = 2.0 * wr, pad_phi_weights(2.0 * wp)
    u = fld.values.copy()
    u_best = u.copy()
    e_best = _energy(u, wr, wp, cells)
    outer_energies = [e_best]
    eta = _STEP_SCALE
    halvings = 0

    for eps in config.schedule(peak):
        while True:
            trial = _sweeps(u, eps, eta, wr2, wp2, diag_a, cells)
            if _energy(trial, wr, wp, cells, eps) <= _energy(u, wr, wp, cells, eps) + 1e-12:
                u = trial
                break
            halvings += 1
            eta *= 0.5
            if halvings > _MAX_HALVINGS:
                raise ConvergenceFailureError(
                    "descent failed after maximum step halvings",
                    log=[("outer_energies", tuple(outer_energies))],
                    iterate=fld.with_values(u_best),
                )
        e_true = _energy(u, wr, wp, cells)
        if e_true <= e_best:
            e_best = e_true
            u_best = u.copy()
        outer_energies.append(e_best)

    # sharpening: truncate, then one harmonic replacement on the
    # positivity set; keep whichever iterate has the lowest true energy
    sharp = u.copy()
    rows = sharp[:-1]
    rows[rows < config.truncation(peak)] = 0.0
    candidates = [sharp]
    positive = sharp > 0.0
    work = fld.with_values(sharp)
    work.dirichlet = fld.dirichlet | ~positive
    try:
        replaced = dirichlet_solve(work)
        candidates.append(np.clip(replaced.values, 0.0, None))
    except ConvergenceFailureError:
        pass
    for cand in candidates:
        e_cand = _energy(cand, wr, wp, cells)
        if e_cand <= e_best:
            e_best = e_cand
            u_best = cand
    outer_energies.append(e_best)

    out_field = fld.with_values(u_best)
    result = MinimizeResult(
        field=out_field,
        energy=e_best,
        fb_angle_per_radius=free_boundary_angle(out_field),
        fb_mean=None,
        fb_spread=None,
        outer_energies=outer_energies,
        halvings=halvings,
    )
    angles = [a for _, a in result.fb_angle_per_radius]
    if angles:
        result.fb_mean = float(np.mean(angles))
        result.fb_spread = float(np.max(angles) - np.min(angles))
    return result


def free_boundary_angle(fld: AxisymField) -> list:
    """Per-radius first zero-crossing angle by linear interpolation, for 0.2 <= r <= 0.8.

    Each row positive at the pole node gives the angle where it first
    falls to zero or below, interpolated linearly from the last positive
    node; on a nonnegative field that is the first zero node.  Rows that
    are entirely positive or start at zero contribute no estimate.
    """
    require_finite(fld.values, "field values")
    band = (fld.r >= 0.2) & (fld.r <= 0.8)
    rows = fld.values[band]
    pos = rows > 0.0
    keep = pos[:, 0] & ~pos.all(axis=1)
    rows = rows[keep]
    j = np.argmin(pos[keep], axis=1)  # first nonpositive node, >= 1
    k = np.arange(len(j))
    u0, u1 = rows[k, j - 1], rows[k, j]
    angles = fld.phi[j - 1] + u0 / (u0 - u1) * (fld.phi[j] - fld.phi[j - 1])
    return list(zip(fld.r[band][keep].tolist(), angles.tolist()))


def _vertex_touch(fld: AxisymField) -> bool:
    """Whether a zero node at radius <= 2 r_min has a positive grid neighbour."""
    pos = fld.values > 0.0
    beside = np.zeros_like(pos)
    beside[1:] |= pos[:-1]
    beside[:-1] |= pos[1:]
    beside[:, 1:] |= pos[:, :-1]
    beside[:, :-1] |= pos[:, 1:]
    near = fld.r <= 2.0 * fld.r_min + 1e-15
    return bool(np.any(beside[near] & ~pos[near]))


def compare_to_symmetric(fld: AxisymField, reference: AxisymField):
    """Sup distance, energy gap and vertex contact against the symmetric solution field.

    The sup distance is relative to the reference peak, which must be positive.
    """
    if not fld.same_grid(reference):
        raise GridMismatchError("fields do not share a cone and a grid")
    gap = energy(fld) - energy(reference)
    peak = float(reference.values.max())
    if not peak > 0.0:
        raise InvalidParameterError(f"reference field peak must be positive, got {peak}")
    sup_distance = float(np.abs(fld.values - reference.values).max()) / peak
    return sup_distance, gap, _vertex_touch(fld)
