"""Discrete minimization of the positivity-penalized Dirichlet energy.

The energy of an axisymmetric field on the unit ball of the cone is

    J(u) = int |grad_c u|^2 + chi_{u>0}  dV,

with the cone volume form r^2 sin(phi) sqrt(1+c^2) and the indicator
evaluated exactly on the discrete positivity mask.  The non-convex
indicator is handled by continuation: a smoothstep ramp of width eps
replaces chi, eps shrinks geometrically to a floor tied to the grid
spacing, and each stage runs Jacobi-preconditioned projected gradient
descent with the positivity projection u <- max(u, 0).  A final
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

from .errors import ConvergenceFailureError, GridMismatchError, InvalidParameterError
from .grid import (
    AxisymField,
    dirichlet_edge_weights,
    dirichlet_solve,
    edge_apply,
    edge_diag,
    make_field,
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
    return _energy(fld.values, *_weights(fld))


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _smoothstep_deriv(t):
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    out[inside] = 6.0 * ti * (1.0 - ti)
    return out


def minimize(config: MinimizeConfig, boundary) -> MinimizeResult:
    """Minimize the penalized energy for Dirichlet data at r = 1.

    boundary is an array of nphi nonnegative values or a callable of
    phi.  The iterate starts from the one-homogeneous extension of the
    data, which keeps the search inside the basin of the symmetric
    solution whenever that is the minimizer.
    """
    fld = make_field(config.nr, config.nphi, config.c)
    if callable(boundary):
        data = np.asarray([boundary(p) for p in fld.phi], dtype=float)
    else:
        data = np.asarray(boundary, dtype=float)
    if data.shape != (config.nphi,):
        raise GridMismatchError("boundary data length does not match the grid")
    if np.any(~np.isfinite(data)) or np.any(data < 0.0):
        raise InvalidParameterError("boundary data must be finite and nonnegative")
    peak = float(data.max())
    fld.values = np.outer(fld.r, data)

    wr, wp, cells = _weights(fld)
    free = ~fld.dirichlet
    diag_a = edge_diag(wr, wp, fld.values.shape)
    u = fld.values.copy()
    u_best = u.copy()
    e_best = _energy(u, wr, wp, cells)
    outer_energies = [e_best]
    eta = _STEP_SCALE
    halvings = 0

    for eps in config.schedule(peak):
        # Hessian diagonal bound: 2A plus the ramp curvature 6/eps^2
        diag = 2.0 * diag_a + (6.0 / (eps * eps)) * cells
        while True:
            trial = u.copy()
            for _ in range(_INNER_ITERS):
                grad = 2.0 * edge_apply(trial, wr, wp) + _smoothstep_deriv(trial / eps) * (
                    cells / eps
                )
                trial = np.where(free, np.maximum(trial - eta * grad / diag, 0.0), trial)
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
    sharp[sharp < config.truncation(peak)] = 0.0
    sharp = np.where(free, sharp, u)
    candidates = [sharp]
    positive = sharp > 0.0
    work = fld.with_values(np.where(positive, sharp, 0.0))
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
    out_field.dirichlet = fld.dirichlet
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

    Rows that are entirely positive or entirely zero contribute no
    estimate.
    """
    out = []
    for i, rv in enumerate(fld.r):
        if not 0.2 <= rv <= 0.8:
            continue
        row = fld.values[i]
        pos = row > 0.0
        if pos.all() or not pos.any() or not pos[0]:
            continue
        j = int(np.argmin(pos))  # first False
        if j == 0:
            continue
        u0, u1 = row[j - 1], row[j]
        frac = u0 / (u0 - u1) if u0 != u1 else 0.5
        out.append((float(rv), float(fld.phi[j - 1] + frac * (fld.phi[j] - fld.phi[j - 1]))))
    return out


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
    """Sup distance, energy gap and vertex contact against the symmetric solution field."""
    if not fld.same_grid(reference):
        raise GridMismatchError("fields do not share a grid")
    peak = float(reference.values.max())
    sup_distance = float(np.abs(fld.values - reference.values).max()) / peak
    gap = energy(fld) - energy(reference)
    return sup_distance, gap, _vertex_touch(fld)
