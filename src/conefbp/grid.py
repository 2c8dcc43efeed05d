"""Axisymmetric finite-difference fields on the punctured cone.

Fields live on a tensor grid (r, phi) in [r_min, 1] x [0, pi] with the
vertex excluded (quantities of interest grow linearly in r, so values
extrapolate linearly to r = 0).  The module provides a symmetric
conservative edge form of the axisymmetric cone Laplacian, Dirichlet
solves of that form by conjugate gradients preconditioned with its
exact full-grid inverse (fast diagonalization of the tensor-product
form; optional cut-cell weights for plane boundaries that do not align
with the grid), metric gradient magnitudes, and plain-text snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceFailureError,
    GridMismatchError,
    InvalidParameterError,
)
from .quadrature import trapezoid_weights

_CG_TOL = 1e-10
_CG_MAX_ITER = 60000

__all__ = [
    "AxisymField",
    "make_field",
    "field_from_solution",
    "dirichlet_solve",
    "gradient_sq_field",
    "save_field_text",
]


@dataclass
class AxisymField:
    """Nonnegative axisymmetric samples u(r_i, phi_j) on the cone."""

    r: np.ndarray
    phi: np.ndarray
    values: np.ndarray
    c: float
    dirichlet: np.ndarray

    @property
    def shape(self):
        return self.values.shape

    @property
    def r_min(self) -> float:
        return float(self.r[0])

    def with_values(self, values: np.ndarray) -> "AxisymField":
        return replace(self, values=values)

    def same_grid(self, other: "AxisymField") -> bool:
        return (
            self.values.shape == other.values.shape
            and np.array_equal(self.r, other.r)
            and np.array_equal(self.phi, other.phi)
        )


def make_field(nr, nphi, c, r_min=None, values=None) -> AxisymField:
    """Uniform grid on [r_min, 1] x [0, pi] for the cone of slope c >= 0."""
    nr = int(nr)
    nphi = int(nphi)
    if nr < 4 or nphi < 4:
        raise InvalidParameterError("grid needs at least 4 nodes per direction")
    c = float(c)
    if not (math.isfinite(c) and c >= 0.0):
        raise InvalidParameterError("cone slope c must be finite and nonnegative")
    if r_min is None:
        r_min = 1.0 / nr
    if not 0.0 < r_min < 1.0:
        raise InvalidParameterError("r_min must lie in (0, 1)")
    r = np.linspace(r_min, 1.0, nr)
    phi = np.linspace(0.0, math.pi, nphi)
    if values is None:
        values = np.zeros((nr, nphi))
    values = np.asarray(values, dtype=float)
    if values.shape != (nr, nphi):
        raise GridMismatchError("values shape does not match the grid")
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise InvalidParameterError("field values must be finite and nonnegative")
    dirichlet = np.zeros((nr, nphi), dtype=bool)
    dirichlet[-1, :] = True
    return AxisymField(r=r, phi=phi, values=values, c=c, dirichlet=dirichlet)


def field_from_solution(sol, nr, nphi, r_min=None) -> AxisymField:
    """Sample the symmetric solution r f(phi), clipped at zero, on a grid."""
    field = make_field(nr, nphi, sol.c, r_min=r_min)
    fvals = np.zeros_like(field.phi)
    inside = field.phi < sol.phi0
    fvals[inside] = sol.profile.sample(field.phi[inside])[0]
    fvals = np.clip(fvals, 0.0, None)
    field.values = np.outer(field.r, fvals)
    return field


def dirichlet_edge_weights(field: AxisymField):
    """Edge weights of the conservative Dirichlet form.

    The quadratic form sum wr (du_r)^2 + wp (du_phi)^2 is the
    edge-midpoint tensor quadrature of int |grad_c u|^2 r^2 sin(phi),
    without the constant 2 pi sqrt(1+c^2) prefactor.
    """
    r = field.r
    phi = field.phi
    one = 1.0 + field.c * field.c
    rw = trapezoid_weights(r)
    r_mid = 0.5 * (r[1:] + r[:-1])
    dr = r[1:] - r[:-1]
    # exact cell integrals of sin(phi): keeps the pole columns radially
    # coupled (the node value of sin vanishes there)
    lo = np.concatenate([[phi[0]], 0.5 * (phi[1:] + phi[:-1])])
    hi = np.concatenate([0.5 * (phi[1:] + phi[:-1]), [phi[-1]]])
    sin_cell = np.cos(lo) - np.cos(hi)
    wr = (r_mid[:, None] ** 2 / one) * sin_cell[None, :] * (1.0 / dr[:, None])
    phi_mid = 0.5 * (phi[1:] + phi[:-1])
    dphi = phi[1:] - phi[:-1]
    wp = np.sin(phi_mid)[None, :] * (rw[:, None] / dphi[None, :])
    return wr, wp


def edge_apply(u, wr, wp):
    """Gradient of half the edge form: the conservative operator."""
    out = np.zeros_like(u)
    d = wr * (u[1:, :] - u[:-1, :])
    out[1:, :] += d
    out[:-1, :] -= d
    e = wp * (u[:, 1:] - u[:, :-1])
    out[:, 1:] += e
    out[:, :-1] -= e
    return out


def edge_diag(wr, wp, shape):
    diag = np.zeros(shape)
    diag[1:, :] += wr
    diag[:-1, :] += wr
    diag[:, 1:] += wp
    diag[:, :-1] += wp
    return diag


def _stiffness(w):
    """Dense 1-D stiffness matrix of the edge weights w, free at both ends."""
    k = np.zeros((len(w) + 1, len(w) + 1))
    i = np.arange(len(w))
    k[i, i] += w
    k[i + 1, i + 1] += w
    k[i, i + 1] = k[i + 1, i] = -w
    return k


def _modes(k, mass):
    """Eigenpairs of k v = lam diag(mass) v with v^T diag(mass) v = 1; scales k in place."""
    scale = 1.0 / np.sqrt(mass)
    k *= scale[:, None]
    k *= scale[None, :]
    lam, vec = np.linalg.eigh(k)
    vec *= scale[:, None]
    return lam, vec


def _full_grid_inverse(wr, wp, fixed):
    """Inverse of the edge form of ``dirichlet_edge_weights`` with only the row r = 1 fixed.

    Those weights are rank one, wr = a s^T and wp = m b^T, so on rows
    0..nr-2 the form is the tensor sum A = K (x) D + M (x) L, with K, L
    the 1-D stiffness matrices of a, b and D, M the diagonals of s, m.
    With K V = M V Lambda and L W = D W N, A^-1 R = V ((V^T R W) /
    (lambda_i + nu_j)) W^T (fast diagonalization, Lynch, Rice & Thomas
    1964).  Returns that map on full-grid arrays, followed by zeroing the
    nodes in ``fixed`` (which hold the row r = 1).
    """
    a, s = wr[:, 0], wr[0] / wr[0, 0]
    m, b = wp[:, 0], wp[0] / wp[0, 0]
    lam, v = _modes(_stiffness(a)[:-1, :-1], m[:-1])
    nu, w = _modes(_stiffness(b), s)

    def apply(res):
        t = v.T @ res[:-1]
        t = t @ w
        t /= lam[:, None] + nu[None, :]
        t = t @ w.T
        z = np.empty_like(res)
        np.matmul(v, t, out=z[:-1])
        z[fixed] = 0.0
        return z

    return apply


def dirichlet_solve(field: AxisymField, weight_scale=None) -> AxisymField:
    """Solve the cone Laplace equation on the nodes outside ``field.dirichlet``.

    Nodes in ``field.dirichlet`` keep their current values as Dirichlet
    data; the mask must hold the whole row r = 1.  ``weight_scale``
    optionally multiplies the (wr, wp) edge weights by positive factors of
    their shapes, which implements shortened cut-cell edges at
    non-grid-aligned boundaries.  The solve runs conjugate gradients on
    the symmetric conservative form to relative residual 1e-10, each step
    preconditioned by the exact inverse of the unscaled form on the full
    grid restricted to the unknowns (a principal submatrix of an SPD
    inverse, so valid for any mask and any weights: the capacitance idea
    of Buzbee, Dorr, George & Golub 1971).  On the full grid it converges
    in one iteration.  Failure raises ConvergenceFailureError carrying
    the iteration log.
    """
    if field.dirichlet.shape != field.values.shape:
        raise GridMismatchError("Dirichlet mask shape does not match the field")
    fixed = np.asarray(field.dirichlet, dtype=bool)
    if not fixed[-1].all():
        raise InvalidParameterError("the Dirichlet mask must hold the whole row r = 1")
    if not np.all(np.isfinite(field.values)):
        raise InvalidParameterError("Dirichlet data and starting values must be finite")
    wr, wp = dirichlet_edge_weights(field)
    precondition = _full_grid_inverse(wr, wp, fixed)
    if weight_scale is not None:
        scale = [np.asarray(x, dtype=float) for x in weight_scale]
        if [x.shape for x in scale] != [wr.shape, wp.shape]:
            raise GridMismatchError("weight_scale must be a pair of arrays shaped like (wr, wp)")
        if not all(np.all(np.isfinite(x) & (x > 0.0)) for x in scale):
            raise InvalidParameterError("weight_scale factors must be finite and positive")
        wr *= scale[0]
        wp *= scale[1]

    def apply_a(x):
        out = edge_apply(x, wr, wp)
        out[fixed] = 0.0
        return out

    # the right-hand side -A_UF u_F scales the tolerance; the starting
    # residual b - A_UU u_U is -(A u)_U for the field u itself
    bnorm = float(np.linalg.norm(apply_a(np.where(fixed, field.values, 0.0))))
    if bnorm == 0.0:
        return field.with_values(np.where(fixed, field.values, 0.0))
    x = field.values.copy()
    r_vec = -apply_a(x)
    p = precondition(r_vec)
    rz = float(np.vdot(r_vec, p))
    log = []
    for it in range(_CG_MAX_ITER):
        ap = apply_a(p)
        denom = float(np.vdot(p, ap))
        if not denom > 0.0:
            raise ConvergenceFailureError("conservative form lost positivity", log=log, iterate=x)
        alpha = rz / denom
        x += alpha * p
        ap *= alpha
        r_vec -= ap
        del ap  # ap and z go before the next products allocate
        res = float(np.linalg.norm(r_vec)) / bnorm
        if it % 100 == 0 or res <= _CG_TOL:
            log.append((it, res))
        if res <= _CG_TOL:
            break
        z = precondition(r_vec)
        rz_new = float(np.vdot(r_vec, z))
        p *= rz_new / rz
        p += z
        del z
        rz = rz_new
    else:
        raise ConvergenceFailureError(
            f"Dirichlet solve stalled at relative residual {res:.3e}", log=log, iterate=x
        )
    return field.with_values(x)


def gradient_sq_field(field: AxisymField) -> np.ndarray:
    """Metric gradient magnitude squared at every node.

    Second-order differences, one-sided at the grid edges:
    |grad_c u|^2 = u_r^2/(1+c^2) + u_phi^2/r^2.
    """
    ur, up = np.gradient(field.values, field.r, field.phi, edge_order=2)
    return ur**2 / (1.0 + field.c * field.c) + up**2 / field.r[:, None] ** 2


def save_field_text(field: AxisymField, path) -> None:
    lines = [
        f"Nr={field.shape[0]}",
        f"Nphi={field.shape[1]}",
        "r_min=%.17g" % field.r_min,
        "c=%.17g" % field.c,
    ]
    for row in field.values:
        lines.append(" ".join("%.17g" % v for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
