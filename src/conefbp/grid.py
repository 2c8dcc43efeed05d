"""Axisymmetric finite-difference fields on the punctured cone.

Fields live on a tensor grid (r, phi) in [r_min, 1] x [0, pi] with the
vertex excluded (quantities of interest grow linearly in r, so values
extrapolate linearly to r = 0).  The module provides a symmetric
conservative edge form of the axisymmetric cone Laplacian, Dirichlet
solves of that form by conjugate gradients preconditioned with its
exact full-grid inverse (fast diagonalization of the tensor-product
form; optional cut-cell weights for plane boundaries that do not align
with the grid, against which the inverse is rescaled symmetrically at
the nodes whose diagonal they change), metric gradient magnitudes, and
plain-text snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceFailureError,
    GridMismatchError,
    InvalidParameterError,
    as_count,
    as_slope,
    require_finite,
)
from .quadrature import trapezoid_weights

_CG_TOL = 1e-10
_CG_MAX_ITER = 60000
# Most nodes of a field, checked before anything is allocated: 2^22
# (2048^2) nodes make 32 MiB per array on the grid.
_MAX_NODES = 2**22

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
        """Whether other samples the same cone on the same nodes."""
        return (
            self.c == other.c
            and self.values.shape == other.values.shape
            and np.array_equal(self.r, other.r)
            and np.array_equal(self.phi, other.phi)
        )


def make_field(nr, nphi, c, r_min=None) -> AxisymField:
    """Zero field on the uniform grid [r_min, 1] x [0, pi] for the cone of slope c >= 0."""
    nr, nphi = as_count(nr, "nr"), as_count(nphi, "nphi")
    if nr < 4 or nphi < 4:
        raise InvalidParameterError("grid needs at least 4 nodes per direction")
    if nr * nphi > _MAX_NODES:
        raise InvalidParameterError(f"grid of {nr} x {nphi} nodes has more than {_MAX_NODES}")
    c = as_slope(c)
    if r_min is None:
        r_min = 1.0 / nr
    if not 0.0 < r_min < 1.0:
        raise InvalidParameterError("r_min must lie in (0, 1)")
    r = np.linspace(r_min, 1.0, nr)
    phi = np.linspace(0.0, math.pi, nphi)
    dirichlet = np.zeros((nr, nphi), dtype=bool)
    dirichlet[-1, :] = True
    return AxisymField(r=r, phi=phi, values=np.zeros((nr, nphi)), c=c, dirichlet=dirichlet)


def field_from_solution(sol, nr, nphi) -> AxisymField:
    """Sample the symmetric solution r f(phi), clipped at zero, on make_field's grid."""
    field = make_field(nr, nphi, sol.c)
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


def pad_phi_weights(wp):
    """The phi-edge weights wp padded with a zero column: shape (nr, nphi), for ``edge_apply``.

    Raveled, entry k weighs the pair (k, k + 1) of the flattened grid;
    the pairs that cross from one row to the next get weight 0.
    """
    return np.pad(wp, ((0, 0), (0, 1)))


def edge_apply(u, wr, wp_pad, out, scratch):
    """Gradient of half the edge form: the conservative operator.

    ``wp_pad`` comes from ``pad_phi_weights``, so the phi edges are
    taken on the flattened array, where every operation is contiguous.
    For finite u this is bitwise the row-by-row form: each node adds and
    subtracts its edges in the same order, the accumulator starts at +0.0
    and so never becomes -0.0, and the +-0 of a row-crossing pair leaves
    it unchanged.  ``out`` is not filled: the first radial write stores
    0.0 + d, which is the +0.0 start plus d to the bit, and row 0 is set
    to +0.0.  ``out`` (C-contiguous, shaped like u) receives the result;
    ``scratch`` is any float array of at least u.size entries.
    """
    d = scratch[: u.size - u.shape[1]].reshape(u.shape[0] - 1, u.shape[1])
    np.subtract(u[1:], u[:-1], out=d)
    d *= wr
    np.add(d, 0.0, out=out[1:])
    out[0] = 0.0
    out[:-1] -= d
    uf, of = u.reshape(-1), out.reshape(-1)
    e = scratch[: u.size - 1]
    np.subtract(uf[1:], uf[:-1], out=e)
    e *= wp_pad.reshape(-1)[:-1]
    of[1:] += e
    of[:-1] -= e
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
    """Inverse P of the edge form of ``dirichlet_edge_weights`` with only the row r = 1 fixed.

    Those weights are rank one, wr = a s^T and wp = m b^T, so on rows
    0..nr-2 the form is the tensor sum A0 = K (x) D + M (x) L, with K, L
    the 1-D stiffness matrices of a, b and D, M the diagonals of s, m.
    With K V = M V Lambda and L W = D W N, A0^-1 R = V ((V^T R W) /
    (lambda_i + nu_j)) W^T (fast diagonalization, Lynch, Rice & Thomas
    1964).  Returns that map on full-grid arrays, written into z and
    followed by zeroing the nodes in ``fixed`` (which hold the row r = 1);
    ``scratch`` (at least nr * nphi floats) holds the intermediate
    products and the denominators, so an apply allocates no array.
    ``_scaled_form`` scales P symmetrically to the diagonal of
    the form actually solved; with a positive diagonal scaling S P S
    stays SPD.
    """
    a, s = wr[:, 0], wr[0] / wr[0, 0]
    m, b = wp[:, 0], wp[0] / wp[0, 0]
    lam, v = _modes(_stiffness(a)[:-1, :-1], m[:-1])
    nu, w = _modes(_stiffness(b), s)

    def apply(res, z, scratch):
        zu = z[:-1]
        t = scratch[: zu.size].reshape(zu.shape)
        np.matmul(v.T, res[:-1], out=t)
        np.matmul(t, w, out=zu)
        zu /= np.add(lam[:, None], nu[None, :], out=t)
        np.matmul(zu, w.T, out=t)
        np.matmul(v, t, out=zu)
        z[fixed] = 0.0
        return z

    return apply


def _scaled_form(field: AxisymField, fixed, weight_scale):
    """Edge weights (wp padded) of the form A that ``dirichlet_solve`` solves, and its preconditioner.

    A is the form A0 of ``dirichlet_edge_weights`` with its edge weights
    multiplied by ``weight_scale``.  The preconditioner is S P S, with P
    the full-grid inverse of A0 and S = sqrt(diag A0 / diag A) on the
    unknowns: Jacobi equilibration of P against A's diagonal (van der
    Sluis 1969), which P alone misses where cut-cell factors 1/theta
    enlarge it.  S is diagonal and positive, so S P S is SPD on the
    unknowns whenever P is.  S differs from 1 only at the few unknowns
    whose diagonal the factors change; only those are stored.  There the
    residual is scaled in place and its saved values are written back
    after P, so an apply makes no new full-grid array.  Without factors
    the set is empty and S P S is P, bit for bit.  The factors, and the
    scaled diagonal for overflow, are checked before P is built.
    """
    wr, wp = dirichlet_edge_weights(field)
    diag0 = edge_diag(wr, wp, fixed.shape)
    diag = diag0
    if weight_scale is not None:
        scale = [np.asarray(x, dtype=float) for x in weight_scale]
        if [x.shape for x in scale] != [wr.shape, wp.shape]:
            raise GridMismatchError("weight_scale must be a pair of arrays shaped like (wr, wp)")
        if not all(np.all(np.isfinite(x) & (x > 0.0)) for x in scale):
            raise InvalidParameterError("weight_scale factors must be finite and positive")
        with np.errstate(over="ignore"):  # an overflow shows as inf in the diagonal
            diag = edge_diag(wr * scale[0], wp * scale[1], fixed.shape)
        if not np.all(np.isfinite(diag)):
            raise InvalidParameterError("weight_scale factors overflow the scaled edge weights")
    nodes = np.flatnonzero((diag != diag0) & ~fixed)
    factor = np.sqrt(diag0.ravel()[nodes] / diag.ravel()[nodes])
    del diag0, diag  # not held through the eigensolve, which sets the set-up peak
    inverse = _full_grid_inverse(wr, wp, fixed)
    if weight_scale is not None:
        wr *= scale[0]
        wp *= scale[1]

    def precondition(res, z, scratch):
        rf = res.reshape(-1)
        saved = rf[nodes]
        rf[nodes] *= factor
        inverse(res, z, scratch)
        rf[nodes] = saved
        z.reshape(-1)[nodes] *= factor
        return z

    return wr, pad_phi_weights(wp), precondition


def dirichlet_solve(field: AxisymField, weight_scale=None) -> AxisymField:
    """Solve the cone Laplace equation on the nodes outside ``field.dirichlet``.

    Nodes in ``field.dirichlet`` keep their current values as Dirichlet
    data; the mask must hold the whole row r = 1.  ``weight_scale``
    optionally multiplies the (wr, wp) edge weights by positive factors of
    their shapes, which implements shortened cut-cell edges at
    non-grid-aligned boundaries; factors whose products with the weights
    overflow are rejected.  The solve runs conjugate gradients on the
    symmetric conservative form to relative residual 1e-10, each step
    preconditioned by S P S: P is the exact inverse of the unscaled form
    on the full grid restricted to the unknowns (a principal submatrix of
    an SPD inverse, so valid for any mask: the capacitance idea of
    Buzbee, Dorr, George & Golub 1971), and the positive diagonal S
    scales it to the diagonal of the scaled form, which keeps it SPD
    (see ``_scaled_form``).  Without factors S is the identity, and on
    the full grid the solve converges in one iteration.  Failure raises
    ConvergenceFailureError carrying the iteration log.
    """
    if field.dirichlet.shape != field.values.shape:
        raise GridMismatchError("Dirichlet mask shape does not match the field")
    fixed = np.asarray(field.dirichlet, dtype=bool)
    if not fixed[-1].all():
        raise InvalidParameterError("the Dirichlet mask must hold the whole row r = 1")
    require_finite(field.values, "Dirichlet data and starting values")
    wr, wp, precondition = _scaled_form(field, fixed, weight_scale)
    # CG squares residual entries, which overflow for data above about
    # 1e154, so it solves for the values times 2^-e, e the binary exponent
    # of the largest magnitude, and scales the solution back; both
    # scalings are exact.  Made after the set-up, whose eigensolve sets
    # the peak.
    e = math.frexp(max(field.values.max(), -field.values.min()))[1]
    values = np.ldexp(field.values, -e)
    # the edge kernel's and the preconditioner's scratch: never used at once
    scratch = np.empty(field.values.size)
    # A p, then alpha p, then the preconditioned residual z: one buffer in turn
    ap = np.empty(field.values.shape)

    def apply_a(x):
        edge_apply(x, wr, wp, out=ap, scratch=scratch)
        ap[fixed] = 0.0
        return ap

    # the right-hand side -A_UF u_F scales the tolerance; the starting
    # residual b - A_UU u_U is -(A u)_U for the field u itself
    b = apply_a(np.where(fixed, values, 0.0))
    # both norms are taken on vectors times 2^-k, k the binary exponent of
    # max |b|, in the idle scratch: exact, so the ratio keeps its bits,
    # while ||b||^2 neither underflows to 0 nor overflows when the factors
    # scale every weight by the same tiny or huge amount
    k = math.frexp(max(b.max(), -b.min()))[1]

    def norm(v):
        return float(np.linalg.norm(np.ldexp(v, -k, out=scratch.reshape(v.shape))))

    bnorm = norm(b)
    if bnorm == 0.0:
        return field.with_values(np.where(fixed, field.values, 0.0))
    x = values
    r_vec = -apply_a(x)
    p = precondition(r_vec, np.empty_like(ap), scratch)
    rz = float(np.vdot(r_vec, p))
    log = []
    for it in range(_CG_MAX_ITER):
        apply_a(p)
        denom = float(np.vdot(p, ap))
        if not denom > 0.0:
            raise ConvergenceFailureError("conservative form lost positivity", log=log, iterate=np.ldexp(x, e))
        alpha = rz / denom
        ap *= alpha
        r_vec -= ap
        np.multiply(p, alpha, out=ap)
        x += ap
        res = norm(r_vec) / bnorm
        if it % 100 == 0 or res <= _CG_TOL:
            log.append((it, res))
        if res <= _CG_TOL:
            break
        z = precondition(r_vec, ap, scratch)
        rz_new = float(np.vdot(r_vec, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    else:
        raise ConvergenceFailureError(
            f"Dirichlet solve stalled at relative residual {res:.3e}", log=log, iterate=np.ldexp(x, e)
        )
    return field.with_values(np.ldexp(x, e, out=x))


def gradient_sq_field(field: AxisymField) -> np.ndarray:
    """Metric gradient magnitude squared at every node.

    Second-order differences, one-sided at the grid edges:
    |grad_c u|^2 = u_r^2/(1+c^2) + u_phi^2/r^2.  A field value that is
    not finite raises InvalidParameterError.
    """
    require_finite(field.values, "field values")
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
