"""Shooting machinery for the separated profile equation on the cone.

A one-homogeneous separated harmonic r^beta f(phi) on the slope-c cone
requires

    f''(phi) + cot(phi) f'(phi) + lam f(phi) = 0,
    lam = beta (beta + 1) / (1 + c^2),

with f'(0) = 0 at the pole.  Profiles are integrated by a fixed-step
classical Runge-Kutta scheme from a second-order series start at
phi_eps = 10 * step (the cot singularity is removable only through the
series; one series kernel gives both that start and the dense output
below the first node), carry dense cubic Hermite output, and verify
themselves by mandatory step halving.  First zeros that sit
exponentially close to the far pole are located in the stretched
variable tau = log tan(phi/2), where the equation becomes the smooth
u'' = -lam sech(tau)^2 u; that tail is integrated once, to tau = 20,
and is a straight line beyond.  Both
charts are linear, y'' = p y' - lam sigma y (p = -cot phi, sigma = 1
on the angular grid; p = 0, sigma = sech^2 tau on the tail), so one
RK4 driver integrates them and one Hermite kernel gives dense (value,
slope) output on either.  Being linear, each RK4 step is a 2x2 matrix,
and the slope enters it only through lam: the matrix minus I is
E0 + lam E1 + lam^2 E2, with lam-free coefficients E of the step and
the chart alone, built by one closed form for both charts.  The
driver, _run, cuts a run into equal blocks of steps; for each block it
evaluates the deviations from the identity from E by Horner's rule,
and one two-level prefix product applies them from the state the
previous block left.  The stored runs (angular grid, tau tail) apply
every step; the step-halving rerun is only compared at the grid nodes,
so the driver applies its pair steps (I + B)(I + A), A and B two half
steps.  A run of one block, every run at the sweep step 1e-3, keeps
its coefficients in a small memo, so later profiles at other slopes
only evaluate and apply them: E for the angular grid and the tail,
for the rerun the pair steps' lam-polynomial of degree 4, multiplied
out once from the half steps' E, and the grid's -cos/sin, which
RadialProfile.second_derivs reads.  A rerun the memo does not
hold evaluates its half steps and multiplies them in pairs, so the
rerun, which is only compared with the grid run, is the one array
whose last bits may depend on the memo.  Dense output in phi
has one array evaluator, RadialProfile.sample, for angles in [0, pi):
pole series up to the first node, grid Hermite, and the tau tail beyond
the grid end; its scalar forms are views of it.

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
    as_slope,
)

__all__ = [
    "DEFAULT_STEP",
    "PHI_CAP",
    "RadialProfile",
    "SymmetricSolution",
    "integrate_profile",
    "first_zero",
    "symmetric_solution",
    "checked_solution",
    "beta_half_profile",
]

# Power of two, so grid nodes (10+i)*step are exact doubles and the
# centered-difference residual audit (test_residual_budget in
# tests/test_ode.py) sees an exactly uniform grid.
DEFAULT_STEP = 2.0**-13
# Far end of the angular grid of the symmetric solution and the comparison
# profile, and the CLI's default.  Beyond this angle profiles with a
# logarithmic branch at phi = pi lose the 1e-8 residual budget of the
# centered-difference audit; the stretched-variable tail takes over there.
PHI_CAP = 2.2
_TAIL_STEP_FACTOR = 40.0
# Far end of the tail: the first integer tau at which 6 sech(tau)^2 < 2^-53
# (|lam| <= 6 for beta in [-1, 2]), so from there on u is its own straight
# line to double rounding.
_TAIL_END = 20.0
_HALVING_TOL = 1e-9
# Most steps per block of RK4 step matrices in _run, a multiple of _SPAN.
# Bounds the numpy temporaries of long runs: the stored run at the default
# step takes ~18k steps, its halving rerun ~18k pair steps of two half
# steps each.  A run to PHI_CAP at step 1e-3 is one block; at 4096 the
# rerun's blocks at the default step outgrow a 2 MiB L2 cache and the
# default-step margin slows by about 8%.  It also sets what _MEMO keeps:
# the lam-free coefficients of single-block runs only, never those of
# the default step or finer, whose runs take several blocks.
_BLOCK = 3072
# Matrices per block of the prefix product in _apply.
_SPAN = 8
# Most steps of a profile's grid run: 2^20 steps bound its arrays to tens
# of MB; at PHI_CAP this admits steps down to about 2.1e-6.
_MAX_STEPS = 2**20
# Whole read-only arrays of single-block runs, keyed by kind, step, steps
# and, for the tail, its start tau0 (the angular chart always starts at
# 10 step); see _memoized.  An on-grid margin at step 1e-3 stores three:
# the angular run's E, 96 bytes per step; the halving rerun's pair
# polynomial, 160 bytes per pair step; the grid's -cos/sin, 8 bytes per
# node; 578,968 bytes.  A far-pole margin adds the tail's E, 96 bytes per
# step, 625,432 in all.  Later margins at that step reuse them.  Admission
# stops at _MEMO_CAP bytes; nothing is evicted.  The memo is shared by
# every caller in the process.  It changes no bit of a result: only the
# halving rerun's last bits depend on it, and the rerun is never returned.
_MEMO_CAP = 2**20
_MEMO: dict = {}


def _pole_series(lam: float, phi, f0: float = 1.0):
    """Second-order series (f, f') = f0 (1 - lam phi^2 / 4, -lam phi / 2) at the pole.

    It starts the angular RK4 and gives dense output up to the first
    grid node; phi may be a scalar or an array.
    """
    return f0 * (1.0 - 0.25 * lam * phi * phi), f0 * (-0.5 * lam * phi)


def _coefficients(h, p, sigma):
    """lam-free coefficients E of the RK4 step matrices of y'' = p y' - lam sigma y.

    p and sigma hold the chart's coefficients at the 2k+1 half-step
    nodes of k steps, or one of them is a scalar.  Step j's matrix is
    I + E[0, :, :, j] + lam E[1, :, :, j] + lam^2 E[2, :, :, j], rows
    ((a, b), (c, d)): the four RK4 stages expanded in lam, exactly of
    degree 2, in nested form of h, sigma and p0, pm, p1 = h p at the
    step's three nodes.  The deviations a - 1 and d - 1 are formed
    directly, never as (1 + x) - 1.  Returns an array (3, 2, 2, k).
    """
    (p0, pm, p1), (s0, sm, s1) = (
        (x, x, x) if np.ndim(x) == 0 else (x[:-1:2], x[1::2], x[2::2]) for x in (h * p, sigma)
    )
    k = (max(np.size(p), np.size(sigma)) - 1) // 2
    g = h / 24.0
    co = np.empty((3, 2, 2, k))
    co[0, :, 0] = 0.0
    co[2, 0, 1] = 0.0
    u = 4.0 + pm
    v = 4.0 + pm * (2.0 + pm)
    co[0, 0, 1] = h + g * (p0 * v + 2.0 * pm * u)
    co[0, 1, 1] = ((p0 + p1) * (4.0 + pm * (4.0 + 2.0 * pm)) + pm * (16.0 + pm * (4.0 + p0 * p1))) / 24.0
    co[1, 0, 0] = -h * g * (s0 * v + 2.0 * sm * u)
    co[1, 0, 1] = -h * h * g * sm * (u + p0)
    co[1, 1, 0] = -g * (
        s0 * (4.0 + pm * (4.0 + pm * (2.0 + p1))) + 2.0 * sm * (2.0 * u + p1 * (2.0 + pm)) + 4.0 * s1
    )
    co[1, 1, 1] = -h * g * (sm * (8.0 + 2.0 * (p0 + p1 + pm) + p1 * (p0 + pm)) + s1 * (4.0 + pm * (2.0 + p0)))
    co[2, 0, 0] = h**3 * g * s0 * sm
    co[2, 1, 0] = h * h * g * (s0 * sm * (2.0 + p1) + s1 * (2.0 * sm + pm * s0))
    co[2, 1, 1] = h**3 * g * s1 * sm
    return co


def _deviations(co, lam):
    """The polynomial co[0] + lam co[1] + ... in lam by Horner's rule, as an array (2, 2, k).

    For the coefficients of _coefficients this is E0 + lam (E1 + lam E2),
    the step matrices minus I.
    """
    dev = co[-1] * lam
    for c in co[-2:0:-1]:
        dev += c
        dev *= lam
    dev += co[0]
    return dev


def _pair_coefficients(co):
    """lam-free coefficients of the pair steps (I + B)(I + A) - I from those of their half steps.

    co holds the coefficients of 2k half steps, as _coefficients gives
    them; A and B are half steps 2j and 2j + 1.  A + B + B A is a
    polynomial in lam of degree 4; returns its coefficients as an array
    (5, 2, 2, k).
    """
    a, b = co[..., ::2], co[..., 1::2]
    pc = np.zeros((5, *a.shape[1:]))
    pc[:3] = a + b
    for i in range(3):
        for j in range(3):
            # row r of B_j A_i is B_j[r, 0] A_i[0] + B_j[r, 1] A_i[1]
            pc[i + j] += b[j][:, :1] * a[i][0] + b[j][:, 1:] * a[i][1]
    return pc


def _memoized(key, n, nbytes, build):
    """The read-only array kept in _MEMO under key, or None.

    An array not yet kept is built by build() and kept only for a run
    that _run applies as one block (n <= _BLOCK) and only while the memo
    stays within _MEMO_CAP bytes; nbytes is its size, known before it is
    built.  Nothing is evicted.  A kept array serves runs of any block
    size as views of its columns.  On None the caller builds the columns
    of each block itself: the same bits for the angular run, the tail
    and -cos/sin, and for the halving rerun the evaluate-then-multiply
    pair products, which differ from its kept polynomial only in their
    last bits.
    """
    co = _MEMO.get(key)
    if co is None and n <= _BLOCK and sum(v.nbytes for v in _MEMO.values()) + nbytes <= _MEMO_CAP:
        co = _MEMO[key] = build()
        co.flags.writeable = False
    return co


def _run(y, yp, n, deviations):
    """n RK4 steps of a linear chart from (y, yp); returns (y, y') at the n+1 step nodes.

    deviations(s, e) gives the step matrices s .. e-1 minus I, as an
    array (2, 2, e - s), and builds the chart's coefficients for those
    steps only.  The steps are cut into equal blocks of at most _BLOCK,
    each a multiple of _SPAN, and _apply applies each block from the
    state the previous block left.  Every block thus starts on a span
    end, where _apply's broadcast computes the same y + (a y + b y') as
    its carry loop, so the states do not depend on the block size.
    """
    out = np.empty((2, n + 1))
    out[:, 0] = y, yp
    blocks = -(-n // _BLOCK)
    size = -(-n // (blocks * _SPAN)) * _SPAN
    for s in range(0, n, size):
        e = min(s + size, n)
        out[:, s + 1 : e + 1] = _apply(deviations(s, e), *out[:, s])
    return out[0], out[1]


def _apply(e, y, yp):
    """States after each of the 2x2 matrices I + e[:, :, k], applied in turn to (y, yp).

    The matrices are given by their deviation e from the identity: a
    product of entries near 1 drops its second-order term, always below
    half an ulp, so full entries bias every product by about one ulp.
    A two-level prefix product (Blelloch, CMU-CS-90-190): the m matrices
    are cut into blocks of _SPAN, and numpy forms the running products
    inside all blocks at once.  A plain-float loop carries the state
    across the block ends, and one broadcast applies each running product
    to its block's entry state.  Returns an array (2, m) of (y, y').
    """
    m = e.shape[-1]
    nb = -(-m // _SPAN)
    # identities (e = 0) pad the last block; matrix k moves to r[k % _SPAN, :, :, k // _SPAN]
    r = np.zeros((2, 2, nb * _SPAN))
    r[..., :m] = e
    r = np.ascontiguousarray(r.reshape(2, 2, nb, _SPAN).transpose(3, 0, 1, 2))
    t0 = np.empty((2, 2, nb))
    t1 = np.empty((2, 2, nb))
    for ei, ri in zip(r[1:], r[:-1]):
        # (I + e)(I + r) = I + e + r + e r, row j of e r being e[j, 0] r[0] + e[j, 1] r[1]
        np.multiply(ei[:, :1], ri[0], out=t0)
        np.multiply(ei[:, 1:], ri[1], out=t1)
        t0 += t1
        t0 += ri
        ei += t0
    ys = []
    yps = []
    y, yp = float(y), float(yp)
    for a, b, c, d in zip(*r[-1].reshape(4, nb).tolist()):
        ys.append(y)
        yps.append(yp)
        y, yp = y + (a * y + b * yp), yp + (c * y + d * yp)
    s = np.array((ys, yps))
    return (s + (r[:, :, 0] * s[0] + r[:, :, 1] * s[1])).transpose(1, 2, 0).reshape(2, -1)[:, :m]


def _angular_steps(step: float, phi_max: float) -> int:
    """Number of steps on [10*step, phi_max]."""
    n = int((phi_max - 10.0 * step) / step + 1e-9)
    if n < 8:
        raise InvalidParameterError("angular range too short for the requested step")
    return n


def _angular_p(step: float, lo: int, hi: int) -> np.ndarray:
    """-cot at the half-nodes (10 + k/2) step for lo <= k < hi, built in place."""
    p = np.arange(lo, hi, dtype=float)
    p *= 0.5
    p += 10.0
    p *= step
    np.tan(p, out=p)
    np.divide(-1.0, p, out=p)
    return p


def _angular_coefficients(h: float, s: int, e: int):
    """_coefficients of steps s .. e-1 of the angular chart at step h from 10 h."""
    return _coefficients(h, _angular_p(h, 2 * s, 2 * e + 1), 1.0)


def _rk4_angular(lam: float, step: float, phi_max: float):
    """RK4 for f'' = -cot(phi) f' - lam f on [10*step, phi_max] with the series start."""
    n = _angular_steps(step, phi_max)
    # nodes as integer multiples of the step: exact when step is a power of two
    grid = step * np.arange(10, 11 + n)
    co = _memoized(("angular", step, n), n, 96 * n, lambda: _angular_coefficients(step, 0, n))

    def steps(s, e):
        # _coefficients works column by column: stored or not, the same bits
        return _deviations(_angular_coefficients(step, s, e) if co is None else co[..., s:e], lam)

    f, fp = _run(*_pole_series(lam, 10.0 * step), n, steps)
    return grid, f, fp


def _rk4_halved(lam: float, step: float, phi_max: float):
    """The run of _rk4_angular at step/2, as (f, f') at every second node.

    The nodes are 5 step, 6 step, ...: _run applies the pair products
    (I + B)(I + A) of the half-step matrices A, B, and an odd last half
    step is dropped.  The memo keeps the pair products' lam-polynomial;
    a run it does not hold evaluates the half steps and multiplies them,
    the same products up to their last bits.
    """
    h = 0.5 * step
    n = _angular_steps(h, phi_max) // 2
    pc = _memoized(("pairs", h, n), n, 160 * n, lambda: _pair_coefficients(_angular_coefficients(h, 0, 2 * n)))

    def pairs(s, e):
        if pc is not None:
            return _deviations(pc[..., s:e], lam)
        # (I + e1)(I + e0) - I = e1 + e0 + e1 e0
        dev = _deviations(_angular_coefficients(h, 2 * s, 2 * e), lam)
        e0, e1 = dev[..., ::2], dev[..., 1::2]
        return e1 + e0 + (e1[:, :1] * e0[0] + e1[:, 1:] * e0[1])

    return _run(*_pole_series(lam, 10.0 * h), n, pairs)


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


def tau_of_phi(phi: float) -> float:
    """Stretched coordinate log tan(phi/2); maps (0, pi) onto the line."""
    return math.log(math.tan(0.5 * phi))


def phi_of_tau(tau: float) -> float:
    """Inverse of tau_of_phi for tau > 0, evaluated from the far pole."""
    return math.pi - 2.0 * math.atan(math.exp(-tau))


class RadialProfile:
    """Sampled solution of the separated equation with dense output.

    Values and derivatives live on the fixed-step angular grid.  The
    stretched-variable tail, needed by evaluation or zero finding beyond
    the grid, is integrated on first use from the grid end to _TAIL_END
    and kept; past its last node it is a straight line.
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
        self._tail = None
        self._fpp = None
        # the chart's p = -cos/sin at the grid nodes, when integrate_profile
        # found it in the memo; a profile built by hand forms it itself
        self._p = None

    # -- dense output -------------------------------------------------

    def second_derivs(self) -> np.ndarray:
        """f'' at the grid nodes from the differential equation itself."""
        if self._fpp is None:
            p = -np.cos(self.grid) / np.sin(self.grid) if self._p is None else self._p
            self._fpp = p * self.derivs - self.lam * self.values
        return self._fpp

    def _tail_nodes(self):
        """(tau, u, du/dtau, d2u/dtau2) at the tail nodes, grid end to _TAIL_END."""
        if self._tail is None:
            phi = float(self.grid[-1])
            tau0 = tau_of_phi(phi)
            h = _TAIL_STEP_FACTOR * self.step
            n = math.ceil((_TAIL_END - tau0) / h)

            def build(s, e):
                sech = 1.0 / np.cosh(tau0 + 0.5 * h * np.arange(2 * s, 2 * e + 1))
                return _coefficients(h, 0.0, sech * sech)

            co = _memoized(("tail", h, tau0, n), n, 96 * n, lambda: build(0, n))

            def steps(s, e):
                return _deviations(build(s, e) if co is None else co[..., s:e], self.lam)

            u, up = _run(self.values[-1], self.derivs[-1] * math.sin(phi), n, steps)
            self._set_tail(tau0 + h * np.arange(n + 1), u, up)
        return self._tail

    def _set_tail(self, tau, u, up):
        # u'' = -lam sech(tau)^2 u is formed from the stored u, a rescaled one included
        s = 1.0 / np.cosh(tau)
        self._tail = (tau, u, up, -self.lam * s * s * u)

    def _tail_sample(self, taus):
        """(u, du/dtau) at stretched coordinates beyond the grid end, scalar or array."""
        tt, u, up, upp = self._tail_nodes()
        # the interior nodes give the interval index clamped to the ends
        i = np.searchsorted(tt[1:-1], taus)
        fu, fup = _hermite(tt, u, up, upp, i, np.minimum(taus, tt[-1]))
        # past the last node: the straight line u_end + u'_end (tau - tau_end)
        return fu + up[-1] * np.maximum(taus - tt[-1], 0.0), fup

    def value_and_deriv_at_tau(self, tau: float):
        """Dense (f, f') at phi = phi_of_tau(tau) through the tail.

        tau keeps the digits that phi loses near pi, where phi may even
        round to pi.  A tau that is not finite, lies short of the grid end
        or overflows cosh (tau > 710.4) raises InvalidParameterError.
        """
        tau = float(tau)
        try:
            cosh = math.cosh(tau)
        except OverflowError:
            cosh = math.inf
        if not (cosh < math.inf and tau >= tau_of_phi(self.grid[-1])):
            raise InvalidParameterError(
                f"tail coordinate must be finite, beyond the grid end and below cosh overflow, got {tau}"
            )
        u, up = self._tail_sample(tau)
        # f' = u' / sin(phi) with sin(phi) = sech(tau)
        return float(u), float(up * cosh)

    def value_and_deriv(self, phi: float):
        """Dense (f, f') at a single angle; see ``sample``."""
        f, fp = self.sample([phi])
        return float(f[0]), float(fp[0])

    def sample(self, phis):
        """Dense (f, f') on an array of angles in [0, pi).

        The pole series serves angles up to the first grid node, cubic
        Hermite output the grid, and the stretched-variable tail the
        angles beyond it.  A non-finite or negative angle raises
        InvalidParameterError, an angle at or beyond pi PoleCollisionError.
        """
        phis = np.asarray(phis, dtype=float)
        if not (np.isfinite(phis) & (phis >= 0.0)).all():
            raise InvalidParameterError("profile angles must be finite and >= 0")
        if np.any(phis >= math.pi):
            raise PoleCollisionError("profile evaluation at or beyond phi = pi")
        g = self.grid
        f = np.empty_like(phis)
        fp = np.empty_like(phis)
        below = phis <= g[0]
        f[below], fp[below] = _pole_series(self.lam, phis[below], self.f0)
        beyond = phis > g[-1]
        if beyond.any():
            tau = np.log(np.tan(0.5 * phis[beyond]))
            u, up = self._tail_sample(tau)
            f[beyond], fp[beyond] = u, up * np.cosh(tau)
        mid = ~below & ~beyond
        x = phis[mid]
        i = np.searchsorted(g[1:-1], x)
        f[mid], fp[mid] = _hermite(g, self.values, self.derivs, self.second_derivs(), i, x)
        return f, fp

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
        out._p = self._p
        if self._tail is not None:
            tau, u, up, _ = self._tail
            out._set_tail(tau, u * factor, up * factor)
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
    a sup-norm disagreement on shared nodes above max(1e-9,
    6 |a4| (10 step)^3), a4 = lam (lam - 2/3) / 64, raises
    ConvergenceFailureError.  The second term is the truncation of the
    second-order series start; for beta = 1, c = 0 it is 2.5e-7 at step
    1e-3 and 4.5e-10, below 1e-9, at the default step.
    """
    beta = float(beta)
    c = as_slope(c)
    phi_max = float(phi_max)
    step = float(step)
    if not -1.0 <= beta <= 2.0:
        raise InvalidParameterError(f"homogeneity exponent must lie in [-1, 2], got {beta}")
    if not math.isfinite(phi_max):
        raise InvalidParameterError(f"phi_max must be finite, got {phi_max}")
    if phi_max >= math.pi:
        raise PoleCollisionError(f"phi_max must stay below pi, got {phi_max}")
    if not 0.0 < step <= 1e-3:
        raise InvalidParameterError(f"step must lie in (0, 1e-3], got {step}")
    n = _angular_steps(step, phi_max)
    if n > _MAX_STEPS:
        raise InvalidParameterError(f"step {step} takes {n} steps to phi_max, more than {_MAX_STEPS}")
    lam = beta * (beta + 1.0) / (1.0 + c * c)
    grid, f, fp = _rk4_angular(lam, step, phi_max)
    if verify:
        f2, fp2 = _rk4_halved(lam, step, phi_max)
        # grid node (10 + i) step is node 5 + i of the rerun
        df = float(np.max(np.abs(f - f2[5:])))
        dfp = float(np.max(np.abs(fp - fp2[5:])))
        # the second-order series start truncates at 4|a4|(10 step)^3 in
        # f'; at the default step this sits below the 1e-9 budget for
        # lam < 2.7 (every beta <= 1), at coarser steps it dominates the
        # halving comparison
        a4 = lam * (lam - 2.0 / 3.0) / 64.0
        tol = max(_HALVING_TOL, 6.0 * abs(a4) * (10.0 * step) ** 3)
        if max(df, dfp) > tol:
            raise ConvergenceFailureError(
                f"step-halving disagreement {max(df, dfp):.3e} above {tol:.3e}",
                log=[("sup_df", df), ("sup_dfp", dfp)],
            )
    prof = RadialProfile(beta, c, grid, f, fp, 1.0, step)
    prof._p = _memoized(("cot", step, n), n, 8 * (n + 1), lambda: -np.cos(grid) / np.sin(grid))
    return prof


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
        tol_x = tol * (1.0 + abs(x))
        xn = x - fx / d if d != 0.0 else math.nan
        # a converged Newton step may land on a bracket end; any other step
        # that leaves the open bracket is replaced by bisection
        if not (abs(xn - x) <= tol_x or min(a, b) < xn < max(a, b)):
            xn = 0.5 * (a + b)
        if abs(xn - x) <= tol_x:
            return xn
        x = xn
    return x


def _hermite_root(xs, ys, ds, dds):
    """(root, slope) of the first > 0 to <= 0 crossing of the nodes' Hermite cubic, or None."""
    hits = np.nonzero((ys[:-1] > 0.0) & (ys[1:] <= 0.0))[0]
    if not hits.size:
        return None
    i = int(hits[0])

    def fun(x):
        return _hermite(xs, ys, ds, dds, i, x)

    x = _bracketed_newton(fun, xs[i], xs[i + 1], ys[i], ys[i + 1])
    return x, fun(x)[1]


def _locate_zero(profile: RadialProfile):
    """First zero as (phi0, tau0, deriv_at_zero); tail-aware."""
    v = profile.values
    hit = _hermite_root(profile.grid, v, profile.derivs, profile.second_derivs())
    if hit is not None:
        phi0, slope = hit
        return phi0, tau_of_phi(phi0), slope
    if float(v[-1]) <= 0.0:
        raise NoZeroError("profile not positive at the start of the searched range")
    tt, u, up, upp = profile._tail_nodes()
    hit = _hermite_root(tt, u, up, upp)
    if hit is not None:
        tau0, slope = float(hit[0]), hit[1]
    elif up[-1] >= 0.0:
        raise NoZeroError("profile does not decay; no zero before the far pole")
    else:
        # past the tail end the profile is its straight line, whose zero is exact
        tau0, slope = float(tt[-1]) - float(u[-1]) / float(up[-1]), up[-1]
    try:
        cosh0 = math.cosh(tau0)
    except OverflowError:
        raise InvalidParameterError(
            f"first zero lies within double rounding of pi (tau0 = {tau0:.6g})"
        ) from None
    return phi_of_tau(tau0), tau0, float(slope * cosh0)


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

    @property
    def c(self) -> float:
        return self.profile.c


def symmetric_solution(c, step=DEFAULT_STEP) -> SymmetricSolution:
    """Build the normalized symmetric solution for slope c."""
    c = float(c)
    prof = integrate_profile(1.0, c, PHI_CAP, step=step)
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
    )


def checked_solution(sol, c, step=DEFAULT_STEP) -> SymmetricSolution:
    """sol, checked to be the symmetric solution at slope c and step, or that solution built."""
    if sol is None:
        return symmetric_solution(c, step=step)
    if sol.c != float(c) or sol.profile.step != float(step):
        raise InvalidParameterError(
            f"given solution has slope {sol.c} and step {sol.profile.step}, not {float(c)} and {float(step)}"
        )
    return sol


def beta_half_profile(c, step=DEFAULT_STEP) -> RadialProfile:
    """Comparison profile with exponent -1/2, positive and nondecreasing.

    Both are audited on the angular grid.  Beyond it they hold by
    convexity: lam = -1/(4(1+c^2)) < 0 makes u'' = |lam| sech(tau)^2 u
    convex where u > 0, so a positive, nondecreasing grid end stays so up
    to the far pole.  The tail is built only for values beyond the grid.
    """
    c = float(c)
    prof = integrate_profile(-0.5, c, PHI_CAP, step=step)
    if np.any(prof.values <= 0.0):
        raise PropertyViolationError("comparison profile lost positivity on the grid")
    if np.any(prof.derivs < -1e-12):
        raise PropertyViolationError("comparison profile lost monotonicity on the grid")
    return prof
