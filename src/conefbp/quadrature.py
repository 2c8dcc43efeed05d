"""Deterministic 1D quadrature helpers."""

from __future__ import annotations

import numpy as np


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Adaptive Simpson rule with absolute tolerance ``tol``.

    Recursion uses the standard Richardson /15 acceptance test; depth is
    capped at 48 so pathological integrands terminate.
    """
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, 48)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return _simpson_rec(f, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid (odd point count required)."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 3 or n % 2 == 0:
        raise ValueError("simpson_uniform needs an odd number of samples >= 3")
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid cell widths for a (possibly non-uniform) 1D grid."""
    x = np.asarray(nodes, dtype=float)
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w
