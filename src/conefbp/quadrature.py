"""Deterministic 1D quadrature helpers."""

from __future__ import annotations

import numpy as np


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
