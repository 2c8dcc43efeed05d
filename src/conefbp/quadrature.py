"""Deterministic 1D quadrature helpers."""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid (odd point count required)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 3 or y.size % 2 == 0:
        raise InvalidParameterError("simpson_uniform needs a 1-D array of an odd number of samples >= 3")
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid cell widths for a (possibly non-uniform) 1D grid."""
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InvalidParameterError("trapezoid_weights needs a 1-D grid of at least 2 nodes")
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w
