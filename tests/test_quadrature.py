import math

import numpy as np
import pytest

from conefbp.quadrature import (
    adaptive_simpson,
    simpson_uniform,
    trapezoid_weights,
)


def test_adaptive_simpson_sin():
    assert abs(adaptive_simpson(math.sin, 0.0, math.pi) - 2.0) < 1e-12


def test_adaptive_simpson_sharp_peak():
    val = adaptive_simpson(lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, tol=1e-10)
    exact = 2.0 / math.sqrt(1e-4) * math.atan(1.0 / math.sqrt(1e-4))
    assert abs(val - exact) < 1e-6 * exact


def test_simpson_uniform_polynomial_exact():
    x = np.linspace(0.0, 2.0, 21)
    assert abs(simpson_uniform(x**3, x[1] - x[0]) - 4.0) < 1e-13


def test_simpson_uniform_rejects_even_counts():
    with pytest.raises(ValueError):
        simpson_uniform(np.ones(4), 0.1)


def test_trapezoid_weights_sum_to_length():
    x = np.geomspace(0.1, 1.0, 17)
    assert abs(trapezoid_weights(x).sum() - 0.9) < 1e-14
