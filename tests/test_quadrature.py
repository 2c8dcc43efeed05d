import numpy as np
import pytest

from conefbp.errors import InvalidParameterError
from conefbp.quadrature import simpson_uniform, trapezoid_weights


def test_simpson_uniform_polynomial_exact():
    x = np.linspace(0.0, 2.0, 21)
    assert abs(simpson_uniform(x**3, x[1] - x[0]) - 4.0) < 1e-13


def test_simpson_uniform_rejects_even_counts():
    with pytest.raises(InvalidParameterError):
        simpson_uniform(np.ones(4), 0.1)


@pytest.mark.parametrize("y", [np.ones(0), np.ones(1), np.ones(2), 1.0])
def test_simpson_uniform_rejects_short_inputs(y):
    with pytest.raises(InvalidParameterError):
        simpson_uniform(y, 0.1)


@pytest.mark.parametrize("nodes", [[], [0.5], 0.5])
def test_trapezoid_weights_rejects_short_grids(nodes):
    with pytest.raises(InvalidParameterError):
        trapezoid_weights(nodes)


def test_trapezoid_weights_sum_to_length():
    x = np.geomspace(0.1, 1.0, 17)
    assert abs(trapezoid_weights(x).sum() - 0.9) < 1e-14
