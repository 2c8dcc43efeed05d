import math

import numpy as np
import pytest

from conefbp.errors import InvalidParameterError
from conefbp.geometry import (
    cap_geometry,
    homogeneity_exponent,
    is_minimizing,
    morgan_threshold,
)
from conefbp.quadrature import simpson_uniform


def bisect_exponent(c, lo=0.0, hi=1.5):
    # independent root of a(a+1) = 2/(1+c^2)
    target = 2.0 / (1.0 + c * c)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * (mid + 1.0) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestHomogeneityExponent:
    def test_flat_cone(self):
        assert homogeneity_exponent(0.0) == 1.0

    def test_unit_slope_exact(self):
        assert abs(homogeneity_exponent(1.0) - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-15

    def test_against_bisection_oracle(self):
        # frozen from the oracle below; c = 3 gives a(a+1) = 0.2
        oracle = bisect_exponent(3.0)
        assert abs(oracle - 0.17082039324993692) < 1e-12
        assert abs(homogeneity_exponent(3.0) - oracle) < 1e-14

    def test_defining_identity_and_monotonicity(self):
        cs = np.linspace(0.0, 10.0, 101)
        alphas = np.array([homogeneity_exponent(c) for c in cs])
        assert np.all(np.diff(alphas) < 0.0)
        for c, a in zip(cs, alphas):
            assert abs(a * (a + 1.0) * (1.0 + c * c) - 2.0) < 1e-12
        assert np.all((alphas > 0.0) & (alphas <= 1.0))

    # 1.5e154 squared overflows, as everywhere else in the package
    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan, 1.5e154])
    def test_invalid_slope(self, bad):
        with pytest.raises(InvalidParameterError, match="cone slope"):
            homogeneity_exponent(bad)
        with pytest.raises(InvalidParameterError, match="cone slope"):
            is_minimizing(4, bad)


class TestCapGeometry:
    def test_hemisphere(self):
        cap = cap_geometry(math.pi / 2.0)
        assert abs(cap.areaU - 2.0 * math.pi) < 1e-12
        assert abs(cap.H1) < 1e-15
        assert abs(cap.kappa) < 1e-15

    def test_two_thirds_pi(self):
        cap = cap_geometry(2.0 * math.pi / 3.0)
        assert abs(cap.H1 - 1.0 / math.sqrt(3.0)) < 1e-12
        assert abs(cap.areaU - 3.0 * math.pi) < 1e-10

    def test_generic_angle_all_fields(self):
        phi0 = 1.8
        cap = cap_geometry(phi0)
        assert abs(cap.t0 - math.cos(phi0)) < 1e-15
        assert abs(cap.boundary_length - 2.0 * math.pi * math.sin(phi0)) < 1e-12
        assert abs(cap.areaU + cap.areaV - 4.0 * math.pi) < 1e-12
        # curvature convention agrees with the radius-one mean curvature
        assert abs(cap.H1 - abs(cap.t0) / math.sqrt(1.0 - cap.t0**2)) < 1e-12

    @pytest.mark.parametrize("phi0", [0.3, 1.0, math.pi / 2, 2.0, 2.8] + [math.pi / 2 + 0.1 * k for k in range(5)])
    def test_gauss_bonnet_residual(self, phi0):
        cap = cap_geometry(phi0)
        residual = cap.areaV + cap.kappa * cap.boundary_length - 2.0 * math.pi
        assert abs(residual) <= 1e-10

    @pytest.mark.parametrize("phi0", [0.3, math.pi / 2, 2.0, 2.8, 3.1])
    def test_area_against_simpson(self, phi0):
        # the closed form 2 pi (1 - cos phi0) against composite Simpson of
        # sin on 2049 nodes, whose error here is at most 3.7e-13
        area = 2.0 * math.pi * simpson_uniform(np.sin(np.linspace(0.0, phi0, 2049)), phi0 / 2048)
        assert abs(cap_geometry(phi0).areaU - area) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, math.pi, -1.0, 4.0])
    def test_domain(self, bad):
        with pytest.raises(InvalidParameterError):
            cap_geometry(bad)


class TestMorganThreshold:
    def test_plane_dimension_three(self):
        # solve 1/(1+c^2) = 8/9 exactly: c = 1/(2 sqrt(2))
        assert abs(morgan_threshold(3) - 1.0 / (2.0 * math.sqrt(2.0))) < 1e-15
        assert abs(morgan_threshold(3) - 0.3535533906) < 1e-10

    def test_plane_dimension_four(self):
        assert abs(morgan_threshold(4) - 1.0 / math.sqrt(3.0)) < 1e-15
        assert abs(morgan_threshold(4) - 0.5773502692) < 1e-10

    def test_two_dimensional_plane_never_minimizes(self):
        for c in np.linspace(0.0, 5.0, 23):
            assert not is_minimizing(2, c)

    def test_predicate_flip_by_brute_scan(self):
        thr = morgan_threshold(4)
        cs = np.linspace(0.0, 2.0, 4001)
        flags = np.array([is_minimizing(4, c) for c in cs])
        flips = np.nonzero(flags[:-1] != flags[1:])[0]
        assert len(flips) == 1
        assert cs[flips[0]] <= thr <= cs[flips[0] + 1]
        # delta substitution: threshold satisfies delta^2 = 4(k-1)/k^2
        delta2 = 1.0 / (1.0 + thr * thr)
        assert abs(delta2 - 12.0 / 16.0) < 1e-12

    def test_strictly_increasing_in_k(self):
        vals = [morgan_threshold(k) for k in range(3, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_invalid_dimension(self, bad):
        with pytest.raises(InvalidParameterError):
            morgan_threshold(bad)
