import math

import numpy as np
import pytest

from conefbp.errors import InvalidParameterError
from conefbp.grid import field_from_solution, make_field
from conefbp.weiss import rescale_field, weiss, weiss_trace


def flat_half_space(n=128):
    f = make_field(n, n, 0.0)
    f.values = np.clip(np.outer(f.r, np.cos(f.phi)), 0.0, None)
    return f


class TestWeissValue:
    def test_zero_field(self):
        f = make_field(64, 64, 0.2)
        for r in (0.1, 0.5, 0.9):
            assert weiss(f, r) == 0.0

    def test_flat_half_space_constant(self):
        f = flat_half_space()
        tr = weiss_trace(f, 12, 0.1, 0.9)
        h = max(1.0 / 128.0, math.pi / 128.0)
        assert tr.values.max() - tr.values.min() <= h
        # value itself sits near the continuum 2 pi / 3 up to the O(h)
        # interface band
        assert abs(tr.values[0] - 2.0 * math.pi / 3.0) <= 5.0 * h

    def test_symmetric_solution_constant(self, sol03):
        f = field_from_solution(sol03, 128, 128)
        tr = weiss_trace(f, 12, 0.1, 0.9)
        assert tr.homogeneity_flag
        assert tr.values.max() - tr.values.min() <= 1e-10

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    @pytest.mark.parametrize("c, sol", [(0.1, "sol01"), (0.3, "sol03")])
    def test_symmetric_solution_matches_series_volume(self, request, series_energy, c, sol, n):
        # W is the positivity volume (2 pi sqrt(1+c^2)/3)(1 - cos phi0) at every radius
        tr = weiss_trace(field_from_solution(request.getfixturevalue(sol), n, n))
        assert np.abs(tr.values - series_energy[c][1]).max() <= 2.0 * math.pi / n

    def test_out_of_range_radius(self):
        f = flat_half_space(32)
        with pytest.raises(InvalidParameterError):
            weiss(f, 1.5)
        with pytest.raises(InvalidParameterError):
            weiss(f, 0.01)


class TestWeissTrace:
    def test_perturbed_flat_field_increases(self):
        # on the flat cone the 0.1 r^2 cos(phi) perturbation repowers the
        # solution; its monitor grows like r^2 above the small-radius jitter
        f = flat_half_space(192)
        pert = np.where(f.values > 0.0, 0.1 * np.outer(f.r**2, np.cos(f.phi)), 0.0)
        g = f.with_values(np.clip(f.values + pert, 0.0, None))
        tr = weiss_trace(g, 10, 0.25, 0.9)
        assert np.all(np.diff(tr.values) > 0.0)
        assert tr.monotone_violation == 0.0

    def test_repowered_solution_increases(self, sol03):
        # radial repowering r f -> r(1 + 0.1 r) f is first-order neutral and
        # strictly monitor-increasing at second order for any slope
        f = field_from_solution(sol03, 192, 192)
        g = f.with_values(f.values * (1.0 + 0.1 * f.r[:, None]))
        tr = weiss_trace(g, 10, 0.25, 0.9)
        assert np.all(np.diff(tr.values) > 0.0)
        assert tr.monotone_violation == 0.0

    def test_minimizer_output_nearly_monotone(self, sol01):
        from conefbp.minimize import MinimizeConfig, minimize

        phis = np.linspace(0.0, math.pi, 64)
        vals = np.zeros(64)
        inside = phis < sol01.phi0
        vals[inside] = np.clip(sol01.profile.sample(phis[inside])[0], 0.0, None)
        res = minimize(MinimizeConfig(c=0.1, nr=64, nphi=64), vals)
        tr = weiss_trace(res.field, 10, 0.15, 0.9)
        h = max(np.diff(res.field.r).max(), res.field.phi[1] - res.field.phi[0])
        assert tr.monotone_violation >= -5.0 * h

    def test_localized_bump_breaks_monotonicity(self, sol03):
        f = field_from_solution(sol03, 128, 128)
        bump = 0.3 * np.exp(-((f.r[:, None] - 0.5) ** 2) / 0.002) * np.sin(f.phi[None, :])
        g = f.with_values(np.clip(f.values + bump, 0.0, None))
        tr = weiss_trace(g, 14, 0.2, 0.9)
        assert tr.monotone_violation < 0.0
        assert not tr.homogeneity_flag

    def test_needs_enough_radii(self, sol03):
        f = field_from_solution(sol03, 32, 32)
        with pytest.raises(InvalidParameterError):
            weiss_trace(f, 3)

    @pytest.mark.parametrize(
        "r_lo,r_hi", [(0.9, 0.1), (0.5, 0.5), (math.nan, 0.9), (0.1, math.inf), (0.0, 0.5), (-1.0, 0.5)]
    )
    def test_bounds_checked(self, sol03, r_lo, r_hi):
        f = field_from_solution(sol03, 32, 32)
        with pytest.raises(InvalidParameterError, match="r_lo < r_hi"):
            weiss_trace(f, 8, r_lo, r_hi)

    def test_values_equal_the_pointwise_monitor(self, sol03):
        f = field_from_solution(sol03, 96, 96)
        bump = 0.3 * np.exp(-((f.r[:, None] - 0.5) ** 2) / 0.002) * np.sin(f.phi[None, :])
        g = f.with_values(np.clip(f.values + bump, 0.0, None))
        tr = weiss_trace(g)
        assert np.array_equal(tr.values, [weiss(g, r) for r in tr.radii])


class TestRescaling:
    def test_identity_on_sampled_fields(self, sol03):
        f = field_from_solution(sol03, 128, 128)
        pert = np.where(f.values > 0.0, 0.05 * np.outer(f.r**2, np.ones_like(f.phi)), 0.0)
        g = f.with_values(f.values + pert)
        h = max(np.diff(g.r).max(), g.phi[1] - g.phi[0])
        for (rr, rho) in ((0.5, 0.6), (0.4, 0.9)):
            w1 = weiss(g, rr * rho)
            w2 = weiss(rescale_field(g, rr), rho)
            assert abs(w1 - w2) <= 5.0 * h

    def test_homogeneous_fixed_point(self, sol03):
        f = field_from_solution(sol03, 96, 96)
        g = rescale_field(f, 0.5)
        assert np.abs(g.values - f.values).max() <= 1e-10 * f.values.max()

    def test_factor_domain(self, sol03):
        f = field_from_solution(sol03, 32, 32)
        with pytest.raises(InvalidParameterError):
            rescale_field(f, 1.5)
