import io
import math

import numpy as np
import pytest

from conefbp import ode
from conefbp.errors import (
    ConvergenceFailureError,
    InvalidParameterError,
    NoZeroError,
    PoleCollisionError,
)
from conefbp.ode import (
    DEFAULT_STEP,
    beta_half_profile,
    first_zero,
    integrate_profile,
    pole_series,
    symmetric_solution,
)

from conftest import legendre_series, legendre_series_deriv, scalar_rk4, series_zero

# series-oracle anchors (bisection of the power series, independent of RK4)
PHI0_HALF = 1.7236976651367066
PHI0_ONE = 2.0664612598765970


class TestIntegrateProfile:
    def test_flat_beta_one_is_cosine(self):
        p = integrate_profile(1.0, 0.0, 0.9 * math.pi, step=DEFAULT_STEP)
        assert np.max(np.abs(p.values - np.cos(p.grid))) <= 1e-8
        assert np.max(np.abs(p.derivs + np.sin(p.grid))) <= 1e-8

    @pytest.mark.parametrize("beta,c", [(1.0, 0.0), (1.0, 1.0), (-0.5, 0.0), (-0.5, 0.3)])
    def test_residual_budget(self, beta, c):
        p = integrate_profile(beta, c, 2.2, step=DEFAULT_STEP)
        # f'' as the centered difference of the f' column and f' as the
        # centered difference of the f column: checks both columns against
        # the equation and each other above the noise of second differences
        f, fp, g, h = p.values, p.derivs, p.grid, p.step
        d2 = (fp[2:] - fp[:-2]) / (2.0 * h)
        d1 = (f[2:] - f[:-2]) / (2.0 * h)
        cot = np.cos(g[1:-1]) / np.sin(g[1:-1])
        assert np.max(np.abs(d2 + cot * d1 + p.lam * f[1:-1])) <= 1e-8

    @pytest.mark.parametrize("beta,c", [(1.0, 0.7), (-0.5, 1.3), (1.0, 3.0)])
    def test_against_series_oracle(self, beta, c):
        # the angles past the 2.2 grid end check the stretched-variable
        # tail; they stop at 2.95 because the 6,000-term series itself
        # drifts to 5e-8 at 3.05
        lam = beta * (beta + 1.0) / (1.0 + c * c)
        p = integrate_profile(beta, c, 2.2, step=DEFAULT_STEP)
        phis = np.array([0.4, 1.1, 1.8, 2.15, 2.25, 2.4, 2.6, 2.8, 2.95])
        f, fp = p.sample(phis)
        for k, phi in enumerate(phis):
            assert abs(f[k] - legendre_series(lam, phi)) < 1e-10
            assert abs(fp[k] - legendre_series_deriv(lam, phi)) < 1e-9

    def test_series_start_consistency(self):
        # first grid samples match the pole series to O(step^4); at the
        # default step that truncation sits below double rounding, so the
        # bound is the rounding floor
        p = integrate_profile(-0.5, 0.0, 2.0, step=DEFAULT_STEP)
        f6, fp6 = pole_series(p.lam, p.grid[:40], order=6)
        assert np.max(np.abs(p.values[:40] - f6)) < max(1e-12, 20.0 * DEFAULT_STEP**4)
        assert np.max(np.abs(p.derivs[:40] - fp6)) < max(1e-12, 20.0 * DEFAULT_STEP**3)
        # at a coarse step the start truncation dominates: the deviation is
        # the propagated fourth-order series remainder, still O(step^4)
        coarse = integrate_profile(-0.5, 0.0, 2.0, step=1e-3)
        f6c, _ = pole_series(coarse.lam, coarse.grid[:40], order=6)
        assert np.max(np.abs(coarse.values[:40] - f6c)) < 1e3 * 1e-3**4 + 1e-12

    def test_step_halving_agreement(self):
        coarse = integrate_profile(1.0, 1.0, 2.2, step=DEFAULT_STEP, verify=False)
        fine = integrate_profile(1.0, 1.0, 2.2, step=DEFAULT_STEP / 2.0, verify=False)
        idx = 10 + 2 * np.arange(len(coarse.grid))
        assert np.max(np.abs(coarse.values - fine.values[idx])) <= 1e-9
        assert np.max(np.abs(coarse.derivs - fine.derivs[idx])) <= 1e-9

    def test_halving_guard_fires(self, monkeypatch):
        rk4_angular = ode._rk4_angular

        def perturbed(lam, step, phi_max):
            grid, f, fp = rk4_angular(lam, step, phi_max)
            # only the h/2 run moves, by ten times the halving tolerance
            return grid, f + (1e-8 if step < DEFAULT_STEP else 0.0), fp

        monkeypatch.setattr(ode, "_rk4_angular", perturbed)
        with pytest.raises(ConvergenceFailureError) as info:
            integrate_profile(1.0, 0.3, 2.2)
        log = dict(info.value.log)
        assert set(log) == {"sup_df", "sup_dfp"}
        assert abs(log["sup_df"] - 1e-8) <= 1e-9
        assert log["sup_dfp"] <= 1e-9

    def test_continuity_in_slope(self):
        for beta in (1.0, -0.5):
            for c in (0.0, 1.0, 7.0):
                a = integrate_profile(beta, c, 2.0, step=1e-3, verify=False)
                b = integrate_profile(beta, c + 1e-4, 2.0, step=1e-3, verify=False)
                assert np.max(np.abs(a.values - b.values)) <= 1e-2

    def test_determinism_bitwise(self):
        a = integrate_profile(1.0, 0.4, 2.0, step=1e-3)
        b = integrate_profile(1.0, 0.4, 2.0, step=1e-3)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.derivs, b.derivs)

    def test_tail_matches_flat_cosine(self):
        # at c = 0 and beta = 1 the profile is cos(phi) exactly, so every
        # angle beyond the 2.2 grid end checks the stretched-variable tail
        p = integrate_profile(1.0, 0.0, 2.2)
        phis = np.array([2.3, 2.6, 3.0, 3.1, math.pi - 1e-3, math.pi - 1e-6])
        f, fp = p.sample(phis)
        for k, phi in enumerate(phis):
            value, slope = p.value_and_deriv(phi)
            assert value == f[k] and slope == fp[k]
            assert abs(value - math.cos(phi)) <= 1e-10
            # f' + sin(phi) carries the tail's 1/sin(phi) amplification
            assert abs(math.sin(phi) * (slope + math.sin(phi))) <= 1e-10

    @pytest.mark.parametrize("phi", [math.nan, -0.1, math.inf, -math.inf])
    def test_bad_angles_rejected(self, phi):
        p = integrate_profile(1.0, 0.3, 2.2, step=1e-3)
        for phis in ([phi], [1.0, phi, 2.5]):
            with pytest.raises(InvalidParameterError, match="finite and >= 0"):
                p.sample(phis)
        with pytest.raises(InvalidParameterError, match="finite and >= 0"):
            p.value_and_deriv(phi)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -3.0])
    def test_bad_tail_coordinates_rejected(self, tau):
        # -3.0 lies short of the tail, which starts at log tan(1.1) = 0.675
        p = integrate_profile(-0.5, 0.3, 2.2, step=1e-3)
        p.ensure_tail(5.0)
        with pytest.raises(InvalidParameterError, match="beyond the grid end"):
            p.value_and_deriv_at_tau(tau)

    def test_angle_at_pi_rejected(self):
        p = integrate_profile(1.0, 0.3, 2.2, step=1e-3)
        for phis in ([math.pi], [1.0, 2.5, math.pi]):
            with pytest.raises(PoleCollisionError):
                p.sample(phis)

    def test_domain_errors(self):
        with pytest.raises(PoleCollisionError):
            integrate_profile(1.0, 0.0, math.pi, step=1e-3)
        with pytest.raises(InvalidParameterError):
            integrate_profile(1.0, 0.0, 2.0, step=2e-3)
        with pytest.raises(InvalidParameterError):
            integrate_profile(3.0, 0.0, 2.0, step=1e-3)
        for phi_max in (math.nan, -math.inf):
            with pytest.raises(InvalidParameterError, match="finite"):
                integrate_profile(1.0, 0.0, phi_max, step=1e-3)
        with pytest.raises(InvalidParameterError):
            integrate_profile(1.0, -1.0, 2.0, step=1e-3)
        # c * c overflows above ~1.3e154, which would make lam = 0
        with pytest.raises(InvalidParameterError, match="overflows"):
            symmetric_solution(1e155)
        with pytest.raises(InvalidParameterError, match="overflows"):
            beta_half_profile(1e300)


def _close_to(ref, got, rel=1e-12):
    ref = np.asarray(ref)
    return np.max(np.abs(np.asarray(got) - ref)) <= rel * np.max(np.abs(ref))


class TestRk4Kernel:
    """The step-matrix kernel against the scalar stage loop in conftest."""

    @pytest.mark.parametrize("beta", [1.0, -0.5])
    @pytest.mark.parametrize("c", [0.0, 1.0, 7.0])
    @pytest.mark.parametrize("step", [1e-3, 2.0**-13])
    # one run inside a single block, one that ends part-way through a block
    @pytest.mark.parametrize("n", [500, ode._BLOCK + 137])
    def test_angular_chart(self, beta, c, step, n):
        lam = beta * (beta + 1.0) / (1.0 + c * c)
        phi_eps = 10.0 * step
        grid, f, fp = ode._rk4_angular(lam, step, (10 + n) * step)
        assert len(grid) == n + 1 and grid[-1] < 2.2
        p = [-1.0 / math.tan((10.0 + 0.5 * k) * step) for k in range(2 * n + 1)]
        y0 = 1.0 - 0.25 * lam * phi_eps * phi_eps
        ys, yps = scalar_rk4(y0, -0.5 * lam * phi_eps, step, p, [-lam] * len(p))
        assert _close_to(ys, f) and _close_to(yps, fp)

    def test_tail_piece(self):
        lam = 1.0
        h = 40.0 * DEFAULT_STEP
        n = ode._BLOCK + 137
        tau = [0.5 + 0.5 * h * k for k in range(2 * n + 1)]
        q = [-lam / math.cosh(t) ** 2 for t in tau]
        ys, yps = scalar_rk4(-0.6, -0.4, h, [0.0] * len(q), q)
        u, up = ode._rk4(-0.6, -0.4, h, 0.0, np.array(q))
        assert len(u) == n + 1
        assert _close_to(ys, u) and _close_to(yps, up)


class TestFirstZero:
    def test_flat_zero_at_equator(self):
        p = integrate_profile(1.0, 0.0, 2.2, step=DEFAULT_STEP)
        assert abs(first_zero(p) - math.pi / 2.0) <= 1e-8

    def test_oracle_anchor_c_half(self):
        lam = 2.0 / 1.25
        assert abs(series_zero(lam, 1.5, 2.0) - PHI0_HALF) < 1e-12
        p = integrate_profile(1.0, 0.5, 2.2, step=DEFAULT_STEP)
        assert abs(first_zero(p) - PHI0_HALF) < 1e-10

    def test_oracle_anchor_c_one(self):
        lam = 1.0
        assert abs(series_zero(lam, 1.9, 2.2) - PHI0_ONE) < 1e-12
        p = integrate_profile(1.0, 1.0, 2.2, step=DEFAULT_STEP)
        assert abs(first_zero(p) - PHI0_ONE) < 1e-10

    def test_large_slope_zero_approaches_far_pole(self):
        sol = symmetric_solution(50.0, step=1e-3)
        assert abs(sol.t0 + 1.0) < 0.05

    @pytest.mark.parametrize("c", [1.2, 1.35, 1.5])
    def test_zero_across_grid_tail_handoff(self, c):
        # the default grid caps at 2.2; zeros on either side of the cap
        # must agree with the series oracle through the chart change
        lam = 2.0 / (1.0 + c * c)
        oracle = series_zero(lam, 1.8, 2.8)
        sol = symmetric_solution(c, step=1e-3)
        assert abs(sol.phi0 - oracle) < 1e-7
        fine = symmetric_solution(c)
        assert abs(fine.phi0 - oracle) < 1e-9

    def test_no_zero_for_monotone_profile(self):
        g = integrate_profile(-0.5, 0.3, 2.2, step=1e-3)
        with pytest.raises(NoZeroError):
            first_zero(g)


class TestSymmetricSolution:
    def test_flat_case(self):
        sol = symmetric_solution(0.0)
        assert abs(sol.phi0 - math.pi / 2.0) <= 1e-8
        assert abs(sol.H1) <= 1e-8

    def test_normalization_gives_unit_gradient(self, sol05):
        # |grad(r f)|^2 at the zero = f'(phi0)^2 + f(phi0)^2/(1+c^2)
        f, fp = sol05.profile.value_and_deriv(sol05.phi0)
        grad_sq = fp * fp + f * f / 1.25
        assert abs(grad_sq - 1.0) < 1e-9

    def test_positive_before_zero(self, sol05):
        g = sol05.profile.grid
        inside = g < sol05.phi0 - 1e-9
        assert np.all(sol05.profile.values[inside] > 0.0)

    def test_zero_angle_beyond_equator(self, sol01, sol05):
        assert sol01.phi0 > math.pi / 2.0
        assert sol05.phi0 > sol01.phi0

    def test_angle_grows_with_slope(self):
        a = symmetric_solution(0.5, step=1e-3)
        b = symmetric_solution(2.0, step=1e-3)
        assert b.phi0 > a.phi0

    def test_normalization_idempotent(self, sol05):
        # renormalizing an already normalized profile moves values by at
        # most one rounding of the recomputed unit slope
        prof = sol05.profile
        _, fp0 = prof.value_and_deriv(sol05.phi0)
        rescaled = prof.scaled(-1.0 / fp0)
        assert np.max(np.abs(rescaled.values - prof.values)) <= 1e-15 * np.max(np.abs(prof.values))
        assert np.max(np.abs(rescaled.derivs - prof.derivs)) <= 1e-15 * np.max(np.abs(prof.derivs))

    def test_zero_within_rounding_of_pi_rejected(self):
        # tau0 is still finite in cosh at c = 53 (703); beyond c ~ 53.2
        # cosh(tau0) overflows, phi0 being pi far below double rounding
        assert symmetric_solution(53.0, step=1e-3).tau0 > 700.0
        with pytest.raises(InvalidParameterError, match="rounding of pi"):
            symmetric_solution(60.0)

    def test_mean_curvature_formula(self, sol05):
        assert abs(sol05.H1 + sol05.t0 / sol05.sin_phi0) < 1e-14
        assert abs(sol05.t0 - math.cos(sol05.phi0)) < 1e-12


class TestBetaHalfProfile:
    @pytest.mark.parametrize("c", [0.0, 0.3])
    def test_positive_and_nondecreasing(self, c):
        g = beta_half_profile(c)
        assert np.all(g.values > 0.0)
        assert np.all(g.derivs >= -1e-12)

    def test_series_oracle_near_pole(self):
        g = beta_half_profile(0.0)
        f6, _ = pole_series(g.lam, g.grid[:60], order=6)
        assert np.max(np.abs(g.values[:60] - f6)) < 1e-12

    def test_start_slope_vanishes(self):
        for c in (0.0, 0.7):
            g = beta_half_profile(c, step=1e-3)
            assert g.derivs[0] >= 0.0
            assert g.derivs[0] < 2e-3

    def test_positive_at_moderate_zero_angle(self, sol03):
        g = beta_half_profile(0.3)
        assert g.value_and_deriv(sol03.phi0)[0] > 0.0


class TestSerialization:
    def test_round_trip(self):
        p = integrate_profile(-0.5, 0.4, 2.0, step=1e-3)
        text = p.to_text()
        assert text.splitlines()[:5] == ["beta=-0.5", "c=0.4", "step=0.001", "f0=1.0", "normalized=0"]
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=5)
        assert np.array_equal(data[:, 0], p.grid)
        assert np.array_equal(data[:, 1], p.values)
        assert np.array_equal(data[:, 2], p.derivs)
