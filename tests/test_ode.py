import io
import math
import tracemalloc

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
    symmetric_solution,
)
from conefbp.stability import stability_margin

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
        # first grid samples match the series oracle to O(step^4); at the
        # default step the second-order start's truncation sits below
        # double rounding, so the bound is the rounding floor
        p = integrate_profile(-0.5, 0.0, 2.0, step=DEFAULT_STEP)
        fs = np.array([legendre_series(p.lam, x) for x in p.grid[:40]])
        fps = np.array([legendre_series_deriv(p.lam, x) for x in p.grid[:40]])
        assert np.max(np.abs(p.values[:40] - fs)) < max(1e-12, 20.0 * DEFAULT_STEP**4)
        assert np.max(np.abs(p.derivs[:40] - fps)) < max(1e-12, 20.0 * DEFAULT_STEP**3)
        # at a coarse step the start truncation dominates: the deviation is
        # the propagated fourth-order series remainder, still O(step^4)
        coarse = integrate_profile(-0.5, 0.0, 2.0, step=1e-3)
        fsc = np.array([legendre_series(coarse.lam, x) for x in coarse.grid[:40]])
        assert np.max(np.abs(coarse.values[:40] - fsc)) < 1e3 * 1e-3**4 + 1e-12

    def test_step_halving_agreement(self):
        coarse = integrate_profile(1.0, 1.0, 2.2, step=DEFAULT_STEP, verify=False)
        fine = integrate_profile(1.0, 1.0, 2.2, step=DEFAULT_STEP / 2.0, verify=False)
        idx = 10 + 2 * np.arange(len(coarse.grid))
        assert np.max(np.abs(coarse.values - fine.values[idx])) <= 1e-9
        assert np.max(np.abs(coarse.derivs - fine.derivs[idx])) <= 1e-9

    def test_halving_guard_fires(self, monkeypatch):
        rk4_halved = ode._rk4_halved

        def perturbed(lam, step, phi_max):
            f, fp = rk4_halved(lam, step, phi_max)
            # only the h/2 run moves, by ten times the halving tolerance
            return f + 1e-8, fp

        monkeypatch.setattr(ode, "_rk4_halved", perturbed)
        with pytest.raises(ConvergenceFailureError) as info:
            integrate_profile(1.0, 0.3, 2.2)
        log = dict(info.value.log)
        assert set(log) == {"sup_df", "sup_dfp"}
        assert abs(log["sup_df"] - 1e-8) <= 1e-9
        assert log["sup_dfp"] <= 1e-9

    def test_memory_peak_of_a_fine_profile(self, monkeypatch):
        # bounds the temporaries of the step-halving rerun, which
        # symmetric_solution runs at the default step
        monkeypatch.setattr(ode, "_MEMO", {})
        tracemalloc.start()
        try:
            integrate_profile(1.0, 0.3, 2.2, step=2.0**-14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 2**20

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

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -3.0, 1000.0])
    def test_bad_tail_coordinates_rejected(self, tau):
        # -3.0 lies short of the tail, which starts at log tan(1.1) = 0.675;
        # cosh(1000.0) overflows
        p = integrate_profile(-0.5, 0.3, 2.2, step=1e-3)
        p.value_and_deriv_at_tau(5.0)
        with pytest.raises(InvalidParameterError, match="beyond the grid end"):
            p.value_and_deriv_at_tau(tau)

    def test_tail_built_once(self):
        # the tail runs from the grid end to _TAIL_END whatever is asked of it
        p = integrate_profile(-0.5, 0.3, 2.2)
        p.value_and_deriv_at_tau(5.0)
        tau = p._tail[0]
        h = 40.0 * DEFAULT_STEP
        assert tau.size == math.ceil((ode._TAIL_END - ode.tau_of_phi(2.2)) / h) + 1
        assert ode._TAIL_END <= tau[-1] < ode._TAIL_END + h
        p.value_and_deriv_at_tau(700.0)
        p.sample([math.pi - 1e-15])
        assert p._tail[0] is tau

    @pytest.mark.parametrize("beta,c", [(-0.5, 0.3), (1.0, 3.0)])
    def test_straight_line_past_the_tail_end(self, beta, c):
        # reference: the scalar RK4 march of u'' = -lam sech^2(tau) u from
        # the grid end to tau ~ 100, far past the tail end
        p = integrate_profile(beta, c, 2.2, step=1e-3)
        phi = float(p.grid[-1])
        tau0 = ode.tau_of_phi(phi)
        h = 40.0 * p.step
        n = math.ceil((100.0 - tau0) / h)
        q = [-p.lam / math.cosh(tau0 + 0.5 * h * k) ** 2 for k in range(2 * n + 1)]
        ys, yps = scalar_rk4(float(p.values[-1]), float(p.derivs[-1]) * math.sin(phi), h, [0.0] * len(q), q)
        tau = tau0 + n * h
        f, fp = p.value_and_deriv_at_tau(tau)
        assert abs(f - ys[-1]) <= 1e-12 * abs(ys[-1])
        assert abs(fp - yps[-1] * math.cosh(tau)) <= 1e-12 * abs(yps[-1] * math.cosh(tau))

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
        with pytest.raises(InvalidParameterError, match="too short"):
            integrate_profile(1.0, 0.0, 0.015, step=1e-3)
        # the symmetric solution's grid ends at PHI_CAP whatever the step
        with pytest.raises(InvalidParameterError, match="step must lie"):
            symmetric_solution(0.3, step=math.inf)
        # c * c overflows above ~1.3e154, which would make lam = 0
        with pytest.raises(InvalidParameterError, match="overflows"):
            symmetric_solution(1e155)
        with pytest.raises(InvalidParameterError, match="overflows"):
            beta_half_profile(1e300)

    def test_step_count_bounded_before_allocation(self, monkeypatch):
        # 2.2e12 steps would ask numpy for 16 TiB; the bound of 2^20 steps
        # on [10 step, phi_max] rejects them before any array is made
        monkeypatch.setattr(ode, "_rk4_angular", None)
        for step, phi_max in ((1e-12, 2.2), (2e-6, 2.2), (1e-7, 0.5)):
            with pytest.raises(InvalidParameterError, match="more than 1048576"):
                integrate_profile(1.0, 0.3, phi_max, step=step)
        assert ode._angular_steps(2.1e-6, 2.2) <= 2**20


def _close_to(ref, got, rel=1e-12):
    ref = np.asarray(ref)
    return np.max(np.abs(np.asarray(got) - ref)) <= rel * np.max(np.abs(ref))


class TestRk4Kernel:
    """The step-matrix kernel against the scalar stage loop in conftest."""

    @pytest.mark.parametrize("beta", [1.0, -0.5])
    @pytest.mark.parametrize("c", [0.0, 1.0, 7.0])
    @pytest.mark.parametrize("step", [1e-3, 2.0**-13])
    # at blocks of at most 1024 steps, one run inside a single block and
    # one of three blocks, the last one partial; both stay below pi at
    # step 1e-3
    @pytest.mark.parametrize("n", [500, 2185])
    def test_angular_chart(self, monkeypatch, beta, c, step, n):
        monkeypatch.setattr(ode, "_BLOCK", 1024)
        lam = beta * (beta + 1.0) / (1.0 + c * c)
        phi_eps = 10.0 * step
        grid, f, fp = ode._rk4_angular(lam, step, (10 + n) * step)
        assert len(grid) == n + 1 and grid[-1] < 2.2
        p = [-1.0 / math.tan((10.0 + 0.5 * k) * step) for k in range(2 * n + 1)]
        y0 = 1.0 - 0.25 * lam * phi_eps * phi_eps
        ys, yps = scalar_rk4(y0, -0.5 * lam * phi_eps, step, p, [-lam] * len(p))
        assert _close_to(ys, f) and _close_to(yps, fp)

    @pytest.mark.parametrize("beta", [1.0, -0.5])
    @pytest.mark.parametrize("c", [0.0, 1.0, 7.0])
    # even and odd half-step counts within one block at both steps, and at
    # the default step an odd run of three blocks (8197 pair steps)
    @pytest.mark.parametrize(
        "step,half_steps",
        [(1e-3, 4000), (1e-3, 4001), (2.0**-13, 4000), (2.0**-13, 4001), (2.0**-13, 16395)],
    )
    def test_halved_run(self, beta, c, step, half_steps):
        # the paired rerun against the scalar loop at step/2, every second node
        lam = beta * (beta + 1.0) / (1.0 + c * c)
        h = 0.5 * step
        f, fp = ode._rk4_halved(lam, step, (10 + half_steps) * h)
        assert len(f) == half_steps // 2 + 1
        p = [-1.0 / math.tan((10.0 + 0.5 * k) * h) for k in range(2 * half_steps + 1)]
        y0 = 1.0 - 0.25 * lam * (10.0 * h) ** 2
        ys, yps = scalar_rk4(y0, -0.5 * lam * 10.0 * h, h, p, [-lam] * len(p))
        assert _close_to(ys[::2], f) and _close_to(yps[::2], fp)

    @pytest.mark.parametrize("m", [1, 2, ode._SPAN - 1, ode._SPAN, ode._SPAN + 1, 4101])
    def test_prefix_product(self, m):
        # near-identity matrices I + e against plain sequential application
        e = 1e-3 * np.random.default_rng(m).standard_normal((2, 2, m))
        got = ode._apply(e, 0.7, -0.4)
        y, yp = 0.7, -0.4
        ys, yps = [], []
        for (a, b), (c, d) in (np.eye(2) + e.transpose(2, 0, 1)).tolist():
            y, yp = a * y + b * yp, c * y + d * yp
            ys.append(y)
            yps.append(yp)
        assert got.shape == (2, m)
        assert _close_to(ys, got[0], rel=1e-13) and _close_to(yps, got[1], rel=1e-13)

    @pytest.mark.parametrize("chart", ["angular", "tail"])
    @pytest.mark.parametrize("step", [1e-3, 2.0**-14])
    @pytest.mark.parametrize("lam", [2.0, -0.25, 0.01])
    def test_deviations_against_extended_precision(self, chart, step, lam):
        # every step of a whole run: the deviations of I + E(lam) against one
        # long-double step of the scalar stage loop from (1, 0) and (0, 1),
        # all steps at once as arrays
        if chart == "angular":
            h = step
            n = int((2.2 - 10.0 * h) / h)
            p = -1.0 / np.tan((10.0 + 0.5 * np.arange(2 * n + 1)) * h)
            sigma = np.ones_like(p)
            dev = ode._deviations(ode._coefficients(h, p, 1.0), lam)
        else:
            h = 40.0 * step
            n = math.ceil((ode._TAIL_END - 0.675) / h)
            p = np.zeros(2 * n + 1)
            sigma = 1.0 / np.cosh(0.675 + 0.5 * h * np.arange(2 * n + 1)) ** 2
            dev = ode._deviations(ode._coefficients(h, 0.0, sigma), lam)
        ld = np.longdouble
        thirds = [[x[:-1:2], x[1::2], x[2::2]] for x in (p.astype(ld), -ld(lam) * sigma.astype(ld))]
        one, zero = np.ones(n, dtype=ld), np.zeros(n, dtype=ld)
        (_, a), (_, c) = scalar_rk4(one, zero, ld(h), *thirds)
        (_, b), (_, d) = scalar_rk4(zero, one, ld(h), *thirds)
        # the oracle forms a and d as 1 + x in long double, so a - 1 and
        # d - 1 carry up to 2^-64 of its rounding: four times that is their
        # floor (a double-precision 1 + x carries up to 2^-53)
        for (i, j), ref in (((0, 0), a - 1), ((0, 1), b), ((1, 0), c), ((1, 1), d - 1)):
            floor = 2.0**-62 if i == j else 0.0
            err = np.max(np.abs(dev[i, j] - ref))
            assert err <= max(1e-14 * np.max(np.abs(ref)), floor), (i, j, err)

    @pytest.mark.parametrize("lam", [2.0, -0.25, 0.01])
    def test_pair_polynomial_against_extended_precision(self, monkeypatch, lam):
        # every pair step of the stored rerun polynomial at step 1e-3: its
        # deviation from I against the long-double product of two half
        # steps of the scalar stage loop, from (1, 0) and (0, 1)
        monkeypatch.setattr(ode, "_MEMO", {})
        integrate_profile(1.0, 0.3, 2.2, step=1e-3)
        h = 5e-4
        n = ode._angular_steps(h, 2.2) // 2
        dev = ode._deviations(ode._MEMO[("pairs", h, n)], lam)
        assert dev.shape == (2, 2, n)
        ld = np.longdouble
        x = -1.0 / np.tan((10.0 + 0.5 * np.arange(4 * n + 1)) * h)
        p = x.astype(ld)
        q = np.full(4 * n + 1, -ld(lam))
        # half step A on half-nodes 4j .. 4j + 2, B on 4j + 2 .. 4j + 4
        first = [[v[0:-1:4], v[1::4], v[2::4]] for v in (p, q)]
        second = [[v[2::4], v[3::4], v[4::4]] for v in (p, q)]
        one, zero = np.ones(n, dtype=ld), np.zeros(n, dtype=ld)
        (_, a), (_, c) = scalar_rk4(one, zero, ld(h), *first)
        (_, b), (_, d) = scalar_rk4(zero, one, ld(h), *first)
        (_, a), (_, c) = scalar_rk4(a, c, ld(h), *second)
        (_, b), (_, d) = scalar_rk4(b, d, ld(h), *second)
        # the floor of test_deviations_against_extended_precision
        for (i, j), ref in (((0, 0), a - 1), ((0, 1), b), ((1, 0), c), ((1, 1), d - 1)):
            floor = 2.0**-62 if i == j else 0.0
            err = np.max(np.abs(dev[i, j] - ref))
            assert err <= max(1e-14 * np.max(np.abs(ref)), floor), (i, j, err)

    @pytest.mark.parametrize("beta", [1.0, -0.5])
    @pytest.mark.parametrize("c", [0.0, 0.5884, 3.0, 40.0])
    def test_stored_rerun_against_evaluate_then_multiply(self, monkeypatch, beta, c):
        # the one array whose last bits may depend on the memo
        lam = beta * (beta + 1.0) / (1.0 + c * c)
        monkeypatch.setattr(ode, "_MEMO", {})
        monkeypatch.setattr(ode, "_MEMO_CAP", 0)
        cold = ode._rk4_halved(lam, 1e-3, 2.2)
        assert not ode._MEMO
        monkeypatch.setattr(ode, "_MEMO_CAP", 2**20)
        warm = ode._rk4_halved(lam, 1e-3, 2.2)
        assert list(ode._MEMO) == [("pairs", 5e-4, 2195)]
        for a, b in zip(cold, warm):
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a))

    @pytest.mark.parametrize("beta,c", [(1.0, 0.3), (-0.5, 1.0), (2.0, 0.0)])
    def test_stored_run_against_scalar_loop_in_long_double(self, beta, c):
        # the whole stored run (36,034 steps) against the scalar stage loop
        # run in long double from the same double start and coefficients
        step = 2.0**-14
        lam = beta * (beta + 1.0) / (1.0 + c * c)
        grid, f, fp = ode._rk4_angular(lam, step, 2.2)
        n = len(grid) - 1
        ld = np.longdouble
        p = (-1.0 / np.tan((10.0 + 0.5 * np.arange(2 * n + 1)) * step)).astype(ld)
        phi_eps = 10.0 * step
        y0 = 1.0 - 0.25 * lam * phi_eps * phi_eps
        ys, yps = scalar_rk4(ld(y0), ld(-0.5 * lam * phi_eps), ld(step), p, np.full(2 * n + 1, -ld(lam)))
        ys, yps = np.array(ys), np.array(yps)
        assert np.max(np.abs(f - ys)) <= 1e-14 * np.max(np.abs(ys))
        assert np.max(np.abs(fp - yps)) <= 1e-14 * np.max(np.abs(yps))

    @pytest.mark.parametrize("beta,c", [(1.0, 0.3), (-0.5, 1.0), (2.0, 0.0)])
    def test_stored_run_against_extended_precision(self, beta, c):
        # the package's own step matrices I + E(lam), formed and applied in
        # turn in long double; the kernel must apply them about as well as
        # rounding allows (36,034 steps)
        step = 2.0**-14
        lam = beta * (beta + 1.0) / (1.0 + c * c)
        grid, f, fp = ode._rk4_angular(lam, step, 2.2)
        n = len(grid) - 1
        co = ode._coefficients(step, ode._angular_p(step, 0, 2 * n + 1), 1.0).astype(np.longdouble)
        lam_ld = np.longdouble(lam)
        mats = np.eye(2, dtype=np.longdouble)[:, :, None] + co[0] + lam_ld * (co[1] + lam_ld * co[2])
        (a, b), (cc, d) = mats
        y, yp = (np.longdouble(v) for v in ode._pole_series(lam, 10.0 * step))
        ys = np.empty(n + 1, dtype=np.longdouble)
        yps = np.empty(n + 1, dtype=np.longdouble)
        ys[0], yps[0] = y, yp
        for k in range(n):
            y, yp = a[k] * y + b[k] * yp, cc[k] * y + d[k] * yp
            ys[k + 1], yps[k + 1] = y, yp
        assert np.max(np.abs(f - ys)) <= 5e-15 * np.max(np.abs(ys))
        assert np.max(np.abs(fp - yps)) <= 5e-15 * np.max(np.abs(yps))

    def test_tail_piece(self):
        # the tail chart through the driver, two blocks with a partial last one
        lam = 1.0
        h = 40.0 * DEFAULT_STEP
        n = ode._BLOCK + 137
        tau = [0.5 + 0.5 * h * k for k in range(2 * n + 1)]
        q = [-lam / math.cosh(t) ** 2 for t in tau]
        ys, yps = scalar_rk4(-0.6, -0.4, h, [0.0] * len(q), q)
        sigma = np.array([1.0 / math.cosh(t) ** 2 for t in tau])

        def steps(s, e):
            return ode._deviations(ode._coefficients(h, 0.0, sigma[2 * s : 2 * e + 1]), lam)

        u, up = ode._run(-0.6, -0.4, n, steps)
        assert len(u) == n + 1
        assert _close_to(ys, u) and _close_to(yps, up)

    @pytest.mark.parametrize("step", [1e-3, 2.0**-13])
    def test_runs_independent_of_block_size(self, monkeypatch, step):
        # blocks start on span ends, so the block size moves no bit of the
        # stored angular run, its tail or the paired halving rerun; a warm
        # memo serves every block size the same stored rerun polynomial at
        # step 1e-3, and at step 2^-13 none is stored
        monkeypatch.setattr(ode, "_MEMO", {})
        integrate_profile(-0.5, 0.3, 2.2, step=step).value_and_deriv_at_tau(5.0)
        assert len(ode._MEMO) == (4 if step == 1e-3 else 0)
        runs = []
        for block in (8, 64, ode._BLOCK):
            monkeypatch.setattr(ode, "_BLOCK", block)
            p = integrate_profile(-0.5, 0.3, 2.2, step=step, verify=False)
            runs.append((p.values, p.derivs, *p._tail_nodes()[1:3], *ode._rk4_halved(p.lam, step, 2.2)))
        for run in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(runs[0], run))


class TestCoefficientMemo:
    """Whole single-block runs' lam-free coefficients, kept across runs as read-only arrays."""

    @pytest.mark.parametrize("c", [0.0, 0.5884, 3.0, 40.0])
    def test_margins_bitwise_equal_cold_and_warm(self, monkeypatch, c):
        monkeypatch.setattr(ode, "_MEMO", {})
        monkeypatch.setattr(ode, "_MEMO_CAP", 0)
        cold = stability_margin(c, step=1e-3)
        assert not ode._MEMO
        monkeypatch.undo()
        monkeypatch.setattr(ode, "_MEMO", {})
        stability_margin(0.2, step=1e-3)
        # the angular run, the halving rerun and the grid's -cot; the
        # on-grid margin reads no comparison-profile tail
        assert len(ode._MEMO) == 3
        stability_margin(2.0, step=1e-3)
        stored = dict(ode._MEMO)
        # a far-pole margin adds the tail
        assert len(stored) == 4
        warm = stability_margin(c, step=1e-3)
        assert ode._MEMO.keys() == stored.keys()
        assert all(ode._MEMO[key] is co for key, co in stored.items())
        assert warm.to_dict() == cold.to_dict()

    def test_stays_under_its_cap(self, monkeypatch):
        monkeypatch.setattr(ode, "_MEMO", {})
        stability_margin(0.4, step=1e-3)
        # 2,190 angular steps, the rerun's 2,195 pair steps and the 2,191
        # grid nodes; the on-grid margin builds no comparison-profile tail
        shapes = {
            ("angular", 1e-3, 2190): (3, 2, 2, 2190),
            ("pairs", 5e-4, 2195): (5, 2, 2, 2195),
            ("cot", 1e-3, 2190): (2191,),
        }
        assert {key: co.shape for key, co in ode._MEMO.items()} == shapes
        assert sum(v.nbytes for v in ode._MEMO.values()) == 578_968
        assert beta_half_profile(0.4, step=1e-3)._tail is None
        # a far-pole margin adds the tail's 484 steps
        stability_margin(2.0, step=1e-3)
        shapes[("tail", 40e-3, ode.tau_of_phi(1e-3 * 2200), 484)] = (3, 2, 2, 484)
        assert {key: co.shape for key, co in ode._MEMO.items()} == shapes
        total = sum(v.nbytes for v in ode._MEMO.values())
        assert total == 625_432 <= ode._MEMO_CAP
        # multi-block runs (the default step and finer) never enter
        for step in (2.0**-13, 2.0**-14):
            stability_margin(0.4, step=step)
        assert {key: co.shape for key, co in ode._MEMO.items()} == shapes
        # a full memo admits nothing more and still serves what it holds
        monkeypatch.setattr(ode, "_MEMO_CAP", total)
        integrate_profile(1.0, 0.4, 2.0, step=1e-3)
        assert sum(v.nbytes for v in ode._MEMO.values()) == total

    def test_stored_arrays_read_only(self, monkeypatch):
        monkeypatch.setattr(ode, "_MEMO", {})
        integrate_profile(-0.5, 0.3, 2.2, step=1e-3).value_and_deriv_at_tau(5.0)
        assert len(ode._MEMO) == 4
        # every block a warm run reads is a view into the memo
        served = []
        deviations = ode._deviations
        monkeypatch.setattr(ode, "_deviations", lambda co, lam: served.append(co) or deviations(co, lam))
        p = integrate_profile(-0.5, 0.3, 2.2, step=1e-3)
        p.value_and_deriv_at_tau(5.0)
        assert len(served) == 3
        assert any(p._p is co for co in ode._MEMO.values())
        for co in [*ode._MEMO.values(), *served]:
            assert any(np.shares_memory(co, kept) for kept in ode._MEMO.values())
            with pytest.raises(ValueError, match="read-only"):
                co[(0,) * co.ndim] = 0.0

    def test_second_derivs_bitwise_equal_cold_and_warm(self, monkeypatch):
        monkeypatch.setattr(ode, "_MEMO", {})
        monkeypatch.setattr(ode, "_MEMO_CAP", 0)
        cold = symmetric_solution(0.3, step=1e-3).profile
        assert cold._p is None
        monkeypatch.undo()
        monkeypatch.setattr(ode, "_MEMO", {})
        symmetric_solution(0.3, step=1e-3)
        warm = symmetric_solution(0.3, step=1e-3).profile
        assert warm._p is not None
        assert np.array_equal(warm.second_derivs(), cold.second_derivs())
        # a profile built by hand forms -cot on its own grid
        hand = ode.RadialProfile(warm.beta, warm.c, warm.grid + 1e-4, warm.values, warm.derivs, warm.f0, warm.step)
        expected = -np.cos(hand.grid) / np.sin(hand.grid) * hand.derivs - hand.lam * hand.values
        assert np.array_equal(hand.second_derivs(), expected)


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

    @pytest.mark.parametrize("c", [0.5, 1.5, 3.0, 10.0])
    def test_zero_location_stops_once_newton_converges(self, c, monkeypatch):
        # on the grid (c = 0.5, 1.5) and in the tail (c = 3, 10): a Newton
        # step that lands on a bracket end must not restart bisection
        p = integrate_profile(1.0, c, 2.2, step=1e-3)
        calls = []
        hermite = ode._hermite

        def counted(*args):
            calls.append(1)
            return hermite(*args)

        monkeypatch.setattr(ode, "_hermite", counted)
        first_zero(p)
        assert len(calls) <= 5

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
        fs = np.array([legendre_series(g.lam, x) for x in g.grid[:60]])
        assert np.max(np.abs(g.values[:60] - fs)) < 1e-12

    def test_start_slope_vanishes(self):
        for c in (0.0, 0.7):
            g = beta_half_profile(c, step=1e-3)
            assert g.derivs[0] >= 0.0
            assert g.derivs[0] < 2e-3

    @pytest.mark.parametrize("step", [1e-3, DEFAULT_STEP])
    @pytest.mark.parametrize("c", [0.0, 0.3, 2.0, 10.0, 53.0])
    def test_tail_positive_and_nondecreasing(self, c, step):
        # beta_half_profile audits the grid only and leaves the tail to
        # convexity; this checks what that argument promises
        g = integrate_profile(-0.5, c, ode.PHI_CAP, step=step)
        _, u, up, _ = g._tail_nodes()
        assert np.all(u > 0.0)
        assert np.all(up >= -1e-12)
        for tau in (ode.tau_of_phi(g.grid[-1]), 5.0, 20.0, 100.0, 700.0):
            f, fp = g.value_and_deriv_at_tau(tau)
            assert f > 0.0
            assert fp >= -1e-12

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
