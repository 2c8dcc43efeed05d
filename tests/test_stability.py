import math

import numpy as np
import pytest

from conefbp import ode, stability
from conefbp.errors import (
    InvalidBracketError,
    InvalidParameterError,
    InvalidTestFunctionError,
)
from conefbp.ode import symmetric_solution
from conefbp.quadrature import simpson_uniform
from conefbp.stability import (
    SmoothBump,
    find_critical_c0,
    radial_instability_witness,
    stability_margin,
    steklov_min_quotient,
)

from conftest import annulus_steklov_quotient, legendre_series, series_critical_c0

# regression anchor, stable to < 1e-7 under ODE step halving (1e-3 -> 5e-4)
C0_ANCHOR = 0.5884039


class TestStabilityMargin:
    def test_flat_cone_stable_with_zero_curvature(self):
        rep = stability_margin(0.0)
        assert rep.stable
        assert abs(rep.H1) < 1e-8
        # margin at c=0 equals g'(pi/2) of the comparison profile: oracle
        # from the series solution differentiated at the equator
        h = 1e-6
        gp = (legendre_series(-0.25, math.pi / 2 + h) - legendre_series(-0.25, math.pi / 2 - h)) / (2 * h)
        assert abs(rep.margin - gp) < 1e-6
        assert rep.ratio is None
        # the quotient needs curvature, which c = 0 lacks; the margin does not
        assert abs(stability_margin(0.0, step=1e-3).margin - 0.26967630174) < 1e-10

    def test_small_slope_stable(self):
        assert stability_margin(0.05).stable

    def test_large_slope_unstable(self):
        assert not stability_margin(10.0).stable

    @pytest.mark.parametrize(
        "c,margin",
        # c = 2, 5, 10 evaluated at phi0 rather than tau0, which agrees to
        # 1.5e-10 there; at c = 20 and 40, tau0 (101 and 401) lies past the
        # tail end, and the anchors come from a tail marched out to tau0 + 30
        [
            (2.0, -2.3075756602338435),
            (5.0, -587.8775496626289),
            (10.0, -84724406672.2345),
            (20.0, -3.1914951885496933e43),
            (40.0, -6.21315465887955e173),
        ],
    )
    def test_margin_beyond_the_grid_from_tau0(self, c, margin):
        rep = stability_margin(c, step=1e-3)
        assert abs(rep.margin - margin) <= 1e-9 * abs(margin)

    @pytest.mark.parametrize("c", [12.0, 20.0])
    def test_margin_where_phi0_rounds_to_pi(self, c):
        rep = stability_margin(c)
        assert rep.phi0 == math.pi
        assert math.isfinite(rep.margin)
        assert rep.margin < 0.0
        assert not rep.stable

    def test_overflowing_margin_rejected(self):
        # at step 1e-3 the margin at c = 53.27 is still finite (-1.5e308);
        # at 53.28, H1 = 1.7e308 times g(phi0) = 1.125 overflows
        assert math.isfinite(stability_margin(53.27, step=1e-3).margin)
        with pytest.raises(InvalidParameterError, match="slope c = 53.28"):
            stability_margin(53.28, step=1e-3)

    def test_margin_and_ratio_agree(self):
        for c in (0.1, 0.4, 0.7, 2.0):
            rep = stability_margin(c, step=1e-3)
            assert rep.ratio is not None
            assert (rep.margin >= 0.0) == (rep.ratio >= 1.0)
        assert set(rep.to_dict()) == {"c", "phi0", "H1", "g_at_phi0", "gp_at_phi0", "margin", "stable", "ratio"}

    def test_prefix_structure_coarse(self):
        margins = [stability_margin(c, step=1e-3).margin for c in np.linspace(0.0, 10.0, 41)]
        signs = np.sign(margins)
        assert np.count_nonzero(signs[:-1] != signs[1:]) == 1

    @pytest.mark.parametrize(
        "c,ref",
        # the margins of a tail integrated to tau = 37: past tau = 20 the
        # tail is its own straight line to double rounding
        [(10.0, -84724406672.2739), (20.0, -3.1914951885403197e43), (40.0, -6.213154658722404e173)],
    )
    def test_far_pole_margins_keep_the_long_tail_values(self, c, ref):
        assert abs(stability_margin(c, step=1e-3).margin - ref) <= 1e-11 * abs(ref)


class TestCriticalSlope:
    def test_bisection_anchor(self):
        # the benchmark's search: bisection takes 26 margins here, ITP's
        # regula falsi side converges superlinearly on the smooth margin
        record = []
        c0 = find_critical_c0((0.0, 10.0), 1e-6, step=1e-3, record=record)
        assert abs(c0 - C0_ANCHOR) < 2e-6
        assert len(record) <= 12

    def test_matches_series_oracle(self):
        c0 = find_critical_c0((0.0, 10.0), 1e-10, step=1e-3)
        assert abs(c0 - series_critical_c0()) < 1e-8

    def test_bracket_independence(self):
        a = find_critical_c0((0.0, 10.0), 1e-5, step=1e-3)
        b = find_critical_c0((a - 0.1, a + 0.1), 1e-5, step=1e-3)
        assert abs(a - b) <= 2e-5

    def test_margin_signs_straddle_the_root(self):
        c0 = find_critical_c0((0.3, 1.0), 1e-5, step=1e-3)
        assert stability_margin(c0 - 1e-3, step=1e-3).margin > 0.0
        assert stability_margin(c0 + 1e-3, step=1e-3).margin < 0.0

    def test_record_collects_reports(self, monkeypatch):
        # the record holds every margin evaluated, in evaluation order
        evaluated = []

        def counted(*args, **kwargs):
            rep = stability_margin(*args, **kwargs)
            evaluated.append(rep)
            return rep

        monkeypatch.setattr(stability, "stability_margin", counted)
        record = []
        tol = 1e-2
        c0 = find_critical_c0((0.0, 2.0), tol, step=1e-3, record=record)
        assert len(record) == len(evaluated) >= 3
        assert all(r is e for r, e in zip(record, evaluated))
        assert [r.c for r in record[:2]] == [0.0, 2.0]
        # the last positive and last nonpositive margins bracket c0 within tol
        lo = [r.c for r in record if r.margin > 0.0][-1]
        hi = [r.c for r in record if r.margin <= 0.0][-1]
        assert lo < c0 < hi and hi - lo <= tol
        assert lo < C0_ANCHOR < hi

    @pytest.mark.parametrize("bracket", [(0.0, 10.0), (0.3, 1.0), (0.0, 2.0)])
    @pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-10])
    def test_at_most_bisection_plus_one(self, bracket, tol):
        # bisection takes ceil(log2((hi - lo) / tol)) points after the two
        # ends; ITP's projection onto its shrinking radius adds at most one
        record = []
        c0 = find_critical_c0(bracket, tol, step=1e-3, record=record)
        assert len(record) <= math.ceil(math.log2((bracket[1] - bracket[0]) / tol)) + 3
        assert abs(c0 - C0_ANCHOR) < max(tol, 2e-6)

    def test_tol_below_the_double_spacing_stops(self, monkeypatch):
        # at tol = 1e-300 the midpoint lands on a bracket end once the
        # bracket is one ulp wide; the search must stop there.  At the
        # smallest subnormal tol, (hi - lo) / tol overflows, so ITP's radius
        # must not be formed from it
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            if len(calls) > 200:
                raise RuntimeError("search does not stop")
            return stability_margin(*args, **kwargs)

        monkeypatch.setattr(stability, "stability_margin", counted)
        for tol in (1e-300, math.ulp(0.0)):
            record = []
            c0 = find_critical_c0((0.0, 10.0), tol, step=1e-3, record=record)
            assert abs(c0 - C0_ANCHOR) < 2e-6
            # bisection takes 59 margins to two adjacent doubles from (0, 10)
            assert len(record) <= 60
            # the last bracket is two adjacent doubles
            lo = max(r.c for r in record if r.margin > 0.0)
            hi = min(r.c for r in record if r.margin <= 0.0)
            assert math.nextafter(lo, math.inf) == hi and c0 in (lo, hi)

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracketError):
            find_critical_c0((2.0, 10.0), 1e-3, step=1e-3)  # both unstable
        with pytest.raises(InvalidParameterError):
            find_critical_c0((1.0, 0.5), 1e-3)
        for tol in (math.inf, math.nan, 0.0):
            with pytest.raises(InvalidParameterError):
                find_critical_c0((0.3, 1.0), tol)


class TestRadialWitness:
    def test_zero_function(self):
        lhs, rhs = radial_instability_witness(0.3, lambda r: np.zeros_like(np.asarray(r, dtype=float)))
        assert lhs == 0.0 and rhs == 0.0

    def test_surface_integral_exact_form(self):
        # direct quadrature equals 2 pi |t0| int F^2: the c-dependence is
        # exactly the |t0| factor
        F = SmoothBump(0.2, 0.9)
        r = np.linspace(0.0, 1.0, 4097)
        int_f2 = simpson_uniform(F(r) ** 2, r[1] - r[0])
        for c in (0.1, 0.5, 1.0, 2.0):
            sol = symmetric_solution(c, step=1e-3)
            lhs, _ = radial_instability_witness(c, F, step=1e-3)
            assert abs(lhs - 2.0 * math.pi * abs(sol.t0) * int_f2) < 1e-8 * max(lhs, 1e-3)

    def test_bulk_integral_against_tensor_quadrature(self):
        # the exact angular factor 1 - t0 against composite Simpson on 513
        # angles, whose error is at most (pi/512)^4/180 = 7.9e-12 relative
        F = SmoothBump(0.2, 0.9)
        r = np.linspace(0.0, 1.0, 4097)
        for c in (0.1, 2.0, 8.0):
            sol = symmetric_solution(c, step=1e-3)
            phi = np.linspace(0.0, sol.phi0, 513)
            radial = simpson_uniform(F.deriv(r) ** 2 * r**2, r[1] - r[0]) * 2.0 * math.pi / (1.0 + c * c)
            _, rhs = radial_instability_witness(c, F, step=1e-3)
            assert abs(rhs - radial * simpson_uniform(np.sin(phi), phi[1] - phi[0])) <= 1e-11 * rhs

    def test_normalized_surface_integral_is_slope_invariant(self):
        F = SmoothBump(0.2, 0.9)
        vals = []
        for c in (0.1, 0.5, 1.0, 2.0):
            sol = symmetric_solution(c, step=1e-3)
            lhs, _ = radial_instability_witness(c, F, step=1e-3)
            vals.append(lhs / abs(sol.t0))
        assert max(vals) - min(vals) <= 1e-8 * max(vals)

    def test_bulk_decays_and_crosses(self):
        F = SmoothBump(0.2, 0.9)
        ratios = []
        rhs_vals = []
        for c in (1.0, 2.0, 4.0, 8.0):
            lhs, rhs = radial_instability_witness(c, F, step=1e-3)
            rhs_vals.append(rhs)
            ratios.append(rhs / lhs)
        assert all(b < a for a, b in zip(rhs_vals, rhs_vals[1:]))
        assert ratios[-1] < 1.0  # witnesses instability, upper-bounds c0

    @pytest.mark.parametrize("a,b", [(0.5, 0.2), (-0.1, 0.5), (0.2, 1.5)])
    def test_bump_interval_validated(self, a, b):
        with pytest.raises(InvalidParameterError, match="bump interval"):
            SmoothBump(a, b)

    def test_support_validation(self):
        with pytest.raises(InvalidTestFunctionError):
            radial_instability_witness(0.3, lambda r: np.ones_like(np.asarray(r, dtype=float)))

    def test_supported_function_needs_deriv(self):
        bump = SmoothBump(0.2, 0.9)
        with pytest.raises(InvalidTestFunctionError, match="deriv"):
            radial_instability_witness(0.3, lambda r: bump(r))

    @pytest.mark.parametrize("bad", ["value", "deriv"])
    def test_non_finite_function_rejected(self, bad):
        # a NaN value on the support once slipped past the support check
        # (a NaN peak compares false); an inf slope gave non-finite integrals
        bump = SmoothBump(0.2, 0.9)

        class Broken:
            def __call__(self, r):
                v = bump(r)
                return np.where(v > 0.0, np.nan, v) if bad == "value" else v

            def deriv(self, r):
                d = bump.deriv(r)
                return np.where(bump(r) > 0.0, np.inf, d) if bad == "deriv" else d

        with pytest.raises(InvalidTestFunctionError, match="finite"):
            radial_instability_witness(0.3, Broken(), step=1e-3)


class TestSecondVariationDeficit:
    # the radial second variation is rhs - lhs of the radial witness: the
    # metric Dirichlet integral minus the free-boundary surface integral

    def test_flat_cone_nonnegative(self):
        lhs, rhs = radial_instability_witness(0.0, SmoothBump(0.3, 0.8))
        assert rhs - lhs >= -1e-12

    def test_small_slope_random_tests(self, rng):
        for _ in range(12):
            a = rng.uniform(0.05, 0.8)
            b = rng.uniform(a + 0.1, 0.95)
            lhs, rhs = radial_instability_witness(0.05, SmoothBump(a, b), step=1e-3)
            assert rhs - lhs >= -1e-8

    def test_large_slope_radial_witness_is_negative(self):
        lhs, rhs = radial_instability_witness(8.0, SmoothBump(0.3, 0.8))
        assert rhs - lhs < 0.0

    def test_support_checked(self):
        # a bump reaching either end of the radial interval is rejected
        for a, b in ((0.0, 0.5), (0.5, 1.0)):
            with pytest.raises(InvalidTestFunctionError):
                radial_instability_witness(0.1, SmoothBump(a, b))


class TestSteklov:
    def test_matches_closed_form_structure(self):
        # small grids for speed: the minimum sits above the closed form
        # (end truncation) and decreases as the annulus widens
        closed = stability_margin(0.2).ratio
        lam8 = steklov_min_quotient(0.2, 8.0, num_r=97, num_phi=49)
        lam16 = steklov_min_quotient(0.2, 16.0, num_r=97, num_phi=49)
        assert lam8 > lam16 > closed

    @pytest.mark.parametrize("c", [0.2, 0.5, 1.0])
    def test_ratio_matches_series_quotient(self, c):
        # the R = inf quotient of the series oracle (mu = 1/4) shares no
        # code with the RK4 profiles behind the closed-form ratio
        exact = annulus_steklov_quotient(c, math.inf)
        assert abs(stability_margin(c).ratio / exact - 1.0) <= 1e-6

    def test_requires_positive_curvature(self):
        with pytest.raises(InvalidParameterError):
            steklov_min_quotient(0.0, 8.0)
        with pytest.raises(InvalidParameterError):
            steklov_min_quotient(0.2, 2.0)

    @pytest.mark.parametrize(
        "c, R, grid",
        [
            (0.0, 8.0, (65, 33)),
            (-0.2, 8.0, (65, 33)),
            (math.nan, 8.0, (65, 33)),
            (math.inf, 8.0, (65, 33)),
            (0.2, 2.0, (65, 33)),
            (0.2, math.nan, (65, 33)),
            (0.2, math.inf, (65, 33)),
            (0.2, 8.0, (2, 33)),
            (0.2, 8.0, (65, 1)),
        ],
    )
    def test_entry_points_validate_inputs(self, c, R, grid):
        with pytest.raises(InvalidParameterError):
            steklov_min_quotient(c, R, num_r=grid[0], num_phi=grid[1])

    @staticmethod
    def _dense_forms(c, R, num_r, num_phi):
        # the discrete form assembled edge by edge on the free nodes:
        # returns (A, B, rho, phi) with the Dirichlet and boundary-mass
        # matrices restricted to the interior radii
        sol = symmetric_solution(c, step=1e-3)
        rho = np.linspace(-math.log(R), math.log(R), num_r)
        phi = np.linspace(0.0, sol.phi0, num_phi)
        drho, dphi = rho[1] - rho[0], phi[1] - phi[0]
        rho_w = np.full(num_r, drho)
        rho_w[[0, -1]] *= 0.5
        phi_w = np.full(num_phi, dphi)
        phi_w[[0, -1]] *= 0.5
        n = num_r * num_phi
        A = np.zeros((n, n))
        B = np.zeros((n, n))

        def edge(p, q, w):
            A[p, p] += w
            A[q, q] += w
            A[p, q] -= w
            A[q, p] -= w

        for i in range(num_r):
            for j in range(num_phi):
                p = i * num_phi + j
                if i + 1 < num_r:
                    r_mid = math.exp(0.5 * (rho[i] + rho[i + 1]))
                    edge(p, p + num_phi, r_mid * math.sin(phi[j]) * phi_w[j] / ((1.0 + c * c) * drho))
                if j + 1 < num_phi:
                    s_mid = math.sin(0.5 * (phi[j] + phi[j + 1]))
                    edge(p, p + 1, math.exp(rho[i]) * rho_w[i] * s_mid / dphi)
            B[i * num_phi + num_phi - 1, i * num_phi + num_phi - 1] = abs(sol.t0) * math.exp(rho[i]) * rho_w[i]
        free = np.arange(num_phi, n - num_phi)
        return A[np.ix_(free, free)], B[np.ix_(free, free)], rho, phi

    @classmethod
    def _dense_min_quotient(cls, c, R, num_r, num_phi):
        # minimized by a dense generalized eigensolve
        Af, Bf, _, _ = cls._dense_forms(c, R, num_r, num_phi)
        return 1.0 / np.linalg.eigvals(np.linalg.solve(Af, Bf)).real.max()

    def test_trial_function_upper_bounds_minimum(self):
        # Rayleigh principle: the quotient of any trial vanishing at the
        # ends is at least the minimum
        lam = steklov_min_quotient(0.2, 8.0, num_r=17, num_phi=9)
        Af, Bf, rho, phi = self._dense_forms(0.2, 8.0, 17, 9)
        width = rho[-1] - rho[0]
        ramp = np.minimum(1.0, 5.0 * np.minimum(rho - rho[0], rho[-1] - rho) / width)
        x = np.outer(ramp, np.exp(0.2 * np.cos(phi)))[1:-1].ravel()
        q = (x @ Af @ x) / (x @ Bf @ x)
        assert q >= lam - 1e-9
        assert q > lam * (1.0 + 1e-6)  # the ramp is not the minimizer

    @pytest.mark.parametrize(
        "c, R, num_r, num_phi",
        [(0.2, 8.0, 9, 7), (0.5, 4.0, 3, 2), (2.0, 1e3, 33, 9), (10.0, 32.0, 17, 5)],
    )
    def test_matches_dense_generalized_eigensolve(self, c, R, num_r, num_phi):
        oracle = self._dense_min_quotient(c, R, num_r, num_phi)
        lam = steklov_min_quotient(c, R, num_r=num_r, num_phi=num_phi, step=1e-3)
        assert abs(lam / oracle - 1.0) <= 1e-10, (lam, oracle)

    def test_radial_grid_of_a_million_cells(self):
        # no radial array is built: 2^20 cells cost what 256 do, and the
        # fine radial grid leaves the angular error of 513 nodes
        lam = steklov_min_quotient(0.2, 32.0, num_r=2**20 + 1, num_phi=513, step=1e-3)
        assert abs(lam - annulus_steklov_quotient(0.2, 32.0)) <= 1e-7

    @pytest.mark.parametrize("c", [0.2, 1.0, 5.0])
    def test_report_reuses_its_solution(self, monkeypatch, c):
        # a solution built with the library default serves both reports,
        # which return the bits they build for themselves
        lam = steklov_min_quotient(c, 32.0)
        rep = stability_margin(c)
        sol = symmetric_solution(c)
        monkeypatch.setattr(ode, "symmetric_solution", None)
        assert steklov_min_quotient(c, 32.0, sol=sol) == lam
        assert stability_margin(c, sol=sol) == rep

    def test_given_solution_is_used_and_checked(self, monkeypatch):
        sol = symmetric_solution(0.2, step=1e-3)
        lam = steklov_min_quotient(0.2, 32.0, step=1e-3)
        rep = stability_margin(0.2, step=1e-3)
        monkeypatch.setattr(ode, "symmetric_solution", None)
        assert steklov_min_quotient(0.2, 32.0, step=1e-3, sol=sol) == lam
        assert stability_margin(0.2, step=1e-3, sol=sol) == rep
        # the default step is 2^-13, so a step-1e-3 solution needs its step named
        for c, step in ((0.3, 1e-3), (0.2, 2.0**-10), (0.2, None)):
            kwargs = {} if step is None else {"step": step}
            with pytest.raises(InvalidParameterError, match="given solution"):
                steklov_min_quotient(c, 32.0, sol=sol, **kwargs)
            with pytest.raises(InvalidParameterError, match="given solution"):
                stability_margin(c, sol=sol, **kwargs)

    @pytest.mark.parametrize("R", [1e3, 1e6])
    def test_large_annulus_matches_series_oracle(self, R):
        exact = annulus_steklov_quotient(0.2, R)
        assert abs(steklov_min_quotient(0.2, R) / exact - 1.0) <= 1e-3

    def test_second_order_grid_convergence(self):
        exact = annulus_steklov_quotient(0.2, 32.0)
        coarse = abs(steklov_min_quotient(0.2, 32.0, num_r=257, num_phi=129) - exact)
        fine = abs(steklov_min_quotient(0.2, 32.0, num_r=513, num_phi=257) - exact)
        assert 3.0 <= coarse / fine <= 5.0, (coarse, fine)
