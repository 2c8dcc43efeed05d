import math

import numpy as np
import pytest

from conefbp.barriers import (
    BarrierConfig,
    admissible_parameter_search,
    decomposition_terms,
    derivative_decomposition,
    gradient_on_zero_set,
    hessian_gradient_inequality,
    laplacian_sign_audit,
    subharmonicity_margin,
    supersolution_lift_check,
)
from conefbp.errors import InvalidParameterError
from conefbp.ode import symmetric_solution

C0_ANCHOR = 0.5884039


@pytest.fixture(scope="module")
def sol002():
    return symmetric_solution(0.02)


class TestLaplacianSignAudit:
    def test_offset_eight_fails_at_the_pole(self):
        ok, worst_phi, worst_val = laplacian_sign_audit(BarrierConfig(c=0.0, M=8.0))
        assert not ok
        assert worst_phi == 0.0
        # bracket at the pole: -(1/4)(M-1) + 2 = +1/4 for M = 8
        assert abs(worst_val - 0.25) < 1e-12

    def test_offset_sixteen_passes(self):
        ok, worst_phi, worst_val = laplacian_sign_audit(BarrierConfig(c=0.0, M=16.0))
        assert ok
        assert abs(worst_val + 1.75) < 1e-12

    def test_huge_offset_passes(self):
        ok, _, worst_val = laplacian_sign_audit(BarrierConfig(c=0.5, M=1024.0))
        assert ok and worst_val < -100.0

    def test_offset_domain(self):
        with pytest.raises(InvalidParameterError):
            BarrierConfig(c=0.0, M=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": 0.02, "M": math.nan},
            {"c": 0.02, "M": math.inf},
            {"c": math.nan, "M": 16.0},
            {"c": math.inf, "M": 16.0},
            {"c": 0.02, "M": 16.0, "beta": math.nan},
            {"c": 0.02, "M": 16.0, "phi2": math.nan},
        ],
    )
    def test_non_finite_parameters_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError, match="finite"):
            BarrierConfig(**kwargs)


class TestDecomposition:
    def test_matches_derivative_of_zero_set_gradient(self, sol002):
        # finite differences of the closed-form zero-set gradient against
        # the displayed three-term splitting
        c, M = 0.02, 16.0

        def expr(p):
            f, fp = sol002.profile.value_and_deriv(p)
            g = M - math.cos(p)
            return 2.25 * f * f / (1.0 + c * c) + (fp - f * math.sin(p) / g) ** 2

        for p in (0.4, 0.9, 1.3, 1.56):
            h = 1e-6
            fd = (expr(p + h) - expr(p - h)) / (2.0 * h)
            f, fp = sol002.profile.value_and_deriv(p)
            t1, t2, t3 = decomposition_terms(f, fp, p, c, M)
            assert abs(fd - 2.0 * (t1 + t2 + t3)) < 1e-6

    def test_negative_margin_certifies(self, sol002):
        _, margin = derivative_decomposition(BarrierConfig(c=0.02, M=16.0), sol=sol002)
        assert margin < -1e-3

    def test_vanishing_slope_kills_third_term(self):
        phi = np.linspace(0.3, 1.2, 50)
        _, _, t3 = decomposition_terms(np.ones_like(phi), np.zeros_like(phi), phi, 0.1, 16.0)
        assert np.all(t3 == 0.0)

    def test_flat_prefactor_positive_below_equator(self):
        phi = np.linspace(0.05, math.pi / 2.0, 200)
        pref = np.cos(phi) / np.sin(phi) + np.sin(phi) / (16.0 - np.cos(phi))
        assert np.all(pref > 0.0)


class TestZeroSetGradient:
    def test_unit_value_at_free_boundary_angle(self, sol002):
        phi, vals, ok = gradient_on_zero_set(BarrierConfig(c=0.02, M=16.0), sol=sol002)
        assert abs(vals[-1] - 1.0) < 1e-9
        assert ok

    def test_exceeds_one_below_angle(self, sol002):
        phi, vals, _ = gradient_on_zero_set(BarrierConfig(c=0.02, M=16.0), sol=sol002)
        inside = phi < sol002.phi0 - 0.05
        assert np.all(vals[inside] > 1.0)

    def test_super_side_below_one(self, sol002):
        cfg = BarrierConfig(c=0.02, M=16.0, phi2=sol002.phi0 + 0.08)
        _, vals, ok = gradient_on_zero_set(cfg, sol=sol002, side="super")
        assert ok
        assert np.all(vals <= 1.0 + 1e-9)


class TestParameterSearch:
    def test_flat_cone_certifies(self):
        cb, reports = admissible_parameter_search([0.0], num=801)
        assert cb == 0.0
        cert = [r for r in reports if r.certified]
        assert cert and cert[0].config.M == 16.0

    def test_large_slope_does_not_certify(self):
        cb, reports = admissible_parameter_search([10.0], num=401)
        assert cb is None
        assert not any(r.certified for r in reports)

    def test_certified_slope_below_stability_threshold(self):
        grid = [0.0, 0.02, 0.05, 0.1, 0.3]
        cb, _ = admissible_parameter_search(grid, num=801)
        assert cb is not None
        assert 0.0 < cb <= C0_ANCHOR

    def test_certificates_survive_density_doubling(self):
        _, coarse = admissible_parameter_search([0.05], num=801)
        _, fine = admissible_parameter_search([0.05], num=1601)
        assert any(r.certified for r in coarse) == any(r.certified for r in fine)

    def test_certificate_serializes(self):
        _, reports = admissible_parameter_search([0.02], num=401)
        cert = next(r for r in reports if r.certified)
        d = cert.to_dict()
        assert d["c"] == 0.02
        assert d["checks"]["certified"]
        assert d["margins"]["decomposition_margin"] < 0.0


class TestSupersolutionLift:
    def test_flat_cone_matches_linear_lift(self):
        phi2 = 1.63
        rep = supersolution_lift_check(BarrierConfig(c=0.0, M=16.0, phi2=phi2), nr=96, nphi=96)
        k = math.cos(phi2) / (16.0 - math.cos(phi2))
        # plane gradient of the linear lift is 1 + k < 1
        assert abs((1.0 - rep.flat_margin) - (1.0 + k)) < 5e-3
        assert rep.flux_margin > 0.0
        assert rep.lift_gradient_ok
        assert rep.sup_error_linear < 6e-3

    def test_small_slope_margins_positive(self, sol002):
        cfg = BarrierConfig(c=0.02, M=16.0, phi2=sol002.phi0 + 0.1)
        rep = supersolution_lift_check(cfg, nr=96, nphi=96, sol=sol002)
        assert rep.flat_margin > 0.0
        assert rep.flux_margin > 0.0
        assert rep.lift_gradient_ok

    def test_small_offset_flux_fails(self):
        # exact flat-cone flux margin is k[(3/2)cos(phi) - M/2], worst at
        # the north pole: negative for M < 3
        sol = symmetric_solution(0.0)
        phi2 = sol.phi0 + 0.1
        rep = supersolution_lift_check(BarrierConfig(c=0.0, M=1.5, phi2=phi2), nr=96, nphi=96, sol=sol)
        assert not rep.lift_gradient_ok
        k = math.cos(phi2) / (1.5 - math.cos(phi2))
        assert abs(rep.flux_margin - k * (1.5 - 0.75)) < 5e-3

    def test_pasting_angle_validated(self, sol002):
        with pytest.raises(InvalidParameterError):
            supersolution_lift_check(BarrierConfig(c=0.02, M=16.0, phi2=1.0), sol=sol002)


class TestHessianGradient:
    def test_constant_function(self, rng):
        pts = [x / np.linalg.norm(x) for x in rng.normal(size=(20, 3))]
        assert hessian_gradient_inequality(lambda p: 2.5, pts) == 0.0

    def test_degree_one_restriction(self, rng):
        pts = [x / np.linalg.norm(x) for x in rng.normal(size=(200, 3))]
        res = hessian_gradient_inequality(lambda p: p[2] / np.linalg.norm(p), pts)
        assert res >= -1e-6

    def test_random_functions(self, rng):
        pts = [x / np.linalg.norm(x) for x in rng.normal(size=(200, 3))]
        for seed in range(5):
            r = np.random.default_rng(seed)
            a = r.normal(size=3)
            q = r.normal(size=(3, 3))

            def fn(p, a=a, q=q):
                p = np.asarray(p, dtype=float)
                p = p / np.linalg.norm(p)
                return float(a @ p + p @ q @ p)

            assert hessian_gradient_inequality(fn, pts) >= -1e-6


class TestSubharmonicity:
    def test_flat_cosine_margin(self):
        sol = symmetric_solution(0.0)
        margin, loc, at_boundary = subharmonicity_margin(sol, num_points=120)
        # analytic margin for cos(phi) at exponent 1 is 2 cos^2 >= 0
        assert margin >= -1e-6
        assert at_boundary
        assert abs(loc - sol.phi0) < 2e-3

    @pytest.mark.parametrize("c", [0.2, 0.5])
    def test_computed_profiles(self, c):
        sol = symmetric_solution(c)
        margin, loc, at_boundary = subharmonicity_margin(sol, num_points=150)
        assert margin >= -1e-4
        assert at_boundary
        assert abs(loc - sol.phi0) < 2e-3
