import math

import numpy as np
import pytest

from conefbp.barriers import (
    DYADIC_OFFSETS,
    BarrierConfig,
    _cut_edges,
    _plane_gradient_sq,
    _zero_set_gradient,
    admissible_parameter_search,
    audit_pair,
    decomposition_terms,
    hessian_gradient_inequality,
    laplacian_sign_audit,
    subharmonicity_margin,
    supersolution_lift_check,
)
from conefbp.errors import InvalidParameterError
from conefbp.grid import make_field
from conefbp.ode import symmetric_solution

C0_ANCHOR = 0.5884039


@pytest.fixture(scope="module")
def sol002():
    return symmetric_solution(0.02)


class TestLaplacianSignAudit:
    def test_offset_eight_fails_at_the_pole(self):
        # bracket at the pole: -(1/4)(M-1) + 2 = +1/4 for M = 8
        worst = laplacian_sign_audit(BarrierConfig(c=0.0, M=8.0))
        assert abs(worst - 0.25) < 1e-12
        assert not audit_pair(0.0, 8.0).laplacian_sign_ok

    def test_offset_sixteen_passes(self):
        assert abs(laplacian_sign_audit(BarrierConfig(c=0.0, M=16.0)) + 1.75) < 1e-12

    def test_huge_offset_passes(self):
        assert laplacian_sign_audit(BarrierConfig(c=0.5, M=1024.0)) < -100.0

    @pytest.mark.parametrize("c", [0.0, 0.02, 0.3, 1.0, 10.0])
    def test_closed_form_equals_sampled_maximum(self, c):
        # the bracket -(M - cos)/(4(1+c^2)) + 2 cos on 10,001 angles; its
        # sign flips at M = 1 + 8(1+c^2)
        phi = np.linspace(0.0, math.pi, 10001)
        threshold = 1.0 + 8.0 * (1.0 + c * c)
        for M in DYADIC_OFFSETS + (threshold * (1.0 - 1e-9), threshold * (1.0 + 1e-9)):
            bracket = -0.25 / (1.0 + c * c) * (M - np.cos(phi)) + 2.0 * np.cos(phi)
            worst = laplacian_sign_audit(BarrierConfig(c=c, M=M))
            assert worst == bracket.max()
            assert (worst <= 0.0) == (M > threshold)

    def test_offset_domain(self):
        with pytest.raises(InvalidParameterError):
            BarrierConfig(c=0.0, M=0.5)

    def test_negative_slope_rejected(self):
        with pytest.raises(InvalidParameterError, match="cone slope"):
            BarrierConfig(c=-1.0, M=16.0)

    def test_overflowing_slope_rejected(self):
        # c * c overflows, which laplacian_sign_audit would hit as a bare OverflowError
        with pytest.raises(InvalidParameterError, match="cone slope squared overflows"):
            BarrierConfig(c=1e200, M=16.0)
        with pytest.raises(InvalidParameterError, match="cone slope squared overflows"):
            audit_pair(1e200, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": 0.02, "M": math.nan},
            {"c": 0.02, "M": math.inf},
            {"c": math.nan, "M": 16.0},
            {"c": math.inf, "M": 16.0},
            {"c": 0.02, "M": 16.0, "phi2": math.inf},
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

    @pytest.mark.parametrize(
        "f,fp,phi,c,M,match",
        [
            (1.0, 0.0, 0.0, 0.1, 1.0, "offset M"),  # g = 0 at the pole: NaN terms
            (1.0, 0.0, 0.0, 0.1, 16.0, "angles"),  # a -inf third term
            (1.0, 0.0, math.pi, 0.1, 16.0, "angles"),
            (1.0, 0.0, math.nan, 0.1, 16.0, "angles"),
            (1.0, 0.0, 0.5, math.nan, 16.0, "finite"),
            (1.0, 0.0, 0.5, -0.1, 16.0, "cone slope"),
            (1.0, 0.0, 0.5, 0.1, 0.5, "offset M"),  # g = M - cos(phi) <= 0 near the pole
            (1.0, 0.0, 0.5, 0.1, math.inf, "finite"),
            (math.nan, 0.0, 0.5, 0.1, 16.0, "finite"),
            (1.0, math.inf, 0.5, 0.1, 16.0, "finite"),
            ([1.0, math.nan], [0.0, 0.0], [0.5, 0.6], 0.1, 16.0, "finite"),
        ],
        ids=[
            "M1-pole",
            "pole",
            "far-pole",
            "nan-angle",
            "nan-slope",
            "negative-slope",
            "M-below-1",
            "inf-M",
            "nan-f",
            "inf-fp",
            "nan-in-array",
        ],
    )
    def test_invalid_input_rejected(self, f, fp, phi, c, M, match):
        with pytest.raises(InvalidParameterError, match=match):
            decomposition_terms(f, fp, phi, c, M)

    def test_negative_margin_certifies(self, sol002):
        rep = audit_pair(0.02, 16.0, sol=sol002)
        assert rep.decomposition_margin < -1e-3
        assert rep.certified

    def test_mismatched_solution_rejected(self, sol03):
        # a report labelled c = 0.02 must not be built from the c = 0.3 profile
        with pytest.raises(InvalidParameterError, match="slope"):
            audit_pair(0.02, 16.0, sol=sol03)
        # the barrier layer has no step argument: it reads the default-step solution only
        with pytest.raises(InvalidParameterError, match="step"):
            audit_pair(0.02, 16.0, sol=symmetric_solution(0.02, step=1e-3))

    def test_vanishing_slope_kills_third_term(self):
        phi = np.linspace(0.3, 1.2, 50)
        _, _, t3 = decomposition_terms(np.ones_like(phi), np.zeros_like(phi), phi, 0.1, 16.0)
        assert np.all(t3 == 0.0)

    def test_flat_prefactor_positive_below_equator(self):
        phi = np.linspace(0.05, math.pi / 2.0, 200)
        pref = np.cos(phi) / np.sin(phi) + np.sin(phi) / (16.0 - np.cos(phi))
        assert np.all(pref > 0.0)


class TestZeroSetGradient:
    @staticmethod
    def _values(sol, lo, hi):
        phi = np.linspace(lo, hi, 2001)
        f, fp = sol.profile.sample(phi)
        return phi, _zero_set_gradient(BarrierConfig(c=0.02, M=16.0), f, fp, phi)

    def test_unit_value_at_free_boundary_angle(self, sol002):
        # f(phi0) = 0 and |f'(phi0)| = 1, and the gradient exceeds one below phi0
        _, vals = self._values(sol002, 0.02, sol002.phi0)
        assert abs(vals[-1] - 1.0) < 1e-9
        assert abs(audit_pair(0.02, 16.0, sol=sol002).zero_set_min_gradient - 1.0) < 1e-9

    def test_exceeds_one_below_angle(self, sol002):
        phi, vals = self._values(sol002, 0.02, sol002.phi0)
        inside = phi < sol002.phi0 - 0.05
        assert np.all(vals[inside] > 1.0)

    def test_super_side_below_one(self, sol002):
        _, vals = self._values(sol002, sol002.phi0, sol002.phi0 + 0.08)
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

    @pytest.mark.parametrize("num", [0, 1])
    def test_fewer_than_two_angles_rejected(self, num):
        with pytest.raises(InvalidParameterError, match="2 sampled angles"):
            audit_pair(0.02, 16.0, num=num)
        with pytest.raises(InvalidParameterError, match="2 sampled angles"):
            admissible_parameter_search([0.02], num=num)

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
        with pytest.raises(InvalidParameterError, match="phi2"):
            supersolution_lift_check(BarrierConfig(0.1, 16.0))

    def test_mismatched_solution_rejected(self, sol03):
        cfg = BarrierConfig(c=0.02, M=16.0, phi2=sol03.phi0 + 0.1)
        with pytest.raises(InvalidParameterError, match="slope"):
            supersolution_lift_check(cfg, nr=64, nphi=64, sol=sol03)
        with pytest.raises(InvalidParameterError, match="step"):
            supersolution_lift_check(cfg, nr=64, nphi=64, sol=symmetric_solution(0.02, step=1e-3))

    def test_plane_audit_matches_edge_loop(self):
        # the per-edge loop the vectorized audit replaced, kept as its reference
        c, phi2, nr, nphi = 0.02, 1.67, 64, 97
        fld = make_field(nr, nphi, c)
        R, P = np.meshgrid(fld.r, fld.phi, indexing="ij")
        psi = R * np.cos(P) - math.cos(phi2)
        inside = psi > 0.0
        v = np.where(inside, psi * (1.0 + 0.3 * R * np.cos(P)), 0.0)
        one = 1.0 + c * c
        dr = np.diff(fld.r)
        dp = fld.phi[1] - fld.phi[0]
        corner_r = 1.0 - 3.0 * float(dr.max())
        cut_r, theta_r = _cut_edges(psi, inside)
        cut_p, theta_p = _cut_edges(psi.T, inside.T)

        def at_cut(a, r, p, radial):
            if r > corner_r:
                return None
            psir, psip = math.cos(p), -r * math.sin(p)
            hyp = math.hypot(psir, psip / r)
            if (abs(psir) if radial else abs(psip / r)) / hyp < 0.25:
                return None
            norm_psi = math.sqrt(psir * psir / one + psip * psip / (r * r))
            return (a * norm_psi / (abs(psir) if radial else abs(psip))) ** 2

        def slope(v1, v2, s1, s2):
            return (v1 * s2 * s2 - v2 * s1 * s1) / (s1 * s2 * (s2 - s1))

        loop = []
        for i in range(nr - 1):
            for j in range(nphi):
                if cut_r[i, j]:
                    i_in, d = (i, -1) if inside[i, j] else (i + 1, 1)
                    i2 = i_in + d
                    if 0 <= i2 < nr and inside[i2, j]:
                        s1 = theta_r[i, j] * dr[i]
                        s2 = s1 + abs(fld.r[i2] - fld.r[i_in])
                        a = slope(v[i_in, j], v[i2, j], s1, s2)
                        loop.append(at_cut(a, fld.r[i_in] - d * s1, fld.phi[j], True))
        for i in range(nr):
            for j in range(nphi - 1):
                if cut_p[j, i]:
                    j_in, d = (j, -1) if inside[i, j] else (j + 1, 1)
                    j2 = j_in + d
                    if 0 <= j2 < nphi and inside[i, j2]:
                        s1 = theta_p[j, i] * dp
                        a = slope(v[i, j_in], v[i, j2], s1, s1 + dp)
                        loop.append(at_cut(a, fld.r[i], fld.phi[j_in] - d * s1, False))
        loop = np.sort([x for x in loop if x is not None])
        dps = np.full(nphi - 1, dp)
        vec = np.concatenate(
            [
                _plane_gradient_sq(v, inside, cut_r, theta_r, fld.r, dr, fld.phi, one, corner_r, radial=True),
                _plane_gradient_sq(v.T, inside.T, cut_p, theta_p, fld.phi, dps, fld.r, one, corner_r, radial=False),
            ]
        )
        assert loop.size > 50
        assert np.array_equal(np.sort(vec), loop)

    def test_no_plane_point_to_audit(self, sol002):
        # the plane x3 = cos(3) meets the ball only next to the sphere, inside the skipped corner band
        with pytest.raises(InvalidParameterError, match="plane point"):
            supersolution_lift_check(BarrierConfig(c=0.02, M=16.0, phi2=3.0), nr=64, nphi=64, sol=sol002)

    def test_no_sphere_column_to_audit(self, sol002):
        # on four angles every column below the pasting angle lies within 2.5 dphi of it
        cfg = BarrierConfig(c=0.02, M=16.0, phi2=sol002.phi0 + 0.1)
        with pytest.raises(InvalidParameterError, match="sphere column"):
            supersolution_lift_check(cfg, nr=64, nphi=4, sol=sol002)


def _quadratic(seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=3)
    q = r.normal(size=(3, 3))
    return lambda p: p @ a + np.einsum("ni,ij,nj->n", p, q, p)


def _sphere(rng, n):
    x = rng.normal(size=(n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestHessianGradient:
    @pytest.fixture
    def pts(self):
        return _sphere(np.random.default_rng(7), 200)

    def test_constant_function(self, rng):
        assert hessian_gradient_inequality(lambda p: np.full(len(p), 2.5), _sphere(rng, 20)) == 0.0

    def test_degree_one_restriction(self, rng):
        assert hessian_gradient_inequality(lambda p: p[:, 2], _sphere(rng, 200)) >= -1e-6

    def test_random_functions(self, rng):
        pts = _sphere(rng, 200)
        for seed in range(5):
            assert hessian_gradient_inequality(_quadratic(seed), pts) >= -1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_function_closed_form(self, pts, seed):
        # u = a.x/|x| has ||Hess u||^2 - 2 |grad u|^2 = 2 (a.x)^2 on the sphere;
        # a has unit length since the stencil's rounding grows like |a|^2
        a = np.random.default_rng(seed).normal(size=3)
        a /= np.linalg.norm(a)
        exact = 2.0 * ((pts @ a) ** 2).min()
        assert abs(hessian_gradient_inequality(lambda p: p @ a, pts) - exact) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_function_closed_form_raw(self, pts, seed):
        # the same closed form with a of the normal draw's length (up to
        # 3.3), where second differences at steps below 1e-3 carry rounding
        # above the bound
        a = np.random.default_rng(seed).normal(size=3)
        exact = 2.0 * ((pts @ a) ** 2).min()
        assert abs(hessian_gradient_inequality(lambda p: p @ a, pts) - exact) < 1e-6

    @pytest.mark.parametrize("n", [1, 1000])
    def test_one_call_per_stencil_point(self, n):
        calls = []

        def fn(p):
            calls.append(len(p))
            return p[:, 0] * p[:, 1]

        hessian_gradient_inequality(fn, _sphere(np.random.default_rng(n), n))
        assert calls == [n] * 38

    @pytest.mark.parametrize(
        "points",
        [[], np.zeros((0, 3)), [1.0, 0.0, 0.0], np.ones((4, 2)), [[0.0, 0.0, 1.0], [math.nan, 0.0, 1.0]]],
        ids=["empty", "no-rows", "flat", "two-columns", "nan"],
    )
    def test_bad_points_rejected(self, points):
        with pytest.raises(InvalidParameterError, match="points"):
            hessian_gradient_inequality(lambda p: p[:, 2], points)

    def test_zero_point_rejected(self, pts):
        with pytest.raises(InvalidParameterError, match="nonzero"):
            hessian_gradient_inequality(lambda p: p[:, 2], np.vstack([pts, np.zeros(3)]))

    @pytest.mark.parametrize(
        "fn",
        [lambda p: 2.5, lambda p: p, lambda p: p[:-1, 2], lambda p: np.full(len(p), math.nan)],
        ids=["scalar", "vectors", "short", "nan"],
    )
    def test_bad_values_rejected(self, pts, fn):
        with pytest.raises(InvalidParameterError, match="finite values"):
            hessian_gradient_inequality(fn, pts)


class TestSubharmonicity:
    def test_flat_cosine_margin(self):
        sol = symmetric_solution(0.0)
        margin, loc, at_boundary = subharmonicity_margin(sol)
        # analytic margin for cos(phi) at exponent 1 is 4 cos^2 >= 0
        assert margin >= -1e-6
        assert at_boundary
        assert abs(loc - sol.phi0) < 2e-3

    def test_flat_cone_closed_form(self):
        # 2 ||Hess cos||^2 - 4 sin^2 = 4 cos^2, smallest at the last sampled angle
        sol = symmetric_solution(0.0)
        margin, _, _ = subharmonicity_margin(sol)
        assert abs(margin - 4.0 * math.cos(sol.phi0 - 0.08) ** 2) < 1e-9

    @pytest.mark.parametrize("c", [0.2, 0.5])
    def test_computed_profiles(self, c):
        sol = symmetric_solution(c)
        margin, loc, at_boundary = subharmonicity_margin(sol)
        assert margin >= -1e-4
        assert at_boundary
        assert abs(loc - sol.phi0) < 2e-3
