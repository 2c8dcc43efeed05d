import math

import numpy as np
import pytest

from conefbp import grid
from conefbp.barriers import BarrierConfig, _cut_edges, audit_pair, supersolution_lift_check
from conefbp.errors import ConvergenceFailureError, GridMismatchError, InvalidParameterError
from conefbp.grid import (
    dirichlet_edge_weights,
    dirichlet_solve,
    edge_apply,
    edge_diag,
    field_from_solution,
    gradient_sq_field,
    make_field,
    pad_phi_weights,
    save_field_text,
)
from conefbp.minimize import MinimizeConfig, energy, minimize
from conefbp.weiss import weiss
from conftest import dense_edge_form, edge_apply_slices


class TestDirichletSolve:
    def test_constant_data_gives_constant(self):
        f = make_field(32, 32, 0.5)
        f.values[-1, :] = 1.0
        out = dirichlet_solve(f)
        assert np.abs(out.values - 1.0).max() <= 1e-8

    def test_maximum_principle(self, rng):
        f = make_field(24, 28, 0.3)
        data = 1.0 + rng.random(28)
        f.values[-1, :] = data
        out = dirichlet_solve(f)
        interior = out.values[:-1, :]
        assert interior.max() <= data.max() + 1e-8
        assert interior.min() >= data.min() - 1e-8

    def test_second_order_convergence(self):
        def solve_err(n):
            fld = make_field(n, n, 0.0, r_min=0.1)
            exact = np.outer(fld.r, np.cos(fld.phi)) + 1.5
            fld.dirichlet[0, :] = True
            fld.dirichlet[-1, :] = True
            fld.values = np.where(fld.dirichlet, exact, 1.0)
            return np.abs(dirichlet_solve(fld).values - exact).max()

        e1, e2 = solve_err(24), solve_err(48)
        assert e1 / e2 >= 3.5

    def test_nonconvergence_carries_log(self, monkeypatch):
        # masked, so the full-grid preconditioner is not exact (12 iterations)
        monkeypatch.setattr(grid, "_CG_MAX_ITER", 3)
        f = make_field(24, 24, 0.0)
        f.values[-1, :] = 1.0 + np.sin(f.phi)
        f.dirichlet[:, 16:] = True
        with pytest.raises(ConvergenceFailureError) as err:
            dirichlet_solve(f)
        assert err.value.log

    def test_dirichlet_nodes_untouched(self):
        f = make_field(24, 24, 0.2)
        f.values[-1, :] = 2.0
        out = dirichlet_solve(f)
        assert np.array_equal(out.values[-1, :], f.values[-1, :])

    def test_mask_shape_checked(self):
        f = make_field(16, 16, 0.0)
        f.dirichlet = np.ones((4, 4), dtype=bool)
        with pytest.raises(GridMismatchError):
            dirichlet_solve(f)

    @staticmethod
    def _dense_solve(f, wr, wp):
        # assemble the edge form node by node and solve its unknown block
        a = dense_edge_form(f.shape, wr, wp)
        fixed = f.dirichlet.ravel()
        u = np.where(fixed, f.values.ravel(), 0.0)
        u[~fixed] = np.linalg.solve(a[np.ix_(~fixed, ~fixed)], -a[np.ix_(~fixed, fixed)] @ u[fixed])
        return u.reshape(f.shape)

    def test_full_grid_matches_dense_solve_in_one_iteration(self, monkeypatch):
        monkeypatch.setattr(grid, "_CG_MAX_ITER", 1)
        f = make_field(9, 7, 0.6, r_min=0.15)
        f.values[-1, :] = 1.0 + np.cos(f.phi) ** 2
        exact = self._dense_solve(f, *dirichlet_edge_weights(f))
        out = dirichlet_solve(f).values
        assert np.abs(out - exact).max() <= 1e-9 * np.abs(exact).max()

    def test_plane_cut_matches_dense_solve(self):
        f = make_field(9, 7, 0.3)
        psi = np.outer(f.r, np.cos(f.phi)) - math.cos(1.9)
        inside = psi > 0.0
        f.values[-1, inside[-1]] = 2.0 + np.sin(f.phi[inside[-1]])
        f.dirichlet = ~inside
        f.dirichlet[-1, :] = True
        cut_r, theta_r = _cut_edges(psi, inside)
        cut_p, theta_p = _cut_edges(psi.T, inside.T)
        assert cut_r.any() and cut_p.any()
        scale = (np.where(cut_r, 1.0 / theta_r, 1.0), np.where(cut_p, 1.0 / theta_p, 1.0).T)
        wr, wp = dirichlet_edge_weights(f)
        exact = self._dense_solve(f, wr * scale[0], wp * scale[1])
        out = dirichlet_solve(f, weight_scale=scale).values
        assert np.abs(out - exact).max() <= 1e-9 * np.abs(exact).max()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_dirichlet_data_rejected(self, bad):
        f = make_field(8, 8, 0.0)
        f.values[-1, :] = 1.0
        f.values[-1, 3] = bad
        with pytest.raises(InvalidParameterError):
            dirichlet_solve(f)

    def test_weight_scale_shape_checked(self):
        f = make_field(8, 8, 0.0)
        f.values[-1, :] = 1.0
        with pytest.raises(GridMismatchError):
            dirichlet_solve(f, weight_scale=(np.ones((8, 8)), np.ones((8, 7))))

    @pytest.mark.parametrize(
        "index,edge,bad",
        [pytest.param(1, (2, 3), bad, id=str(bad)) for bad in (0.0, -1.0, math.nan, math.inf)]
        + [pytest.param(0, (6, 3), bad, id=f"r-{bad}") for bad in (0.0, -1.0, math.nan, math.inf, 1e308)],
    )
    def test_weight_scale_values_checked(self, monkeypatch, index, edge, bad):
        # on a phi edge and on an r edge; 1e308 is finite, but its product
        # with that r edge's weight (about 3) is not.  Each bad factor is
        # rejected before the preconditioner is built.
        def unreachable(*args):
            raise AssertionError("preconditioner built before weight_scale was checked")

        monkeypatch.setattr(grid, "_full_grid_inverse", unreachable)
        f = make_field(8, 8, 0.0)
        f.values[-1, :] = 1.0
        scale = (np.ones((7, 8)), np.ones((8, 7)))
        scale[index][edge] = bad
        with pytest.raises(InvalidParameterError):
            dirichlet_solve(f, weight_scale=scale)

    def test_huge_data_solved_without_overflow(self):
        # squared residual entries of data this large overflow a double
        f = make_field(8, 8, 0.0)
        f.values[-1, :] = 1e160
        out = dirichlet_solve(f)
        assert np.abs(out.values - 1e160).max() <= 1e-8 * 1e160

    def test_power_of_two_data_scaling_is_bitwise(self, rng):
        f = make_field(16, 16, 0.4)
        f.values[-1] = 1.0 + rng.random(16)
        f.dirichlet[:, 10:] = True
        f.values[:, 10:] = rng.random((16, 6))
        scaled = f.with_values(np.ldexp(f.values, 600))
        assert np.array_equal(dirichlet_solve(scaled).values, np.ldexp(dirichlet_solve(f).values, 600))

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_uniform_power_of_two_factors_are_bitwise(self, rng, exponent):
        # the same form times 2^exponent: the squared norm of its right-hand
        # side would underflow to 0 (every unknown returned 0) or overflow
        f = make_field(16, 16, 0.4)
        f.values[-1] = 1.0 + rng.random(16)
        f.dirichlet[:, 10:] = True
        f.values[:, 10:] = rng.random((16, 6))
        scale = tuple(np.full(shape, 2.0**exponent) for shape in ((15, 16), (16, 15)))
        assert np.array_equal(dirichlet_solve(f, weight_scale=scale).values, dirichlet_solve(f).values)

    def test_free_outer_row_rejected(self):
        f = make_field(8, 8, 0.0)
        f.values[-1, :] = 1.0
        f.dirichlet[-1, 4] = False
        with pytest.raises(InvalidParameterError):
            dirichlet_solve(f)

    @staticmethod
    def _cg_reference(f, weight_scale=None):
        # the CG loop with a fresh array per operation, the slice-form kernel
        # and the equilibration S = sqrt(diag A0 / diag A) as a dense array
        fixed = f.dirichlet
        wr, wp = dirichlet_edge_weights(f)
        inverse = grid._full_grid_inverse(wr, wp, fixed)
        diag0 = edge_diag(wr, wp, f.shape)
        if weight_scale is not None:
            wr, wp = wr * weight_scale[0], wp * weight_scale[1]
        s = np.where(fixed, 1.0, np.sqrt(diag0 / edge_diag(wr, wp, f.shape)))

        def precondition(r):
            return s * inverse(s * r, np.empty_like(r), np.empty(r.size))

        def apply_a(x):
            return np.where(fixed, 0.0, edge_apply_slices(x, wr, wp))

        bnorm = float(np.linalg.norm(apply_a(np.where(fixed, f.values, 0.0))))
        x = f.values.copy()
        r_vec = -apply_a(x)
        p = precondition(r_vec)
        rz = float(np.vdot(r_vec, p))
        while True:
            ap = apply_a(p)
            alpha = rz / float(np.vdot(p, ap))
            x = x + alpha * p
            r_vec = r_vec - alpha * ap
            if float(np.linalg.norm(r_vec)) / bnorm <= grid._CG_TOL:
                return x
            z = precondition(r_vec)
            rz_new = float(np.vdot(r_vec, z))
            p = (rz_new / rz) * p + z
            rz = rz_new

    @pytest.mark.parametrize("cut", [False, True])
    def test_buffered_cg_matches_allocating_reference_bitwise(self, rng, cut):
        f = make_field(40, 36, 0.7)
        f.values[-1] = 1.0 + rng.random(36)
        f.dirichlet[:, 20:] = True
        f.values[:, 20:] = rng.random((40, 16))
        scale = None
        if cut:
            scale = (rng.uniform(0.5, 2.0, (39, 36)), rng.uniform(0.5, 2.0, (40, 35)))
        got = dirichlet_solve(f, weight_scale=scale).values
        expected = self._cg_reference(f, scale)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    @staticmethod
    def _lift_config():
        # the c = 0.1, M = 16 lift at the dense audit's pasting angle
        return BarrierConfig(c=0.1, M=16.0, phi2=audit_pair(0.1, 16.0, num=10001).phi2)

    @pytest.mark.parametrize("n", [128, 256])
    def test_lift_solve_needs_few_iterations(self, monkeypatch, sol01, n):
        # Jacobi-preconditioned CG needed 571 (128^2) and 1,179 (256^2) iterations
        monkeypatch.setattr(grid, "_CG_MAX_ITER", 150)
        assert supersolution_lift_check(self._lift_config(), nr=n, nphi=n, sol=sol01).lift_gradient_ok

    @pytest.mark.parametrize("n,cap", [(128, 36), (256, 50)])
    def test_lift_preconditioner_equilibrated_to_the_cut_diagonal(self, monkeypatch, sol01, n, cap):
        # the unscaled full-grid inverse needed 45 (128^2) and 80 (256^2)
        # iterations, scaled to the cut-cell diagonal 32 and 43
        monkeypatch.setattr(grid, "_CG_MAX_ITER", cap)
        assert supersolution_lift_check(self._lift_config(), nr=n, nphi=n, sol=sol01).lift_gradient_ok

    def test_lift_margin_at_default_tolerance_near_the_converged_one(self, monkeypatch, sol01):
        # 256^2 flat_margin against the same solve driven to 1e-13: 4.6e-6
        # relative with the unscaled inverse, 7.8e-7 scaled
        config = self._lift_config()
        got = supersolution_lift_check(config, nr=256, nphi=256, sol=sol01).flat_margin
        monkeypatch.setattr(grid, "_CG_TOL", 1e-13)
        converged = supersolution_lift_check(config, nr=256, nphi=256, sol=sol01).flat_margin
        assert abs(got - converged) <= 2e-6 * abs(converged)


class TestEdgeApply:
    @pytest.mark.parametrize("nr,nphi", [(4, 4), (5, 9), (17, 6), (32, 32)])
    def test_flat_phi_edges_match_slice_form_bitwise(self, nr, nphi):
        # seeded fields of mixed sign with exact zeros and negative zeros,
        # scaled weights included, into C-ordered caller buffers
        rng = np.random.default_rng(nr * 100 + nphi)
        wr, wp = dirichlet_edge_weights(make_field(nr, nphi, 0.7))
        out, scratch = np.empty((nr, nphi)), np.empty(nr * nphi + 3)
        for k in range(50):
            u = rng.normal(size=(nr, nphi)) * rng.choice([1e-3, 1.0, 1e3])
            pick = rng.random((nr, nphi))
            u[pick < 0.3] = 0.0
            u[pick > 0.8] = -0.0
            if k % 2:
                u = np.clip(u, 0.0, None)
            sr, sp = rng.uniform(0.5, 2.0, wr.shape), rng.uniform(0.5, 2.0, wp.shape)
            expected = edge_apply_slices(u, wr * sr, wp * sp)
            wp_pad = pad_phi_weights(wp * sp)
            for x in (u, np.asfortranarray(u)):
                got = edge_apply(x, wr * sr, wp_pad, out, scratch)
                assert got is out
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_padding_weights_the_row_crossing_pairs_zero(self):
        wp = dirichlet_edge_weights(make_field(6, 5, 0.0))[1]
        wp_pad = pad_phi_weights(wp)
        assert wp_pad.shape == (6, 5)
        assert np.array_equal(wp_pad[:, :-1], wp)
        assert not wp_pad[:, -1].any()


class TestGradient:
    def test_linear_radial_field(self):
        f = make_field(32, 32, 0.0)
        f.values = np.outer(f.r, np.ones_like(f.phi))
        gsq = gradient_sq_field(f)
        assert np.abs(gsq - 1.0).max() <= 1e-12

    def test_unit_gradient_near_free_boundary(self, sol03):
        f = field_from_solution(sol03, 128, 128)
        h = f.phi[1] - f.phi[0]
        j = int(np.searchsorted(f.phi, sol03.phi0)) - 2  # inside, stencil clear of kink
        i = 96
        val = gradient_sq_field(f)[i, j]
        assert abs(val - 1.0) <= 8.0 * h

    def test_pole_value_from_profile(self, sol03):
        f = field_from_solution(sol03, 96, 96)
        gsq = gradient_sq_field(f)
        f0 = sol03.profile.value_and_deriv(1e-9)[0]
        expected = f0 * f0 / 1.09
        assert abs(gsq[48, 0] - expected) <= 5e-3


class TestFieldFromSolution:
    @pytest.mark.parametrize("nr,nphi", [(128, 128), (64, 97)])
    def test_last_row_is_the_boundary_data(self, sol03, nr, nphi):
        # r ends at exactly 1, so the last row of r f(phi) is the clipped
        # profile itself, the Dirichlet data of the minimizer runs
        phis = np.linspace(0.0, np.pi, nphi)
        inside = phis < sol03.phi0
        data = np.zeros(nphi)
        data[inside] = np.clip(sol03.profile.sample(phis[inside])[0], 0.0, None)
        assert np.array_equal(field_from_solution(sol03, nr, nphi).values[-1], data)


class TestFieldValidation:
    def test_tiny_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_field(2, 8, 0.0)

    @pytest.mark.parametrize("r_min", [0.0, 1.0, 1.5, math.nan])
    def test_r_min_outside_unit_interval_rejected(self, r_min):
        with pytest.raises(InvalidParameterError, match="r_min"):
            make_field(8, 8, 0.0, r_min=r_min)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
    def test_invalid_slope_rejected(self, c):
        with pytest.raises(InvalidParameterError):
            make_field(8, 8, c)
        with pytest.raises(InvalidParameterError):
            minimize(MinimizeConfig(c=c, nr=16, nphi=16), np.ones(16))

    @staticmethod
    def _with_data(c):
        f = make_field(8, 8, c)
        f.values = np.outer(f.r, 1.0 + np.cos(f.phi))
        return f

    @pytest.mark.parametrize(
        "run",
        [
            lambda c: energy(TestFieldValidation._with_data(c)),
            lambda c: weiss(TestFieldValidation._with_data(c), 0.5),
            lambda c: dirichlet_solve(TestFieldValidation._with_data(c)),
            lambda c: minimize(MinimizeConfig(c=c, nr=8, nphi=8), np.ones(8)),
        ],
        ids=["energy", "weiss", "dirichlet_solve", "minimize"],
    )
    @pytest.mark.parametrize("c", [1.5e154, 1e200])
    def test_slope_whose_square_overflows_rejected(self, run, c):
        # 1 + c^2 would be inf: energies and Weiss values nan or inf, the
        # preconditioner's eigensolver and the descent failing unrelatedly
        with pytest.raises(InvalidParameterError, match="cone slope squared overflows"):
            run(c)

    def test_largest_slope_whose_square_is_finite_accepted(self):
        assert make_field(8, 8, 1.3e154).c == 1.3e154


class TestSerialization:
    def test_text_round_trip(self, tmp_path):
        f = make_field(24, 24, 0.3, r_min=0.0731)
        f.values = np.random.default_rng(7).standard_normal(f.values.shape)
        path = tmp_path / "field.txt"
        save_field_text(f, path)
        header = path.read_text().splitlines()[:4]
        assert header == ["Nr=24", "Nphi=24", "r_min=0.073099999999999998", "c=0.29999999999999999"]
        assert np.array_equal(np.loadtxt(path, skiprows=4), f.values)
