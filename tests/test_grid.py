import math

import numpy as np
import pytest

from conefbp import grid
from conefbp.barriers import BarrierConfig, _cut_edges, audit_pair, supersolution_lift_check
from conefbp.errors import ConvergenceFailureError, GridMismatchError, InvalidParameterError
from conefbp.grid import (
    dirichlet_edge_weights,
    dirichlet_solve,
    field_from_solution,
    gradient_sq_field,
    make_field,
    save_field_text,
)
from conefbp.minimize import MinimizeConfig, minimize


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
        nr, nphi = f.shape
        a = np.zeros((nr * nphi, nr * nphi))
        edges = [((i, j), (i + 1, j), wr[i, j]) for i in range(nr - 1) for j in range(nphi)]
        edges += [((i, j), (i, j + 1), wp[i, j]) for i in range(nr) for j in range(nphi - 1)]
        for p, q, w in edges:
            k, m = p[0] * nphi + p[1], q[0] * nphi + q[1]
            a[k, k] += w
            a[m, m] += w
            a[k, m] -= w
            a[m, k] -= w
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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_weight_scale_values_checked(self, bad):
        f = make_field(8, 8, 0.0)
        f.values[-1, :] = 1.0
        scale = (np.ones((7, 8)), np.ones((8, 7)))
        scale[1][2, 3] = bad
        with pytest.raises(InvalidParameterError):
            dirichlet_solve(f, weight_scale=scale)

    def test_free_outer_row_rejected(self):
        f = make_field(8, 8, 0.0)
        f.values[-1, :] = 1.0
        f.dirichlet[-1, 4] = False
        with pytest.raises(InvalidParameterError):
            dirichlet_solve(f)

    @pytest.mark.parametrize("n", [128, 256])
    def test_lift_solve_needs_few_iterations(self, monkeypatch, sol01, n):
        # Jacobi-preconditioned CG needed 571 (128^2) and 1,179 (256^2) iterations
        monkeypatch.setattr(grid, "_CG_MAX_ITER", 150)
        phi2 = audit_pair(0.1, 16.0, num=10001).phi2
        rep = supersolution_lift_check(BarrierConfig(c=0.1, M=16.0, phi2=phi2), nr=n, nphi=n, sol=sol01)
        assert rep.lift_gradient_ok


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
    def test_negative_values_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_field(8, 8, 0.0, values=-np.ones((8, 8)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_values_rejected(self, bad):
        values = np.ones((8, 8))
        values[2, 5] = bad
        with pytest.raises(InvalidParameterError):
            make_field(8, 8, 0.0, values=values)

    def test_tiny_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_field(2, 8, 0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
    def test_invalid_slope_rejected(self, c):
        with pytest.raises(InvalidParameterError):
            make_field(8, 8, c)
        with pytest.raises(InvalidParameterError):
            minimize(MinimizeConfig(c=c, nr=16, nphi=16), np.ones(16))


class TestSerialization:
    def test_text_round_trip(self, tmp_path, sol03):
        f = field_from_solution(sol03, 24, 24, r_min=0.0731)
        path = tmp_path / "field.txt"
        save_field_text(f, path)
        header = path.read_text().splitlines()[:4]
        assert header == ["Nr=24", "Nphi=24", "r_min=0.073099999999999998", "c=0.29999999999999999"]
        assert np.array_equal(np.loadtxt(path, skiprows=4), f.values)
