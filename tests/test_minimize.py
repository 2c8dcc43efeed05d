import importlib
import math
import tracemalloc

import numpy as np
import pytest

from conefbp import grid
from conefbp.errors import ConvergenceFailureError, GridMismatchError, InvalidParameterError
from conefbp.grid import dirichlet_solve, edge_diag, field_from_solution, make_field
from conefbp.minimize import (
    MinimizeConfig,
    _energy,
    _vertex_touch,
    _weights,
    compare_to_symmetric,
    energy,
    free_boundary_angle,
    minimize,
)
from conefbp.ode import symmetric_solution
from conftest import dense_edge_form, edge_apply_slices

# the package exports the function minimize under the submodule's name
minimize_module = importlib.import_module("conefbp.minimize")

# profile-quadrature oracle for the continuum energy of the c = 0.3 solution
ENERGY_03_ORACLE = 4.54454110


def boundary_from_solution(sol, nphi):
    phis = np.linspace(0.0, math.pi, nphi)
    vals = np.zeros(nphi)
    inside = phis < sol.phi0
    vals[inside] = np.clip(sol.profile.sample(phis[inside])[0], 0.0, None)
    return vals


class TestEnergy:
    def test_zero_field(self):
        assert energy(make_field(32, 32, 0.4)) == 0.0

    def test_flat_half_space_value(self):
        # integrand is 2 on the half ball: continuum value 4 pi / 3; the
        # node-mask indicator makes the rate O(h)
        errs = []
        for n in (64, 128):
            f = make_field(n, n, 0.0)
            f.values = np.clip(np.outer(f.r, np.cos(f.phi)), 0.0, None)
            errs.append(abs(energy(f) - 4.0 * math.pi / 3.0))
        assert errs[0] <= 3.0 * (math.pi / 64.0)
        assert errs[1] <= 0.75 * errs[0]

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    @pytest.mark.parametrize("c, sol", [(0.1, "sol01"), (0.3, "sol03")])
    def test_symmetric_solution_matches_series_energy(self, request, series_energy, c, sol, n):
        # first order in h = pi/n; the sign follows where phi0 falls in its cell
        fld = field_from_solution(request.getfixturevalue(sol), n, n)
        exact = series_energy[c][0] * (1.0 - fld.r_min**3)
        assert abs(energy(fld) - exact) <= 1.5 * math.pi / n

    def test_symmetric_solution_anchor(self, sol03):
        vals = [energy(field_from_solution(sol03, n, n)) for n in (192, 384)]
        assert abs(vals[-1] - ENERGY_03_ORACLE) <= 0.02
        assert abs(vals[0] - vals[1]) <= 0.03


class TestMinimize:
    def test_flat_recovers_half_space(self):
        cfg = MinimizeConfig(c=0.0, nr=48, nphi=48)
        res = minimize(cfg, np.clip(np.cos(np.linspace(0.0, math.pi, 48)), 0.0, None))
        f = make_field(48, 48, 0.0)
        f.values = np.clip(np.outer(f.r, np.cos(f.phi)), 0.0, None)
        h = math.pi / 48.0
        assert np.abs(res.field.values - f.values).max() <= h
        assert abs(res.fb_mean - math.pi / 2.0) <= h
        assert res.energy <= energy(f) + 1e-12

    def test_admissibility_and_monotone_outer(self, sol01):
        cfg = MinimizeConfig(c=0.1, nr=64, nphi=64)
        res = minimize(cfg, boundary_from_solution(sol01, 64))
        ref = field_from_solution(sol01, 64, 64)
        assert res.energy <= energy(ref) + 1e-8
        assert res.energy == energy(res.field)
        assert all(b <= a + 1e-12 for a, b in zip(res.outer_energies, res.outer_energies[1:]))

    def test_descent_moves_nonharmonic_data(self):
        cfg = MinimizeConfig(c=0.0, nr=48, nphi=48)
        res = minimize(cfg, 0.4 + 0.3 * np.sin(np.linspace(0.0, math.pi, 48)) ** 2)
        assert res.outer_energies[-1] < res.outer_energies[0] - 1e-3

    def test_large_slope_beats_symmetric_candidate(self):
        sol = symmetric_solution(5.0, step=1e-3)
        cfg = MinimizeConfig(c=5.0, nr=64, nphi=64)
        res = minimize(cfg, boundary_from_solution(sol, 64))
        ref = field_from_solution(sol, 64, 64)
        _, gap, touch = compare_to_symmetric(res.field, reference=ref)
        assert res.energy == energy(res.field)
        assert gap < -1.0
        assert not touch

    def test_barrier_envelopes_trap_small_slope_output(self):
        # converged output at small c stays inside the sub/supersolution
        # envelopes r f -/+ eps r^(-1/2) (M - cos phi), up to grid error
        c, M = 0.05, 16.0
        sol = symmetric_solution(c)
        cfg = MinimizeConfig(c=c, nr=64, nphi=64)
        res = minimize(cfg, boundary_from_solution(sol, 64))
        f = res.field
        prof = np.zeros_like(f.phi)
        inside = f.phi < sol.phi0
        prof[inside] = sol.profile.sample(f.phi[inside])[0]
        base = np.outer(f.r, prof)
        eps = 2.0 * max(1.0 / 64.0, math.pi / 64.0)
        barrier = eps * np.outer(f.r**-0.5, M - np.cos(f.phi)) / M
        h = math.pi / 64.0
        lower = np.clip(base - barrier, 0.0, None) - 2.0 * h
        upper = base + barrier + 2.0 * h
        assert np.all(f.values >= lower)
        assert np.all(f.values <= upper)

    def test_homogeneous_scaling_of_energy(self, sol03):
        # J(u_rho, B_1) = rho^-3 J(u, B_rho) for the one-homogeneous field:
        # evaluate both sides with the grid radially rescaled
        rho = 0.5
        full = field_from_solution(sol03, 96, 96)
        small = make_field(96, 96, 0.3, r_min=full.r_min * rho)
        small.r = full.r * rho
        small.values = full.values * rho
        assert abs(energy(small) - rho**3 * energy(full)) <= 5.0 * (math.pi / 96.0) * rho**2

    def test_boundary_validation(self):
        cfg = MinimizeConfig(c=0.1, nr=16, nphi=16)
        with pytest.raises(InvalidParameterError):
            minimize(cfg, -np.ones(16))
        with pytest.raises(GridMismatchError):
            minimize(cfg, np.ones(7))


class TestFreeBoundaryAngle:
    def test_sampled_solution_rows_align(self, sol03):
        f = field_from_solution(sol03, 96, 96)
        est = free_boundary_angle(f)
        angles = np.array([a for _, a in est])
        h = math.pi / 96.0
        assert np.abs(angles - sol03.phi0).max() <= h
        assert angles.max() - angles.min() <= h

    def test_everywhere_positive_gives_empty(self):
        f = make_field(48, 48, 0.0)
        f.values = np.outer(f.r, np.ones_like(f.phi))
        assert free_boundary_angle(f) == []

    def test_matches_row_loop(self):
        # symmetric-solution fields and seeded random fields, each shifted
        # down to sign-changing rows and clipped at zero, so rows cross
        # through negative values, land on exact zeros, start at zero at
        # the pole or stay positive
        bases = [field_from_solution(symmetric_solution(c, step=1e-3), 48, 40) for c in (0.0, 0.1, 0.3, 2.0, 5.0)]
        rng = np.random.default_rng(15)
        for _ in range(300):
            f = make_field(24, 16, 0.0)
            f.values = rng.normal(size=f.shape) + rng.uniform(-1.0, 3.0)
            bases.append(f)
        estimates = 0
        for f in bases:
            signed = f.values - 0.05 * rng.random() * f.r[:, None]
            for vals in (signed, np.clip(signed, 0.0, None)):
                g = f.with_values(vals)
                expected = _free_boundary_angle_loop(g)
                assert free_boundary_angle(g) == expected
                estimates += len(expected)
        assert estimates > 0

    def test_minimize_output_angle(self, sol01):
        cfg = MinimizeConfig(c=0.1, nr=64, nphi=64)
        res = minimize(cfg, boundary_from_solution(sol01, 64))
        assert abs(res.fb_mean - sol01.phi0) <= 0.05


class TestCompare:
    def test_reference_is_fixed_point(self, sol03):
        ref = field_from_solution(sol03, 64, 64)
        sup, gap, touch = compare_to_symmetric(ref, reference=ref)
        assert sup == 0.0
        assert gap == 0.0
        assert touch  # zero set reaches the puncture for the symmetric solution

    def test_grid_mismatch(self, sol01, sol03):
        a = field_from_solution(sol03, 64, 64)
        b = field_from_solution(sol03, 32, 32)
        with pytest.raises(GridMismatchError):
            compare_to_symmetric(a, reference=b)
        # same nodes, different cones: the energies weigh 1/(1 + c^2) differently
        a = field_from_solution(sol01, 32, 32)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.phi, b.phi)
        with pytest.raises(GridMismatchError):
            compare_to_symmetric(a, reference=b)

    @pytest.mark.parametrize("peak", [0.0, -1.0])
    def test_reference_without_positive_peak_rejected(self, peak):
        # the sup distance is relative to the reference peak
        ref = make_field(8, 8, 0.3)
        ref.values[:] = peak
        with pytest.raises(InvalidParameterError, match="peak"):
            compare_to_symmetric(make_field(8, 8, 0.3), reference=ref)


def _free_boundary_angle_loop(fld):
    """Row-by-row reference: interpolated first zero crossing of each row in 0.2 <= r <= 0.8."""
    out = []
    for i, rv in enumerate(fld.r):
        if not 0.2 <= rv <= 0.8:
            continue
        row = fld.values[i]
        pos = row > 0.0
        if pos.all() or not pos.any() or not pos[0]:
            continue
        j = int(np.argmin(pos))  # first False
        if j == 0:
            continue
        u0, u1 = row[j - 1], row[j]
        frac = u0 / (u0 - u1) if u0 != u1 else 0.5
        out.append((float(rv), float(fld.phi[j - 1] + frac * (fld.phi[j] - fld.phi[j - 1]))))
    return out


def _vertex_touch_loop(fld):
    """Node-by-node reference: a zero node near the puncture with a positive neighbour."""
    near = fld.r <= 2.0 * fld.r_min + 1e-15
    if not (fld.values[near] <= 0.0).any():
        return False
    pos = fld.values > 0.0
    for i in np.nonzero(near)[0]:
        for j in range(fld.shape[1]):
            if fld.values[i, j] > 0.0:
                continue
            neighbors = []
            if i > 0:
                neighbors.append(pos[i - 1, j])
            if i + 1 < fld.shape[0]:
                neighbors.append(pos[i + 1, j])
            if j > 0:
                neighbors.append(pos[i, j - 1])
            if j + 1 < fld.shape[1]:
                neighbors.append(pos[i, j + 1])
            if any(neighbors):
                return True
    return False


class TestVertexTouch:
    @pytest.mark.parametrize("r_min", [0.01, 0.3, 0.5])  # one, a few or all rows near the vertex
    @pytest.mark.parametrize("nr,nphi", [(5, 6), (9, 4)])
    def test_matches_node_loop(self, nr, nphi, r_min):
        # every single-positive-node mask, every radial and angular cut
        # (either side positive), then seeded random masks of mixed density
        rng = np.random.default_rng(nr * nphi)
        i, j = np.indices((nr, nphi))
        masks = list(np.eye(nr * nphi, dtype=bool).reshape(-1, nr, nphi))
        masks += [m for k in range(nr) for m in (i <= k, i > k)]
        masks += [m for k in range(nphi) for m in (j <= k, j > k)]
        masks += [rng.random((nr, nphi)) < d for d in rng.choice([0.05, 0.2, 0.5, 0.9, 1.0], 300)]
        f = make_field(nr, nphi, 0.0, r_min=r_min)
        seen = set()
        for mask in masks:
            f.values = mask * (0.5 + rng.random((nr, nphi)))
            expected = _vertex_touch_loop(f)
            assert _vertex_touch(f) is expected
            seen.add(expected)
        assert seen == {True, False}


def _minimize_reference(config, boundary):
    """Allocating reference of the descent: a fresh array per operation, slice-form kernel.

    Returns the output field values, energy, stage energies and halvings.
    """
    fld = make_field(config.nr, config.nphi, config.c)
    data = np.asarray(boundary, dtype=float)
    peak = float(data.max())
    fld.values = np.outer(fld.r, data)
    wr, wp, cells = _weights(fld)
    free = ~fld.dirichlet
    diag_a = edge_diag(wr, wp, fld.values.shape)
    u = fld.values.copy()
    u_best = u.copy()
    e_best = _energy(u, wr, wp, cells)
    outer_energies = [e_best]
    eta = minimize_module._STEP_SCALE
    halvings = 0
    for eps in config.schedule(peak):
        inv_eps = 1.0 / eps
        cells6 = (6.0 / eps) * cells
        while True:
            step = eta / (2.0 * diag_a + (6.0 / (eps * eps)) * cells)
            trial = u.copy()
            for _ in range(minimize_module._INNER_ITERS):
                t = np.clip(trial * inv_eps, 0.0, 1.0)
                grad = 2.0 * edge_apply_slices(trial, wr, wp) + t * (1.0 - t) * cells6
                trial = np.where(free, np.maximum(trial - grad * step, 0.0), trial)
            if _energy(trial, wr, wp, cells, eps) <= _energy(u, wr, wp, cells, eps) + 1e-12:
                u = trial
                break
            halvings += 1
            eta *= 0.5
            if halvings > minimize_module._MAX_HALVINGS:
                raise ConvergenceFailureError("descent failed after maximum step halvings")
        e_true = _energy(u, wr, wp, cells)
        if e_true <= e_best:
            e_best = e_true
            u_best = u.copy()
        outer_energies.append(e_best)
    sharp = u.copy()
    sharp[sharp < config.truncation(peak)] = 0.0
    sharp = np.where(free, sharp, u)
    candidates = [sharp]
    work = fld.with_values(sharp)
    work.dirichlet = fld.dirichlet | ~(sharp > 0.0)
    try:
        candidates.append(np.clip(dirichlet_solve(work).values, 0.0, None))
    except ConvergenceFailureError:
        pass
    for cand in candidates:
        e_cand = _energy(cand, wr, wp, cells)
        if e_cand <= e_best:
            e_best = e_cand
            u_best = cand
    outer_energies.append(e_best)
    return u_best, e_best, outer_energies, halvings


def _symmetric_boundary(c, nphi):
    return boundary_from_solution(symmetric_solution(c, step=1e-3), nphi)


def _assert_matches_reference(cfg, data):
    res = minimize(cfg, data)
    values, e_ref, outer_ref, halvings_ref = _minimize_reference(cfg, data)
    assert np.array_equal(res.field.values, values)
    assert np.array_equal(np.signbit(res.field.values), np.signbit(values))
    assert res.energy == e_ref
    assert res.outer_energies == outer_ref
    assert res.halvings == halvings_ref
    return res


class TestBufferedDescent:
    # the non-square grid catches a row/column mix-up in the flat phi edges
    @pytest.mark.parametrize("nr,nphi", [(32, 32), (48, 40)])
    @pytest.mark.parametrize("c", [0.1, 1.0, 5.0])
    def test_matches_allocating_reference_bitwise(self, c, nr, nphi):
        _assert_matches_reference(MinimizeConfig(c=c, nr=nr, nphi=nphi), _symmetric_boundary(c, nphi))

    @pytest.mark.parametrize("nr,nphi", [(32, 32), (48, 40)])
    @pytest.mark.parametrize("c", [0.1, 1.0, 5.0])
    def test_negative_zero_data_match_reference_bitwise(self, c, nr, nphi):
        # -0.0 boundary zeros pass the data < 0 check and start -0.0 rows
        # inside; the sweep's min(t, 1) must keep the bits of clip(t, 0, 1)
        data = _symmetric_boundary(c, nphi)
        data[data == 0.0] = -0.0
        assert np.signbit(data).any()
        _assert_matches_reference(MinimizeConfig(c=c, nr=nr, nphi=nphi), data)

    def test_step_halvings_match_reference(self, monkeypatch):
        # an oversized Jacobi step is rejected and halved until a stage descends
        monkeypatch.setattr(minimize_module, "_STEP_SCALE", 3.0)
        cfg = MinimizeConfig(c=0.0, nr=24, nphi=20)
        res = _assert_matches_reference(cfg, 0.4 + 0.3 * np.sin(np.linspace(0.0, math.pi, 20)) ** 2)
        assert res.halvings > 0


def _count_edge_applies(monkeypatch):
    """Wrap ``edge_apply`` in the minimize and grid namespaces with call counters."""
    counts = {"minimize": 0, "grid": 0}
    for name, module in (("minimize", minimize_module), ("grid", grid)):
        def counted(*args, _name=name, _fn=module.edge_apply, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, "edge_apply", counted)
    return counts


class TestEdgeApplyCalls:
    # a run trace counts gradient evaluations and CG applies by rebinding
    # edge_apply in these two namespaces; a kernel inlined or bound another
    # way would read zero
    def test_one_call_per_gradient_evaluation(self, monkeypatch):
        counts = _count_edge_applies(monkeypatch)
        cfg = MinimizeConfig(c=5.0, nr=32, nphi=32)
        data = _symmetric_boundary(5.0, 32)
        res = minimize(cfg, data)
        stages_run = len(cfg.schedule(float(data.max()))) + res.halvings
        assert counts["minimize"] == minimize_module._INNER_ITERS * stages_run
        assert counts["grid"] >= 1  # the sharpening solve

    def test_one_call_per_cg_iteration_plus_setup(self, monkeypatch):
        counts = _count_edge_applies(monkeypatch)
        f = make_field(24, 24, 0.0)
        f.values[-1, :] = 1.0 + np.sin(f.phi)
        dirichlet_solve(f)  # the full grid converges in one iteration
        assert counts == {"minimize": 0, "grid": 2 + 1}
        monkeypatch.setattr(grid, "_CG_MAX_ITER", 3)
        f.dirichlet[:, 16:] = True
        with pytest.raises(ConvergenceFailureError):
            dirichlet_solve(f)
        assert counts == {"minimize": 0, "grid": 3 + 2 + 3}


def _sweep_inputs(nr, nphi, c):
    fld = make_field(nr, nphi, c)
    wr, wp, cells = _weights(fld)
    return fld, wr, wp, cells, edge_diag(wr, wp, fld.shape)


def _run_sweeps(u, eps, eta, wr, wp, cells, diag_a):
    return minimize_module._sweeps(u, eps, eta, 2.0 * wr, grid.pad_phi_weights(2.0 * wp), diag_a, cells)


class TestSweeps:
    def test_one_sweep_matches_dense_oracle(self, monkeypatch):
        # one projected-gradient step on a field of mixed zeros and
        # positives, some inside the ramp, against a dense assembly of A
        monkeypatch.setattr(minimize_module, "_INNER_ITERS", 1)
        nr, nphi, eps, eta = 7, 6, 0.3, 0.9
        _, wr, wp, cells, diag_a = _sweep_inputs(nr, nphi, 0.7)
        rng = np.random.default_rng(28)
        u = rng.uniform(0.0, 2.0 * eps, (nr, nphi)) * (rng.random((nr, nphi)) < 0.6)
        assert (u == 0.0).sum() >= 5 and ((u > 0.0) & (u < eps)).sum() >= 5
        a = dense_edge_form((nr, nphi), wr, wp)
        t = np.minimum(u / eps, 1.0)
        grad = 2.0 * (a @ u.ravel()).reshape(nr, nphi) + t * (1.0 - t) * 6.0 * cells / eps
        diag = 2.0 * np.diag(a).reshape(nr, nphi) + 6.0 * cells / eps**2
        expected = u.copy()
        expected[:-1] = np.maximum(u - eta * grad / diag, 0.0)[:-1]
        out = _run_sweeps(u, eps, eta, wr, wp, cells, diag_a)
        assert np.array_equal(out[-1], u[-1])
        assert np.array_equal(out == 0.0, expected == 0.0)
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_no_allocation_per_sweep(self, monkeypatch):
        # buffers are allocated before the loop, so 300 sweeps may raise
        # the traced peak of zero sweeps only by the views and loop-counter
        # ints a sweep creates (under 1 KB); one array allocated per sweep
        # raises it by at least 63 x 64 doubles, 32 KB.  One sweep would not
        # do as the baseline: its own temporaries would set its peak
        fld, wr, wp, cells, diag_a = _sweep_inputs(64, 64, 1.0)
        u = np.outer(fld.r, np.clip(np.cos(fld.phi), 0.0, None))
        _run_sweeps(u, 0.1, 0.9, wr, wp, cells, diag_a)  # first-call caches are not the loop's
        peaks = []
        for iters in (0, 300):
            monkeypatch.setattr(minimize_module, "_INNER_ITERS", iters)
            tracemalloc.start()
            try:
                _run_sweeps(u, 0.1, 0.9, wr, wp, cells, diag_a)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 0 <= peaks[1] - peaks[0] < 4096
