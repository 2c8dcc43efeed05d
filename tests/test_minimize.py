import math

import numpy as np
import pytest

from conefbp.errors import GridMismatchError, InvalidParameterError
from conefbp.grid import field_from_solution, make_field
from conefbp.minimize import (
    MinimizeConfig,
    _vertex_touch,
    compare_to_symmetric,
    energy,
    free_boundary_angle,
    minimize,
)
from conefbp.ode import symmetric_solution

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

    def test_grid_mismatch(self, sol03):
        a = field_from_solution(sol03, 64, 64)
        b = field_from_solution(sol03, 32, 32)
        with pytest.raises(GridMismatchError):
            compare_to_symmetric(a, reference=b)


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
