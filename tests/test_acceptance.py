"""Acceptance gate: one test per criterion, printed as pass/fail lines.

Run with `pytest tests/test_acceptance.py -s` to see every line.  One
sub-assertion is expected to fail and is left failing deliberately;
the analysis lives in the project notes: the slope-invariance of the
radial witness surface integral (criterion 5) does not survive direct
quadrature (the integral carries an exact |t0(c)| factor).  The
boundary Rayleigh quotient with hard zero radial ends (criterion 4)
converges to the R = inf closed form only like 1/log^2 R, so it is
checked against the exact minimum of its own annulus instead.
Everything else passes at the stated tolerances.
"""

import json
import math
import time

import numpy as np
import pytest

from conefbp.barriers import (
    BarrierConfig,
    admissible_parameter_search,
    audit_pair,
    hessian_gradient_inequality,
    subharmonicity_margin,
    supersolution_lift_check,
)
from conefbp.cli import main as cli_main
from conefbp.geometry import cap_geometry, homogeneity_exponent, is_minimizing, morgan_threshold
from conefbp.grid import field_from_solution
from conefbp.minimize import MinimizeConfig, compare_to_symmetric, energy, minimize
from conefbp.ode import DEFAULT_STEP, first_zero, integrate_profile, symmetric_solution
from conefbp.quadrature import simpson_uniform
from conefbp.stability import (
    SmoothBump,
    find_critical_c0,
    radial_instability_witness,
    stability_margin,
    steklov_min_quotient,
)
from conefbp.weiss import rescale_field, weiss, weiss_trace
from conftest import annulus_steklov_quotient


def report(number, ok, detail):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def critical_slope():
    return find_critical_c0((0.0, 10.0), 1e-6, step=1e-3)


def test_criterion_01_flat_case_exactness():
    start = time.perf_counter()
    prof = integrate_profile(1.0, 0.0, 0.9 * math.pi, step=DEFAULT_STEP)
    sup_err = float(np.max(np.abs(prof.values - np.cos(prof.grid))))
    phi0 = first_zero(integrate_profile(1.0, 0.0, 2.2, step=DEFAULT_STEP))
    a0 = homogeneity_exponent(0.0)
    a1 = homogeneity_exponent(1.0)
    runtime = time.perf_counter() - start
    ok = (
        sup_err <= 1e-8
        and abs(phi0 - math.pi / 2.0) <= 1e-8
        and a0 == 1.0
        and abs(a1 - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-12
        and runtime < 1.0
    )
    report(1, ok, f"sup|f-cos|={sup_err:.2e}, |phi0-pi/2|={abs(phi0-math.pi/2):.2e}, {runtime:.2f}s")
    assert sup_err <= 1e-8
    assert abs(phi0 - math.pi / 2.0) <= 1e-8
    assert a0 == 1.0
    assert abs(a1 - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-12
    assert runtime < 1.0


def test_criterion_02_gauss_bonnet_audit():
    start = time.perf_counter()
    residuals = []
    for k in range(5):
        cap = cap_geometry(math.pi / 2.0 + 0.1 * k)
        residuals.append(abs(cap.areaV + cap.kappa * cap.boundary_length - 2.0 * math.pi))
    runtime = time.perf_counter() - start
    worst = max(residuals)
    ok = worst <= 1e-10 and runtime < 1.0
    report(2, ok, f"worst residual {worst:.2e}, {runtime:.2f}s")
    assert worst <= 1e-10
    assert runtime < 1.0


def test_criterion_03_threshold_existence_and_structure(critical_slope):
    start = time.perf_counter()
    low = stability_margin(0.05, step=1e-3)
    high = stability_margin(10.0, step=1e-3)
    margins = [stability_margin(c, step=1e-3).margin for c in np.linspace(0.0, 10.0, 201)]
    signs = np.sign(margins)
    changes = int(np.count_nonzero(signs[:-1] != signs[1:]))
    c0_half = find_critical_c0((0.0, 10.0), 1e-6, step=5e-4)
    shift = abs(critical_slope - c0_half)
    runtime = time.perf_counter() - start
    ok = low.margin > 0.0 > high.margin and changes == 1 and shift <= 1e-4 and runtime < 30.0
    report(
        3,
        ok,
        f"margin(0.05)={low.margin:+.3e}, margin(10)={high.margin:+.3e}, "
        f"sign changes={changes}, c0={critical_slope:.7f}, halving shift={shift:.2e}, {runtime:.1f}s",
    )
    assert low.margin > 0.0 > high.margin
    assert changes == 1
    assert shift <= 1e-4
    assert runtime < 30.0


def test_criterion_04_steklov_cross_check():
    start = time.perf_counter()
    closed = stability_margin(0.2, step=1e-3).ratio
    lams = {R: steklov_min_quotient(0.2, R) for R in (8.0, 16.0, 32.0)}
    runtime = time.perf_counter() - start
    decreasing = lams[8.0] > lams[16.0] > lams[32.0] > closed
    # hard zero radial ends cost pi^2 / (4 log^2 R) in the radial mode,
    # so each R is compared with the exact minimum of its own annulus;
    # the gap to the R = inf closed form is reported, not bounded
    exact = {R: annulus_steklov_quotient(0.2, R) for R in lams}
    rel = {R: abs(lams[R] / exact[R] - 1.0) for R in lams}
    worst = max(rel.values())
    gap = lams[32.0] / closed - 1.0
    ok = decreasing and worst <= 0.02 and runtime < 120.0
    report(
        4,
        ok,
        f"lambda(8,16,32)=({lams[8.0]:.3f},{lams[16.0]:.3f},{lams[32.0]:.3f}), "
        f"worst rel err to the annulus minimum {worst:.1e} (bound 2%), "
        f"closed={closed:.3f} (R=32 gap {gap:.1%}, info), {runtime:.0f}s",
    )
    assert runtime < 120.0
    assert decreasing
    for R in lams:
        assert rel[R] <= 0.02, (R, lams[R], exact[R])


def test_criterion_05_radial_witness_reproduction(critical_slope):
    start = time.perf_counter()
    bump = SmoothBump(0.2, 0.9)
    slopes = (0.1, 0.5, 1.0, 2.0)
    table = {c: radial_instability_witness(c, bump, step=1e-3) for c in slopes}
    lhs_vals = np.array([table[c][0] for c in slopes])
    spread = float(lhs_vals.max() - lhs_vals.min())
    # the exactly invariant normalization: lhs / |t0|
    r = np.linspace(0.0, 1.0, 4097)
    int_f2 = simpson_uniform(bump(r) ** 2, r[1] - r[0])
    normalized = []
    crossing = None
    for c in list(slopes) + [4.0, 6.0, 8.0, 10.0]:
        sol = symmetric_solution(c, step=1e-3)
        lhs, rhs = table.get(c) or radial_instability_witness(c, bump, step=1e-3)
        normalized.append(lhs / abs(sol.t0))
        if crossing is None and rhs / lhs < 1.0:
            crossing = c
    norm_spread = max(normalized) - min(normalized)
    runtime = time.perf_counter() - start
    invariant_ok = spread <= 1e-8 * max(lhs_vals)
    ok = invariant_ok and crossing is not None and crossing >= critical_slope and runtime < 10.0
    report(
        5,
        ok,
        f"lhs spread {spread:.3e} over {lhs_vals.min():.4f}..{lhs_vals.max():.4f} "
        f"(|t0|-normalized spread {norm_spread:.2e}), ratio<1 first at c={crossing}, {runtime:.1f}s",
    )
    assert crossing is not None and crossing <= 10.0
    assert crossing >= critical_slope  # the witness upper-bounds the threshold
    assert norm_spread <= 1e-8 * max(normalized)
    assert runtime < 10.0
    # expected red: the direct surface integral is 2 pi |t0(c)| int F^2,
    # not slope-invariant; see project notes
    assert spread <= 1e-8 * max(lhs_vals)


def test_criterion_06_morgan_threshold():
    start = time.perf_counter()
    t3 = morgan_threshold(3)
    t4 = morgan_threshold(4)
    never = not any(is_minimizing(2, c) for c in np.linspace(0.0, 10.0, 101))
    runtime = time.perf_counter() - start
    ok = (
        abs(t3 - 0.3535533906) <= 1e-9
        and abs(t3 - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-12
        and abs(t4 - 0.5773502692) <= 1e-9
        and abs(t4 - 1.0 / math.sqrt(3.0)) <= 1e-12
        and never
        and runtime < 1.0
    )
    report(6, ok, f"thresholds ({t3:.10f}, {t4:.10f}), k=2 always false, {runtime:.2f}s")
    assert abs(t3 - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-12
    assert abs(t4 - 1.0 / math.sqrt(3.0)) <= 1e-12
    assert abs(t3 - 0.3535533906) <= 1e-9
    assert abs(t4 - 0.5773502692) <= 1e-9
    assert never
    assert runtime < 1.0


def test_criterion_07_weiss_audit():
    start = time.perf_counter()
    sol = symmetric_solution(0.3)
    fld = field_from_solution(sol, 256, 256)
    h = max(float(np.diff(fld.r).max()), float(fld.phi[1] - fld.phi[0]))
    tr = weiss_trace(fld, 16, 0.1, 0.9)
    variation = float(tr.values.max() - tr.values.min())
    pert = np.where(fld.values > 0.0, 0.05 * np.outer(fld.r**2, np.ones(256)), 0.0)
    bent = fld.with_values(fld.values + pert)
    worst_identity = 0.0
    for (rr, rho) in ((0.5, 0.6), (0.4, 0.9), (0.7, 0.5)):
        w1 = weiss(bent, rr * rho)
        w2 = weiss(rescale_field(bent, rr), rho)
        worst_identity = max(worst_identity, abs(w1 - w2))
    runtime = time.perf_counter() - start
    ok = variation <= 5.0 * h and worst_identity <= 5.0 * h and runtime < 30.0
    report(
        7,
        ok,
        f"W variation {variation:.2e} (tol {5*h:.2e}), rescale identity {worst_identity:.2e}, {runtime:.1f}s",
    )
    assert variation <= 5.0 * h
    assert worst_identity <= 5.0 * h
    assert runtime < 30.0


def test_criterion_08_trapping_small_slope():
    start = time.perf_counter()
    sol = symmetric_solution(0.1)
    cfg = MinimizeConfig(c=0.1, nr=128, nphi=128)
    ref = field_from_solution(sol, 128, 128)
    # r ends at 1, so the reference's last row is the boundary data
    res = minimize(cfg, ref.values[-1])
    sup, gap, _ = compare_to_symmetric(res.field, reference=ref)
    fb_err = abs(res.fb_mean - sol.phi0)
    runtime = time.perf_counter() - start
    ok = sup <= 0.05 and fb_err <= 0.05 and gap >= -1e-6 and runtime < 300.0
    report(
        8,
        ok,
        f"sup distance {sup:.2%}, fb angle error {fb_err:.4f} rad, energy gap {gap:+.2e}, {runtime:.1f}s",
    )
    assert sup <= 0.05
    assert fb_err <= 0.05
    assert gap >= -1e-6
    assert runtime < 300.0


def test_criterion_09_non_minimality_large_slope():
    start = time.perf_counter()
    sol = symmetric_solution(5.0)
    cfg = MinimizeConfig(c=5.0, nr=128, nphi=128)
    ref = field_from_solution(sol, 128, 128)
    # r ends at 1, so the reference's last row is the boundary data
    res = minimize(cfg, ref.values[-1])
    _, gap, _ = compare_to_symmetric(res.field, reference=ref)
    h = max(1.0 / 128.0, math.pi / 128.0)
    runtime = time.perf_counter() - start
    ok = gap < -10.0 * h and runtime < 300.0
    report(9, ok, f"energy gap {gap:+.3f} (bound {-10*h:.3f}), {runtime:.1f}s")
    assert gap < -10.0 * h
    assert runtime < 300.0


def test_criterion_10_barrier_certification(critical_slope):
    start = time.perf_counter()
    grid = [0.0, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3]
    c_barrier, reports = admissible_parameter_search(grid, num=2001)
    cert = max((r for r in reports if r.certified), key=lambda r: r.config.c)
    # re-audit the winning certificate on the dense grid
    dense = audit_pair(cert.config.c, cert.config.M, num=10001)
    lift = supersolution_lift_check(
        BarrierConfig(c=cert.config.c, M=cert.config.M, phi2=dense.phi2)
    )
    runtime = time.perf_counter() - start
    ok = (
        c_barrier is not None
        and c_barrier > 0.0
        and dense.certified
        and dense.decomposition_margin < 0.0
        and dense.laplacian_worst_value < 0.0
        and lift.flat_margin > 0.0
        and lift.flux_margin > 0.0
        and c_barrier <= critical_slope
        and runtime < 300.0
    )
    report(
        10,
        ok,
        f"certified c={c_barrier} (M={cert.config.M:g}, phi2={dense.phi2:.4f}) <= c0={critical_slope:.4f}; "
        f"lift margins flat={lift.flat_margin:+.4f} flux={lift.flux_margin:+.4f}, {runtime:.0f}s",
    )
    assert c_barrier is not None and c_barrier > 0.0
    assert dense.certified and dense.decomposition_margin < 0.0
    assert dense.laplacian_worst_value < 0.0
    assert lift.lift_gradient_ok
    assert c_barrier <= critical_slope
    assert runtime < 300.0


def test_criterion_11_pointwise_audits(rng):
    start = time.perf_counter()
    pts = []
    while len(pts) < 1000:
        x = rng.normal(size=3)
        n = float(np.linalg.norm(x))
        if n > 0.2:
            pts.append(x / n)
    worst = math.inf
    for seed in range(5):
        r = np.random.default_rng(seed)
        a = r.normal(size=3)
        q = r.normal(size=(3, 3))

        def fn(p, a=a, q=q):
            p = np.asarray(p, dtype=float)
            p = p / np.linalg.norm(p)
            return float(a @ p + p @ q @ p)

        worst = min(worst, hessian_gradient_inequality(fn, pts))
    sub = {}
    for c in (0.2, 0.5):
        sol = symmetric_solution(c)
        sub[c] = subharmonicity_margin(sol, num_points=300)
    runtime = time.perf_counter() - start
    ok = (
        worst >= -1e-6
        and all(m >= -1e-4 for m, _, _ in sub.values())
        and all(flag for _, _, flag in sub.values())
        and runtime < 60.0
    )
    report(
        11,
        ok,
        f"hessian-gradient worst {worst:+.2e}, subharmonicity margins "
        f"{[f'{sub[c][0]:+.2e}' for c in (0.2, 0.5)]}, maxima at the cap boundary, {runtime:.0f}s",
    )
    assert worst >= -1e-6
    for c in (0.2, 0.5):
        margin, _, at_boundary = sub[c]
        assert margin >= -1e-4
        assert at_boundary
    assert runtime < 60.0


def test_criterion_12_determinism(tmp_path):
    start = time.perf_counter()
    runs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        cli_main(["profile", "--beta", "1", "--c", "0", "--step", "1e-3", "--out", str(out)])
        cli_main(["phi0", "--c", "0", "--out", str(out)])
        cli_main(["critical-c", "--lo", "0", "--hi", "10", "--tol", "1e-6", "--out", str(out)])
        cli_main(["steklov", "--c", "0.2", "--R", "8", "--grid", "65,33", "--out", str(out)])
        cli_main(["stability", "--c", "1", "--step", "1e-3", "--out", str(out)])
        cli_main(["morgan", "--k", "3", "--out", str(out)])
        cli_main(["morgan", "--k", "4", "--out", str(out)])
        cli_main(["minimize", "--c", "0.1", "--grid", "32,32", "--out", str(out)])
        # cap geometry and witness artifacts for the remaining criteria
        cap = cap_geometry(math.pi / 2.0 + 0.2)
        (out / "cap.json").write_text(json.dumps(cap.__dict__, sort_keys=True))
        lhs, rhs = radial_instability_witness(0.5, SmoothBump(0.2, 0.9), step=1e-3)
        (out / "witness.json").write_text(json.dumps({"lhs": lhs, "rhs": rhs}, sort_keys=True))
        runs.append(out)
    names = [
        "profile_beta1_c0.txt",
        "phi0_c0.json",
        "critical_c.json",
        "critical_c_trace.csv",
        "steklov_c0.2_R8.json",
        "stability_c1.json",
        "morgan_k3.json",
        "morgan_k4.json",
        "minimize_c0.1.json",
        "minimize_c0.1_field.txt",
        "cap.json",
        "witness.json",
    ]
    mismatches = [n for n in names if (runs[0] / n).read_bytes() != (runs[1] / n).read_bytes()]
    runtime = time.perf_counter() - start
    ok = not mismatches
    report(12, ok, f"{len(names)} artifacts byte-identical across reruns, {runtime:.1f}s")
    assert not mismatches
