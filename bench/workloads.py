"""The benchmark's three workloads: fixed work lists over the public API.

Each workload is a closed loop with one client.  A pass runs its
operations one after another, times each on its own and checks its
result; an operation that raises or fails its check is recorded as
failed, never dropped.  Calls go through module attributes
(``stability.stability_margin``), so the tracer's wrappers see them.
The seed drives only the slope jitter of ``slope_scan``.

``smoke=True`` shrinks every workload to a pass of about a second with
the same operations and checks, for the benchmark's own tests.
"""

from __future__ import annotations

import importlib
import math
import random
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from conefbp import barriers, grid, ode, stability

# the package re-exports functions named minimize and weiss over these modules
minimize = importlib.import_module("conefbp.minimize")
weiss = importlib.import_module("conefbp.weiss")

# References.  phi0 comes from the Legendre series below, which shares no
# code with the integrator; the rest are the regression anchors of the
# acceptance criteria at the same parameters.
C0_REF = 0.5884039
C0_TOL = 2e-6
PHI0_TOL = 1e-7
STEKLOV_C = 0.2
STEKLOV_RS = (8.0, 32.0)
STEKLOV_CLOSED = 8.577965235919
STEKLOV_REL_TOL = 1e-8
STEKLOV_REFS = {
    (257, 129): {8.0: 23.807206315478, 32.0: 14.632609983916},
    (65, 33): {8.0: 23.80804410428496, 32.0: 14.63294190236197},
}
BARRIER_SLOPES = (0.0, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3)
BARRIER_C = 0.1
BARRIER_M = 16.0

SCAN_STEP = 1e-3
SCAN_HI = 10.0
ORACLE_SLOPES = (0.5, 1.0, 1.5)


@dataclass
class Op:
    """One timed operation, or one check across operations (zero seconds)."""

    name: str
    seconds: float
    ok: bool
    error: str = ""


@dataclass
class Pass:
    """The operations of one pass, in order, and the pass's wall time."""

    ops: list = field(default_factory=list)
    wall: float = 0.0
    layers: dict | None = None

    def run(self, name, call, check):
        """Time ``call()``; ``check(result)`` returns None or what is wrong.

        Returns the result, or None when the call or its check raised.
        """
        start = time.perf_counter()
        try:
            result = call()
            seconds = time.perf_counter() - start
            problem = check(result)
        except Exception as exc:  # a raising operation is a failed operation
            seconds = time.perf_counter() - start
            self.ops.append(Op(name, seconds, False, f"{type(exc).__name__}: {exc}"))
            return None
        self.ops.append(Op(name, seconds, problem is None, problem or ""))
        return result

    def check(self, name, problem):
        """Record a check across operations; ``problem`` is None when it holds."""
        self.ops.append(Op(name, 0.0, problem is None, problem or ""))

    def seconds(self, name):
        return sum(op.seconds for op in self.ops if op.name == name)


def _within(label, value, ref, tol):
    if abs(value - ref) < tol:
        return None
    return f"{label} = {value!r}, reference {ref!r} within {tol:g}"


def _within_rel(label, value, ref, rel):
    return _within(label, value, ref, rel * abs(ref))


def _median_of(passes, name):
    return statistics.median(p.seconds(name) for p in passes)


# -- Legendre-series oracle ---------------------------------------------------


def legendre_series(lam, phi, terms=6000):
    """Power series in sin^2(phi/2) solving f'' + cot f' + lam f = 0, f(0) = 1.

    a_{k+1} = a_k (k(k+1) - lam) / (k+1)^2 against s^k, s = sin^2(phi/2);
    it shares no code with the package's integrator.
    """
    s = math.sin(0.5 * phi) ** 2
    total = 1.0
    a = 1.0
    for k in range(terms):
        a *= (k * (k + 1) - lam) / ((k + 1) * (k + 1))
        term = a * s ** (k + 1)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def oracle_phi0(c, lo=1.5, hi=3.0, iters=100):
    """First zero of the beta = 1 profile at slope c, by bisection of the series."""
    lam = 2.0 / (1.0 + c * c)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if legendre_series(lam, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- workloads ----------------------------------------------------------------


def scan_slopes(seed, n=201, hi=SCAN_HI):
    """n slopes on [0, hi]: fixed ends, interior jittered by up to 1/4 spacing."""
    rng = random.Random(seed)
    h = hi / (n - 1)
    inner = [(i + rng.uniform(-0.25, 0.25)) * h for i in range(1, n - 1)]
    return [0.0] + inner + [hi]


class SlopeScan:
    """Stability margins over a jittered slope scan, then the critical slope."""

    name = "slope_scan"

    def __init__(self, seed, smoke=False):
        self.slopes = scan_slopes(seed, 21 if smoke else 201)
        h = SCAN_HI / (len(self.slopes) - 1)
        picks = [round(c / h) for c in ORACLE_SLOPES]
        self.oracle = {i: oracle_phi0(self.slopes[i]) for i in picks}
        self.info = {}

    def _check_margin(self, i, rep):
        if not math.isfinite(rep.margin):
            return f"margin at c={self.slopes[i]!r} is {rep.margin!r}"
        if i in self.oracle:
            return _within(f"phi0(c={self.slopes[i]!r})", rep.phi0, self.oracle[i], PHI0_TOL)
        return None

    def run_pass(self, p):
        margins = []
        for i, c in enumerate(self.slopes):
            rep = p.run(
                "margin",
                lambda: stability.stability_margin(c, step=SCAN_STEP),
                lambda rep: self._check_margin(i, rep),
            )
            if rep is not None:
                margins.append(rep.margin)
        signs = np.sign(margins)
        changes = int(np.count_nonzero(signs[:-1] != signs[1:]))
        p.check("scan_sign_changes", None if changes == 1 else f"{changes} margin sign changes, expected 1")
        record = []
        p.run(
            "c0",
            lambda: stability.find_critical_c0((0.0, SCAN_HI), 1e-6, step=SCAN_STEP, record=record),
            lambda c0: _within("c0", c0, C0_REF, C0_TOL),
        )

    def stage_metrics(self, passes):
        lat = [op.seconds for p in passes for op in p.ops if op.name == "margin"]
        return {
            "margin_p50_ms": (1e3 * float(np.percentile(lat, 50)), "ms"),
            "margin_p95_ms": (1e3 * float(np.percentile(lat, 95)), "ms"),
            "margin_samples": (len(lat), "count"),
            "c0_s": (_median_of(passes, "c0"), "s"),
        }


class SteklovLadder:
    """Discrete boundary Rayleigh quotient at two annulus ratios, and its closed form."""

    name = "steklov_ladder"

    def __init__(self, seed, smoke=False):
        self.grid = (65, 33) if smoke else (257, 129)
        self.refs = STEKLOV_REFS[self.grid]
        self.info = {}

    def run_pass(self, p):
        rep = p.run(
            "closed_form",
            lambda: stability.stability_margin(STEKLOV_C, step=SCAN_STEP),
            lambda rep: _within_rel("closed form", rep.ratio, STEKLOV_CLOSED, STEKLOV_REL_TOL),
        )
        lams = {}
        for R in STEKLOV_RS:
            lams[R] = p.run(
                "steklov",
                lambda: stability.steklov_min_quotient(
                    STEKLOV_C, R, num_r=self.grid[0], num_phi=self.grid[1], step=SCAN_STEP
                ),
                lambda lam: _within_rel(f"lambda({R:g})", lam, self.refs[R], STEKLOV_REL_TOL),
            )
        lo, hi = lams[STEKLOV_RS[0]], lams[STEKLOV_RS[1]]
        if rep is None or lo is None or hi is None:
            p.check("steklov_ordering", "an operation of the ladder failed")
            return
        closed = rep.ratio
        ordered = lo > hi > closed
        p.check("steklov_ordering", None if ordered else f"lambda {lo!r} > {hi!r} > closed {closed!r} fails")
        # known red (acceptance criterion 4): reported, never gated
        self.info["lambda32_over_closed_minus_1"] = hi / closed - 1.0

    def stage_metrics(self, passes):
        per_quotient = [op.seconds for p in passes for op in p.ops if op.name == "steklov"]
        return {"steklov_s": (statistics.median(per_quotient), "s")}


def _minimize_against_symmetric(c, n):
    """Minimize from the symmetric solution's data, as ``conefbp minimize`` does."""
    sol = ode.symmetric_solution(c)
    phis = np.linspace(0.0, math.pi, n)
    inside = phis < sol.phi0
    data = np.zeros(n)
    data[inside] = np.clip(sol.profile.sample(phis[inside])[0], 0.0, None)
    res = minimize.minimize(minimize.MinimizeConfig(c=c, nr=n, nphi=n), data)
    ref = grid.field_from_solution(sol, n, n)
    sup, gap, _ = minimize.compare_to_symmetric(res.field, reference=ref)
    return sol, res, sup, gap


def _check_trapped(out):
    sol, res, sup, gap = out
    fb_err = abs(res.fb_mean - sol.phi0)
    if sup <= 0.05 and fb_err <= 0.05 and gap >= -1e-6:
        return None
    return f"c=0.1 minimizer left the symmetric solution: sup {sup!r}, fb error {fb_err!r}, gap {gap!r}"


def _check_descends(n):
    h = max(1.0 / n, math.pi / n)

    def check(out):
        gap = out[3]
        return None if gap < -10.0 * h else f"c=5 energy gap {gap!r} not below {-10.0 * h!r}"

    return check


def _check_search(found):
    c_barrier, reports = found
    certs = [r.config.M for r in reports if r.certified and r.config.c == c_barrier]
    if c_barrier == BARRIER_C and certs == [BARRIER_M]:
        return None
    return f"search certified c={c_barrier!r} with M={certs!r}, expected c={BARRIER_C} with M={BARRIER_M:g}"


def _check_dense(rep):
    if rep.certified and rep.decomposition_margin < 0.0 and rep.laplacian_worst_value < 0.0:
        return None
    return f"dense audit of (c={BARRIER_C}, M={BARRIER_M:g}) does not certify"


def _weiss_variation(c, n):
    fld = grid.field_from_solution(ode.symmetric_solution(c), n, n)
    h = max(float(np.diff(fld.r).max()), float(fld.phi[1] - fld.phi[0]))
    tr = weiss.weiss_trace(fld, 16, 0.1, 0.9)
    return float(tr.values.max() - tr.values.min()), h


class FieldAudit:
    """Minimizer, barrier certificate, lift audit and Weiss monitor on grids."""

    name = "field_audit"

    def __init__(self, seed, smoke=False):
        self.n = 64 if smoke else 128
        self.lift_grids = (64, 128) if smoke else (128, 256)
        self.weiss_n = 128 if smoke else 256
        self.info = {}

    def run_pass(self, p):
        p.run("minimize", lambda: _minimize_against_symmetric(0.1, self.n), _check_trapped)
        p.run("minimize", lambda: _minimize_against_symmetric(5.0, self.n), _check_descends(self.n))
        p.run("certify", lambda: barriers.admissible_parameter_search(BARRIER_SLOPES, num=2001), _check_search)
        dense = p.run("certify", lambda: barriers.audit_pair(BARRIER_C, BARRIER_M, num=10001), _check_dense)
        for n in self.lift_grids:
            if dense is None:
                p.check("lift", "no pasting angle: the dense audit failed")
                continue
            config = barriers.BarrierConfig(c=BARRIER_C, M=BARRIER_M, phi2=dense.phi2)
            p.run(
                "lift",
                lambda: barriers.supersolution_lift_check(config, nr=n, nphi=n),
                lambda lift: None if lift.lift_gradient_ok else f"lift gradient audit fails on {n}x{n}",
            )
        p.run(
            "weiss",
            lambda: _weiss_variation(0.3, self.weiss_n),
            lambda out: None if out[0] <= 5.0 * out[1] else f"Weiss variation {out[0]!r} above 5h = {5.0 * out[1]!r}",
        )

    def stage_metrics(self, passes):
        return {name + "_s": (_median_of(passes, name), "s") for name in ("minimize", "lift", "weiss", "certify")}


WORKLOADS = {w.name: w for w in (SlopeScan, SteklovLadder, FieldAudit)}
