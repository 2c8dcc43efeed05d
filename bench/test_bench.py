"""The benchmark's own tests: reduced-size passes of each workload and its gates."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from conefbp import barriers, ode, stability  # noqa: E402

from bench import measure, tracing, workloads  # noqa: E402
from bench.workloads import Pass  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_is_correct(name):
    result, detail = measure.measure(name, 1, 0.0, 0, smoke=True)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] > 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == measure.END_TO_END
    assert all(v["value"] > 0.0 for v in result["metrics"].values())


def test_traced_smoke_pass_reports_every_layer_metric():
    result, detail = measure.measure("slope_scan", 2, 0.0, 1, smoke=True)
    assert result["correct"], detail["failures"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == measure.PER_LAYER
    # 21 scan margins and the bisection's margins, two profiles each
    margins = metrics["stability.margin_calls"]["value"]
    assert margins == 21 + metrics["stability.c0_evals"]["value"]
    assert metrics["ode.integrations"]["value"] == 2 * margins
    assert detail["self_share"]["ode"] > 0.5


def test_tracer_counts_repeat_and_originals_come_back():
    originals = (stability.symmetric_solution, barriers.symmetric_solution, ode.RadialProfile.sample)
    ladder = workloads.SteklovLadder(1, smoke=True)
    with tracing.Tracer() as tracer:
        assert stability.symmetric_solution is barriers.symmetric_solution
        assert stability.symmetric_solution is not originals[0]
        summaries = []
        for _ in range(2):
            tracer.reset()
            p = Pass()
            ladder.run_pass(p)
            assert all(op.ok for op in p.ops)
            summaries.append(tracer.summary())
    counts = [{k: v for k, v in s.items() if measure.PER_LAYER[k] == "count"} for s in summaries]
    assert counts[0] == counts[1]
    assert counts[0]["stability.margin_calls"] == 1
    assert summaries[0]["stability.steklov_self_s"] > 0.0
    assert (stability.symmetric_solution, barriers.symmetric_solution, ode.RadialProfile.sample) == originals


def test_shifted_reference_lands_in_fail_ratio(monkeypatch):
    refs = workloads.STEKLOV_REFS[(65, 33)]
    monkeypatch.setitem(refs, 8.0, refs[8.0] * (1.0 + 1e-6))
    result, detail = measure.measure("steklov_ladder", 1, 0.0, 0, smoke=True)
    assert not result["correct"]
    assert result["failed"] == 1
    assert detail["fail_ratio"] == 1 / result["attempted"]
    assert detail["failures"][0].startswith("steklov: lambda(8)")


def test_raising_operation_or_check_counts_as_failed():
    p = Pass()
    assert p.run("div", lambda: 1 / 0, lambda r: None) is None
    assert p.run("check", lambda: 1.0, lambda r: r.missing) is None
    assert p.run("fine", lambda: 2.0, lambda r: None) == 2.0
    assert [(op.name, op.ok) for op in p.ops] == [("div", False), ("check", False), ("fine", True)]
    assert p.ops[0].error.startswith("ZeroDivisionError")


def test_seed_drives_the_scan_jitter():
    a, b = workloads.scan_slopes(1), workloads.scan_slopes(2)
    assert a == workloads.scan_slopes(1) and a != b
    assert (a[0], a[-1], len(a)) == (0.0, 10.0, 201)
    h = 10.0 / 200
    assert all(abs(c - i * h) <= 0.25 * h for i, c in enumerate(a))


def test_oracle_matches_the_series_anchors():
    # the anchors of tests/test_ode.py
    assert abs(workloads.oracle_phi0(0.5) - 1.7236976651367066) < 1e-12
    assert abs(workloads.oracle_phi0(1.0) - 2.0664612598765970) < 1e-12


def test_run_without_sources_exits_2_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "slope_scan", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
