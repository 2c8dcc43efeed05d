"""Measurement loop, set-up timing, machine facts and the result object.

A run measures one workload.  With ``trace=0`` it times cold starts of
the command-line tool (``setup_s``), then runs passes of the workload
until the next pass would overrun ``seconds``, and reports the end-to-end
metrics.  With ``trace=1`` it times cold imports (``cli.import_s``), runs
traced passes in the same way, and reports the per-layer metrics, among
them the traced pass time ``trace.wall_s``; the tracing overhead is that
minus the untraced run's ``wall_s``.  Every operation, set-up included,
is checked and counted in ``attempted``.  The metric names and units are
those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench import tracing
from bench.workloads import WORKLOADS, Pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# a cold start takes about 0.33 s; 21 of them keep the median steady
SETUP_REPEATS = 21
COLD_TIMEOUT_S = 60
MORGAN_K3 = 1.0 / (2.0 * math.sqrt(2.0))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def machine_facts():
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def cold_starts(p, name, args, check, repeats):
    """Run ``python args`` in a fresh interpreter ``repeats`` times, timed and checked."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for _ in range(repeats):
        p.run(
            name,
            lambda: subprocess.run(
                [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=COLD_TIMEOUT_S
            ),
            check,
        )
    return statistics.median(op.seconds for op in p.ops if op.name == name)


def _exited_cleanly(proc):
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"


def timed_passes(workload, seconds, tracer=None):
    """Run passes until the next one, at the median pass time, would overrun."""
    passes = []
    start = time.perf_counter()
    while True:
        p = Pass()
        if tracer is not None:
            tracer.reset()
        t = time.perf_counter()
        workload.run_pass(p)
        p.wall = time.perf_counter() - t
        if tracer is not None:
            p.layers = tracer.summary()
        passes.append(p)
        typical = statistics.median(q.wall for q in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result object, detail object)."""
    workload = WORKLOADS[name](seed, smoke=smoke)
    setup_repeats = 1 if smoke else SETUP_REPEATS
    setup = Pass()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as tmp:
        if trace:
            import_s = cold_starts(setup, "import", ["-c", "import conefbp"], _exited_cleanly, setup_repeats)
        else:

            def morgan_ok(proc):
                problem = _exited_cleanly(proc)
                if problem:
                    return problem
                artifact = os.path.join(tmp, "morgan_k3.json")
                with open(artifact) as fh:
                    value = json.load(fh)["c_threshold"]
                os.remove(artifact)  # each start must write its own
                return None if abs(value - MORGAN_K3) <= 1e-12 else f"morgan threshold {value!r}"

            cli = ["-m", "conefbp.cli", "morgan", "--k", "3", "--out", tmp]
            setup_s = cold_starts(setup, "setup", cli, morgan_ok, setup_repeats)

    with tracing.Tracer() if trace else contextlib.nullcontext() as tracer:
        passes = timed_passes(workload, seconds, tracer)
    wall_s = statistics.median(p.wall for p in passes)

    ops = [op for p in [setup, *passes] for op in p.ops]
    failed = [op for op in ops if not op.ok]
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "machine": machine_facts(),
        "setup_runs": setup_repeats,
        "passes": len(passes),
        "fail_ratio": len(failed) / len(ops),
        "stage_metrics": {k: _metric(v, u) for k, (v, u) in workload.stage_metrics(passes).items()},
        "info": workload.info,
        "failures": [f"{op.name}: {op.error}" for op in failed[:10]],
    }
    if trace:
        values = {key: statistics.median(p.layers[key] for p in passes) for key in passes[0].layers}
        values.update({"cli.import_s": import_s, "trace.wall_s": wall_s})
        detail["self_share"] = {layer: values[f"{layer}.self_s"] / wall_s for layer in tracing.SPANS}
        units = PER_LAYER
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    metrics = {key: _metric(values[key], unit) for key, unit in units.items()}
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    return result, detail
