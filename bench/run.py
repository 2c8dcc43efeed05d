"""Run one benchmark workload and print its result.

    python3 bench/run.py --workload slope_scan --seed 1 --seconds 30 --trace 0

Workloads: slope_scan, steklov_ladder, field_audit (see
``bench/workloads.py``).  The package is imported from the ``src/``
directory beside ``bench/``, never from an installed copy; without it
the run exits with status 2.  The last line of standard output is the
result object (correct, attempted, failed, metrics); the line before it
holds the seed, the machine facts, the pass counts, the per-stage
timings of the workload and any failures.  BLAS runs on one thread:
with two threads on two CPUs the Steklov solve took 13.4 s instead of
11.8 s and kept both CPUs busy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "conefbp" / "__init__.py").is_file():
        print(f"no conefbp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # before numpy is imported, and inherited by the cold starts
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import measure

    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(measure.WORKLOADS)}")
    result, detail = measure.measure(args.workload, args.seed, args.seconds, args.trace)
    for line in detail["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
