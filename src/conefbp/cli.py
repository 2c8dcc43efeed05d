"""Command-line interface: single runs, parameter sweeps, artifacts.

Every subcommand writes deterministic artifacts (JSON for structured
reports, CSV for sweeps and plot data) into the output directory and
appends one line to run_records.jsonl with the subcommand's parameter
map, the tool version and the wall time.  Identical parameters and version
reproduce byte-identical primary artifacts; the run record is the only
file carrying timing.  Exit codes: 0 success, 2 invalid arguments,
3 numerical non-convergence.  Single reports integrate profiles at
ode.DEFAULT_STEP (2^-13), the library's default; only the scans
critical-c and sweep default to the coarser _SCAN_STEP.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .barriers import BarrierConfig, admissible_parameter_search, supersolution_lift_check
from .errors import ConvergenceFailureError, InvalidParameterError
from .geometry import is_minimizing, morgan_threshold
from .grid import field_from_solution, make_field, save_field_text
from .minimize import MinimizeConfig, compare_to_symmetric, energy, minimize
from .ode import DEFAULT_STEP, PHI_CAP, integrate_profile, symmetric_solution
from .stability import find_critical_c0, stability_margin, steklov_min_quotient
from .weiss import weiss_trace

_SWEEP_COLUMNS = {
    "stability": ("c", "phi0", "H1", "margin", "stable"),
    "phi0": ("c", "phi0"),
    "morgan": ("k", "c_threshold"),
    "minimize": ("c", "energy", "energy_gap", "fb_mean", "vertex_touch"),
}
# a typo in a sweep count must fail as an invalid argument, not as an allocation
_MAX_SWEEP_POINTS = 100_000
# default step of the scans, which integrate a profile pair per point
_SCAN_STEP = 1e-3


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def _write_artifact(out_dir, name, payload: bytes) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "wb") as fh:
        fh.write(payload)
    return path


def _append_record(out_dir, command, params, outputs, wall) -> None:
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "command": command,
        "params": params,
        "version": __version__,
        "outputs": outputs,
        "wall_seconds": wall,
    }
    with open(os.path.join(out_dir, "run_records.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def _cmd_profile(args, out):
    prof = integrate_profile(args.beta, args.c, args.phi_max, step=args.step)
    name = f"profile_beta{args.beta:g}_c{args.c:g}.txt"
    path = _write_artifact(out, name, prof.to_text().encode())
    summary = {"beta": args.beta, "c": args.c, "step": args.step, "nodes": len(prof.grid)}
    _write_artifact(out, name.replace(".txt", ".json"), _json_bytes(summary))
    artifacts = [name, name.replace(".txt", ".json")]
    if args.plot_data:
        plot = name.replace(".txt", "_plot.csv")
        _write_artifact(out, plot, _csv_bytes(("phi", "f"), zip(prof.grid, prof.values)))
        artifacts.append(plot)
    print(f"profile beta={args.beta:g} c={args.c:g}: {len(prof.grid)} nodes -> {path}")
    return summary, artifacts


def _cmd_phi0(args, out):
    sol = symmetric_solution(args.c, step=args.step)
    payload = {"c": args.c, "phi0": sol.phi0, "t0": sol.t0, "H1": sol.H1}
    name = f"phi0_c{args.c:g}.json"
    _write_artifact(out, name, _json_bytes(payload))
    print(f"phi0(c={args.c:g}) = {sol.phi0:.10f}")
    return payload, [name]


def _cmd_stability(args, out):
    rep = stability_margin(args.c, step=args.step)
    payload = rep.to_dict()
    name = f"stability_c{args.c:g}.json"
    _write_artifact(out, name, _json_bytes(payload))
    print(
        f"stability(c={args.c:g}): margin={rep.margin:+.6e} -> "
        + ("stable" if rep.stable else "unstable")
    )
    return payload, [name]


def _cmd_critical_c(args, out):
    record = []
    c0 = find_critical_c0((args.lo, args.hi), args.tol, step=args.step, record=record)
    payload = {"lo": args.lo, "hi": args.hi, "tol": args.tol, "c0": c0}
    name = "critical_c.json"
    _write_artifact(out, name, _json_bytes(payload))
    rows = [_stability_row(r) for r in record]
    csv_name = "critical_c_trace.csv"
    _write_artifact(out, csv_name, _csv_bytes(_SWEEP_COLUMNS["stability"], rows))
    print(f"critical slope c0 = {c0:.8f} ({len(record)} margin evaluations)")
    return payload, [name, csv_name]


def _cmd_steklov(args, out):
    sol = symmetric_solution(args.c, step=args.step)
    lam = steklov_min_quotient(
        args.c, args.R, num_r=args.grid[0], num_phi=args.grid[1], step=args.step, sol=sol
    )
    rep = stability_margin(args.c, step=args.step, sol=sol)
    payload = {"c": args.c, "R": args.R, "lambda": lam, "closed_form": rep.ratio}
    name = f"steklov_c{args.c:g}_R{args.R:g}.json"
    _write_artifact(out, name, _json_bytes(payload))
    print(f"steklov(c={args.c:g}, R={args.R:g}) = {lam:.8f} (closed form {rep.ratio:.8f})")
    return payload, [name]


def _minimize_against_symmetric(c, step, grid):
    """Minimize with the symmetric solution as data at r = 1; returns (result, reference field)."""
    sol = symmetric_solution(c, step=step)
    ref = field_from_solution(sol, grid[0], grid[1])
    # the reference grid ends at r = 1, so its last row is the boundary data
    res = minimize(MinimizeConfig(c=c, nr=grid[0], nphi=grid[1]), ref.values[-1])
    return res, ref


def _cmd_minimize(args, out):
    res, ref = _minimize_against_symmetric(args.c, args.step, args.grid)
    sup, gap, touch = compare_to_symmetric(res.field, reference=ref)
    payload = {
        "c": args.c,
        "grid": list(args.grid),
        "energy": res.energy,
        "energy_reference": energy(ref),
        "energy_gap": gap,
        "sup_distance": sup,
        "fb_mean": res.fb_mean,
        "fb_spread": res.fb_spread,
        "fb_angles": [[r, a] for r, a in res.fb_angle_per_radius],
        "vertex_touch": touch,
    }
    name = f"minimize_c{args.c:g}.json"
    _write_artifact(out, name, _json_bytes(payload))
    snap = f"minimize_c{args.c:g}_field.txt"
    save_field_text(res.field, os.path.join(out, snap))
    print(f"minimize(c={args.c:g}): energy={res.energy:.8f} gap={gap:+.3e} fb={res.fb_mean}")
    return payload, [name, snap]


def _cmd_weiss(args, out):
    sol = symmetric_solution(args.c, step=args.step)
    fld = field_from_solution(sol, args.grid[0], args.grid[1])
    tr = weiss_trace(fld, num_radii=args.radii)
    rows = list(zip(tr.radii, tr.values))
    name = f"weiss_c{args.c:g}.csv"
    _write_artifact(out, name, _csv_bytes(("r", "W"), rows))
    payload = {
        "c": args.c,
        "monotone_violation": tr.monotone_violation,
        "homogeneity_flag": tr.homogeneity_flag,
        "variation": float(tr.values.max() - tr.values.min()),
    }
    jname = f"weiss_c{args.c:g}.json"
    _write_artifact(out, jname, _json_bytes(payload))
    print(
        f"weiss(c={args.c:g}): variation={payload['variation']:.3e} "
        f"homogeneous={tr.homogeneity_flag}"
    )
    return payload, [name, jname]


def _cmd_barriers(args, out):
    if args.M is None and args.phi2 is not None:
        raise InvalidParameterError("--phi2 sets the lift's pasting angle and needs --M")
    if args.M is not None:
        sol = symmetric_solution(args.c)
        phi2 = args.phi2 if args.phi2 is not None else sol.phi0 + 0.1
        cfg = BarrierConfig(c=args.c, M=args.M, phi2=phi2)
        lift = supersolution_lift_check(cfg, sol=sol)
        payload = {
            "c": args.c,
            "M": args.M,
            "phi2": phi2,
            "epsilon": lift.epsilon,
            "flat_margin": lift.flat_margin,
            "flux_margin": lift.flux_margin,
            "lift_gradient_ok": lift.lift_gradient_ok,
        }
    else:
        cb, reports = admissible_parameter_search([args.c])
        cert = next((r for r in reports if r.certified), None)
        payload = {"c": args.c, "certified": cert is not None}
        if cert is not None:
            payload.update(cert.to_dict())
    name = f"barriers_c{args.c:g}.json"
    _write_artifact(out, name, _json_bytes(payload))
    print(f"barriers(c={args.c:g}): {json.dumps(payload['checks'] if 'checks' in payload else payload, sort_keys=True)}")
    return payload, [name]


def _cmd_morgan(args, out):
    thr = morgan_threshold(args.k)
    payload = {
        "k": args.k,
        "c_threshold": thr,
        "is_minimizing_at_threshold": is_minimizing(args.k, thr),
    }
    name = f"morgan_k{args.k}.json"
    _write_artifact(out, name, _json_bytes(payload))
    print(f"morgan(k={args.k}) threshold = {thr:.10f}")
    return payload, [name]


def _stability_row(rep):
    return tuple(getattr(rep, col) for col in _SWEEP_COLUMNS["stability"])


def _sweep_point(task):
    name, value, args_dict = task
    try:
        if name == "stability":
            return ("ok", _stability_row(stability_margin(value, step=args_dict["step"])))
        if name == "phi0":
            sol = symmetric_solution(value, step=args_dict["step"])
            return ("ok", (value, sol.phi0))
        if name == "morgan":
            return ("ok", (int(value), morgan_threshold(int(value))))
        res, ref = _minimize_against_symmetric(value, args_dict["step"], args_dict["grid"])
        _, gap, touch = compare_to_symmetric(res.field, reference=ref)
        return ("ok", (value, res.energy, gap, res.fb_mean, touch))
    except Exception as exc:  # per-point failures land in the row status
        return (f"error: {exc}", None)


def _worker_count(num_tasks) -> int:
    """Sweep processes to start: at most one per task and per CPU, and 8.

    One means the sweep runs in-process.  Under the fork start method
    the pool starts all of its workers up front, whatever the number of
    tasks.
    """
    return max(1, min(8, num_tasks, os.cpu_count() or 1))


def _cmd_sweep(args, out):
    name, grid_values = _parse_grid_spec(args.spec)
    sub = args.subcommand
    if sub not in _SWEEP_COLUMNS:
        raise InvalidParameterError(f"sweep does not support subcommand {sub!r}")
    swept = _SWEEP_COLUMNS[sub][0]
    if name != swept:
        raise InvalidParameterError(f"sweep {sub} runs over {swept}, not {name!r}")
    # a bad shared grid or a non-integer k would fail or be truncated: reject it up front
    if sub == "minimize":
        make_field(*args.grid, 0.0)
    if sub == "morgan":
        for k in grid_values:
            morgan_threshold(float(k))
    header = _SWEEP_COLUMNS[sub] + ("status",)
    shared = {"step": args.step, "grid": args.grid}
    tasks = [(sub, v, shared) for v in grid_values]
    workers = _worker_count(len(tasks))
    if workers > 1:
        # imported here: its ~18 ms import serves no other command
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    rows = []
    failures = 0
    for value, (status, row) in zip(grid_values, results):
        if row is None:
            failures += 1
            rows.append(tuple([value] + [None] * (len(header) - 2) + [status]))
        else:
            rows.append(tuple(list(row) + [status]))
    csv_name = f"sweep_{sub}_{name}.csv"
    _write_artifact(out, csv_name, _csv_bytes(header, rows))
    print(f"sweep {sub} over {name}: {len(rows)} rows, {failures} failures -> {csv_name}")
    payload = {"rows": len(rows), "failures": failures}
    if failures == len(rows) and rows:
        raise ConvergenceFailureError("every sweep point failed")
    return payload, [csv_name]


def _parse_grid_spec(spec: str):
    try:
        name, _, rng = spec.partition("=")
        start_s, stop_s, count_s = rng.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise InvalidParameterError(f"bad grid spec {spec!r}; expected name=start:stop:count") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise InvalidParameterError(f"grid spec {spec!r} needs a finite start and stop")
    if not 0 <= count <= _MAX_SWEEP_POINTS:
        raise InvalidParameterError(f"grid count must be between 0 and {_MAX_SWEEP_POINTS}")
    if count == 0:
        return name.strip(), []
    if count == 1:
        return name.strip(), [start]
    return name.strip(), list(np.linspace(start, stop, count))


def _grid_pair(text: str):
    try:
        a, b = text.split(",")
        return (int(a), int(b))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("grid must be Nr,Nphi") from exc


# every option, defined once; a subcommand takes the ones it names below
_FLAGS = {
    "c": {"type": float, "default": 0.0},
    "step": {"type": float, "default": DEFAULT_STEP},
    "tol": {"type": float, "default": 1e-6},
    "grid": {"type": _grid_pair, "default": (128, 128)},
    "out": {"default": "out"},
    "plot-data": {"action": "store_true"},
    "beta": {"type": float, "default": 1.0},
    "phi-max": {"type": float, "default": PHI_CAP},
    "lo": {"type": float, "default": 0.0},
    "hi": {"type": float, "default": 10.0},
    "R": {"type": float, "default": 32.0},
    "radii": {"type": int, "default": 16},
    "M": {"type": float, "default": None},
    "phi2": {"type": float, "default": None},
    "k": {"type": int, "required": True},
}

# subcommand: (handler, help, options it reads, defaults that differ from _FLAGS)
_COMMANDS = {
    "profile": (_cmd_profile, "integrate one separated profile",
                "c step out plot-data beta phi-max", {}),
    "phi0": (_cmd_phi0, "free boundary angle of the symmetric solution", "c step out", {}),
    "stability": (_cmd_stability, "stability margin at one slope", "c step out", {}),
    "critical-c": (_cmd_critical_c, "locate the critical slope by ITP", "step tol out lo hi",
                   {"step": _SCAN_STEP}),
    "steklov": (_cmd_steklov, "discrete boundary Rayleigh quotient minimum", "c step grid out R",
                {"c": 0.2, "grid": (257, 129)}),
    "minimize": (_cmd_minimize, "minimize the penalized energy", "c step grid out", {}),
    "weiss": (_cmd_weiss, "scale monitor trace for the symmetric solution",
              "c step grid out radii", {}),
    "barriers": (_cmd_barriers, "barrier certification at one slope", "c out M phi2", {}),
    "morgan": (_cmd_morgan, "plane-through-vertex minimality threshold", "out k", {}),
    "sweep": (_cmd_sweep, "map a subcommand over a parameter grid", "step grid out",
              {"step": _SCAN_STEP, "grid": (64, 64)}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conefbp",
        description="Free boundary problem laboratory on right circular cones",
    )
    subparsers = parser.add_subparsers(dest="command")
    for name, (_, help_text, flags, defaults) in _COMMANDS.items():
        p = subparsers.add_parser(name, help=help_text)
        if name == "sweep":
            p.add_argument("spec", help="grid spec c=start:stop:count (k=... for morgan)")
            p.add_argument("subcommand", help="one of: " + ", ".join(sorted(_SWEEP_COLUMNS)))
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(**defaults)
    return parser


def _config_args(path, command) -> list:
    """The options of a ``key = value`` file as arguments of ``command``.

    They go before the command line's own arguments, so explicit flags
    win; the subcommand's parser types them like typed-in flags.
    """
    flags = _COMMANDS[command][2].split()
    args = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            flag = key.strip().replace("_", "-")
            if flag not in flags:
                raise ValueError(f"{command} takes no option {key.strip()!r}")
            val = val.strip()
            if _FLAGS[flag].get("action") != "store_true":
                args.append(f"--{flag}={val}")
            elif val.lower() in ("1", "true", "yes"):
                args.append(f"--{flag}")
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 >= len(argv):
            print("--config needs a path", file=sys.stderr)
            return 2
        path = argv[i + 1]
        del argv[i : i + 2]
        if argv and argv[0] in _COMMANDS:
            try:
                argv[1:1] = _config_args(path, argv[0])
            except (OSError, ValueError) as exc:
                print(f"bad config file: {exc}", file=sys.stderr)
                return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage()
        return 2
    handler = _COMMANDS[args.command][0]
    start = time.perf_counter()
    try:
        payload, artifacts = handler(args, args.out)
    except (InvalidParameterError, ValueError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except ConvergenceFailureError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - start
    params = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in vars(args).items()
        if k != "command"
    }
    _append_record(args.out, args.command, params, artifacts, wall)
    return 0


if __name__ == "__main__":
    sys.exit(main())
