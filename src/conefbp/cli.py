"""Command-line interface: single runs, parameter sweeps, artifacts.

Every subcommand writes deterministic artifacts (JSON for structured
reports, CSV for sweeps and plot data) into the output directory and
appends one line to run_records.jsonl with the subcommand's parameter
map, the tool version and the wall time.  Identical parameters and version
reproduce byte-identical primary artifacts; the run record is the only
file carrying timing.  Exit codes: 0 success, 2 invalid arguments,
3 numerical non-convergence.  Single reports integrate profiles at
ode.DEFAULT_STEP (2^-13), the library's default; only the scans
critical-c and sweep default to the coarser _SCAN_STEP.  A sweep row
holds values of the JSON report its subcommand writes.  Each handler
imports the numerical modules it runs, so a command loads only those:
morgan, --help and argument errors start without numpy.  An artifact
that cannot be written is an invalid argument.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import sys
import time

from . import __version__
from .errors import ConvergenceFailureError, InvalidParameterError
from .geometry import is_minimizing, morgan_threshold

# a typo in a sweep count must fail as an invalid argument, not as an allocation
_MAX_SWEEP_POINTS = 100_000
# default step of the scans, which integrate a profile pair per point
_SCAN_STEP = 1e-3


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


@contextlib.contextmanager
def _artifact_path(out_dir, name):
    """The path of ``name`` in the created ``out_dir``; an OSError in the block is an invalid argument."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        yield os.path.join(out_dir, name)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {name}: {exc}") from None


def _write_artifact(out_dir, name, payload: bytes) -> str:
    with _artifact_path(out_dir, name) as path, open(path, "wb") as fh:
        fh.write(payload)
    return path


def _append_record(out_dir, command, params, outputs, wall) -> None:
    record = {
        "command": command,
        "params": params,
        "version": __version__,
        "outputs": outputs,
        "wall_seconds": wall,
    }
    with _artifact_path(out_dir, "run_records.jsonl") as path, open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _emit(out, name, payload, line):
    """Write ``payload`` as the JSON artifact ``name`` and print ``line``: a handler's result."""
    _write_artifact(out, name, _json_bytes(payload))
    print(line)
    return payload, [name]


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


def _phi0_report(args):
    from .ode import symmetric_solution

    sol = symmetric_solution(args.c, step=args.step)
    return {"c": args.c, "phi0": sol.phi0, "t0": sol.t0, "H1": sol.H1}


def _stability_report(args):
    from .stability import stability_margin

    return stability_margin(args.c, step=args.step).to_dict()


def _morgan_report(args):
    thr = morgan_threshold(args.k)
    return {"k": args.k, "c_threshold": thr, "is_minimizing_at_threshold": is_minimizing(args.k, thr)}


def _minimize_report(args, fields=None):
    """Minimize from the symmetric solution's data at r = 1; the field goes to ``fields`` if given."""
    from .grid import field_from_solution
    from .minimize import MinimizeConfig, compare_to_symmetric, energy, minimize
    from .ode import symmetric_solution

    sol = symmetric_solution(args.c, step=args.step)
    ref = field_from_solution(sol, *args.grid)
    # the reference grid ends at r = 1, so its last row is the boundary data
    res = minimize(MinimizeConfig(c=args.c, nr=args.grid[0], nphi=args.grid[1]), ref.values[-1])
    sup, gap, touch = compare_to_symmetric(res.field, reference=ref)
    if fields is not None:
        fields.append(res.field)
    return {
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


# sweepable subcommand: (report, which gives the JSON payload the subcommand
# writes; the payload keys of a sweep row, the swept name first; the module
# its points run, imported before the pool forks)
_SWEEPS = {
    "stability": (_stability_report, ("c", "phi0", "H1", "margin", "stable"), "stability"),
    "phi0": (_phi0_report, ("c", "phi0"), "ode"),
    "morgan": (_morgan_report, ("k", "c_threshold"), "geometry"),
    "minimize": (_minimize_report, ("c", "energy", "energy_gap", "fb_mean", "vertex_touch"), "minimize"),
}


def _cmd_profile(args, out):
    from .ode import integrate_profile

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
    payload = _phi0_report(args)
    return _emit(out, f"phi0_c{args.c:g}.json", payload, f"phi0(c={args.c:g}) = {payload['phi0']:.10f}")


def _cmd_stability(args, out):
    payload = _stability_report(args)
    verdict = "stable" if payload["stable"] else "unstable"
    line = f"stability(c={args.c:g}): margin={payload['margin']:+.6e} -> {verdict}"
    return _emit(out, f"stability_c{args.c:g}.json", payload, line)


def _cmd_critical_c(args, out):
    from .stability import find_critical_c0

    record = []
    c0 = find_critical_c0((args.lo, args.hi), args.tol, step=args.step, record=record)
    columns = _SWEEPS["stability"][1]
    rows = [tuple(rep.to_dict()[col] for col in columns) for rep in record]
    _write_artifact(out, "critical_c_trace.csv", _csv_bytes(columns, rows))
    payload = {"lo": args.lo, "hi": args.hi, "tol": args.tol, "c0": c0}
    line = f"critical slope c0 = {c0:.8f} ({len(record)} margin evaluations)"
    _emit(out, "critical_c.json", payload, line)
    return payload, ["critical_c.json", "critical_c_trace.csv"]


def _cmd_steklov(args, out):
    from .ode import symmetric_solution
    from .stability import stability_margin, steklov_min_quotient

    sol = symmetric_solution(args.c, step=args.step)
    lam = steklov_min_quotient(
        args.c, args.R, num_r=args.grid[0], num_phi=args.grid[1], step=args.step, sol=sol
    )
    rep = stability_margin(args.c, step=args.step, sol=sol)
    payload = {"c": args.c, "R": args.R, "lambda": lam, "closed_form": rep.ratio}
    line = f"steklov(c={args.c:g}, R={args.R:g}) = {lam:.8f} (closed form {rep.ratio:.8f})"
    return _emit(out, f"steklov_c{args.c:g}_R{args.R:g}.json", payload, line)


def _cmd_minimize(args, out):
    from .grid import save_field_text

    fields = []
    payload = _minimize_report(args, fields)
    snap = f"minimize_c{args.c:g}_field.txt"
    with _artifact_path(out, snap) as path:
        save_field_text(fields[0], path)
    name = f"minimize_c{args.c:g}.json"
    line = (
        f"minimize(c={args.c:g}): energy={payload['energy']:.8f} "
        f"gap={payload['energy_gap']:+.3e} fb={payload['fb_mean']}"
    )
    _emit(out, name, payload, line)
    return payload, [name, snap]


def _cmd_weiss(args, out):
    from .grid import field_from_solution
    from .ode import symmetric_solution
    from .weiss import weiss_trace

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
    line = f"weiss(c={args.c:g}): variation={payload['variation']:.3e} homogeneous={tr.homogeneity_flag}"
    _emit(out, jname, payload, line)
    return payload, [name, jname]


def _cmd_barriers(args, out):
    if args.M is None and args.phi2 is not None:
        raise InvalidParameterError("--phi2 sets the lift's pasting angle and needs --M")
    from .barriers import BarrierConfig, admissible_parameter_search, supersolution_lift_check
    from .ode import symmetric_solution

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
    shown = json.dumps(payload['checks'] if 'checks' in payload else payload, sort_keys=True)
    return _emit(out, f"barriers_c{args.c:g}.json", payload, f"barriers(c={args.c:g}): {shown}")


def _cmd_morgan(args, out):
    payload = _morgan_report(args)
    line = f"morgan(k={args.k}) threshold = {payload['c_threshold']:.10f}"
    return _emit(out, f"morgan_k{args.k}.json", payload, line)


def _sweep_point(task):
    """The CSV row of one sweep point: its report's columns, then its status."""
    sub, args = task
    report, columns, _ = _SWEEPS[sub]
    try:
        payload = report(args)
    except Exception as exc:  # per-point failures land in the row status
        return (getattr(args, columns[0]),) + (None,) * (len(columns) - 1) + (f"error: {exc}",)
    return tuple(payload[col] for col in columns) + ("ok",)


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
    if sub not in _SWEEPS:
        raise InvalidParameterError(f"sweep does not support subcommand {sub!r}")
    _, columns, module = _SWEEPS[sub]
    if name != columns[0]:
        raise InvalidParameterError(f"sweep {sub} runs over {columns[0]}, not {name!r}")
    # a bad shared step or grid would fail every point, a non-integer k
    # would be truncated: reject them up front
    if sub == "morgan":
        for k in grid_values:
            morgan_threshold(k)
        grid_values = [int(k) for k in grid_values]
    else:
        from .ode import PHI_CAP, as_step

        # every point integrates its profiles up to PHI_CAP
        as_step(args.step, PHI_CAP)
    if sub == "minimize":
        from .grid import make_field

        make_field(*args.grid, 0.0)
    # the points' module, imported before the pool starts so that forked
    # workers inherit it instead of each importing it
    importlib.import_module(f".{module}", __package__)
    tasks = [(sub, argparse.Namespace(step=args.step, grid=args.grid, **{name: v})) for v in grid_values]
    workers = _worker_count(len(tasks))
    if workers > 1:
        # imported here: its ~18 ms import serves no other command
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]
    failures = sum(row[-1] != "ok" for row in rows)
    csv_name = f"sweep_{sub}_{name}.csv"
    _write_artifact(out, csv_name, _csv_bytes(columns + ("status",), rows))
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
    import numpy as np

    return name.strip(), list(np.linspace(start, stop, count))


def _grid_pair(text: str):
    try:
        a, b = text.split(",")
        return (int(a), int(b))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("grid must be Nr,Nphi") from exc


# every option, defined once; a subcommand takes the ones it names below.
# A None default of step or phi-max is filled in after parsing from
# _ODE_DEFAULTS, so that only the commands that read them import ode
_FLAGS = {
    "c": {"type": float, "default": 0.0},
    "step": {"type": float, "default": None},
    "tol": {"type": float, "default": 1e-6},
    "grid": {"type": _grid_pair, "default": (128, 128)},
    "out": {"default": "out"},
    "plot-data": {"action": "store_true"},
    "beta": {"type": float, "default": 1.0},
    "phi-max": {"type": float, "default": None},
    "lo": {"type": float, "default": 0.0},
    "hi": {"type": float, "default": 10.0},
    "R": {"type": float, "default": 32.0},
    "radii": {"type": int, "default": 16},
    "M": {"type": float, "default": None},
    "phi2": {"type": float, "default": None},
    "k": {"type": int, "required": True},
}

# option dest -> the ode constant that is its default
_ODE_DEFAULTS = {"step": "DEFAULT_STEP", "phi_max": "PHI_CAP"}

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
            p.add_argument("subcommand", help="one of: " + ", ".join(sorted(_SWEEPS)))
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
    for dest, constant in _ODE_DEFAULTS.items():
        if getattr(args, dest, 0.0) is None:
            setattr(args, dest, getattr(importlib.import_module(".ode", __package__), constant))
    handler = _COMMANDS[args.command][0]
    params = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in vars(args).items()
        if k != "command"
    }
    start = time.perf_counter()
    try:
        _, artifacts = handler(args, args.out)
        _append_record(args.out, args.command, params, artifacts, time.perf_counter() - start)
    except (InvalidParameterError, ValueError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except ConvergenceFailureError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
