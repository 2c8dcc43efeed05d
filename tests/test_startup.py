"""A command starts with only the modules it runs.

Each case runs in a new interpreter and reads ``sys.modules`` after the
command exits, so that a top-level import added later, which would load
numpy or the numerical modules for every command, fails here.
"""

import json
import os
import subprocess
import sys

import pytest

NUMERICAL = ["ode", "stability", "grid", "minimize", "weiss", "barriers", "quadrature"]

# runs the CLI as ``python -m conefbp.cli`` does, then prints its exit code
# and the modules it loaded as the last line
_RUN_CLI = (
    "import json, runpy, sys\n"
    "sys.argv = ['conefbp'] + json.loads(sys.argv[1])\n"
    "try:\n"
    "    runpy.run_module('conefbp.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)


def _loaded(code, *args):
    """(exit code, loaded module names) of ``code`` run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli(tmp_path, argv):
    return _loaded(_RUN_CLI, json.dumps(argv + ["--out", str(tmp_path)]))


@pytest.mark.parametrize(
    "argv,rc",
    [
        (["morgan", "--k", "3"], 0),
        (["--help"], 0),
        (["phi0", "--bogus"], 2),
    ],
    ids=["morgan", "help", "usage-error"],
)
def test_command_starts_without_numpy(tmp_path, argv, rc):
    code, modules = _cli(tmp_path, argv)
    assert code == rc
    assert [m for m in modules if m == "numpy" or m.startswith("numpy.")] == []
    assert [m for m in NUMERICAL if f"conefbp.{m}" in modules] == []


def test_package_import_loads_no_submodule():
    _, modules = _loaded("import json, sys, conefbp\nprint(json.dumps([0, sorted(sys.modules)]))\n")
    assert "numpy" not in modules
    assert [m for m in modules if m.startswith("conefbp.")] == []


def test_phi0_loads_only_the_integrator(tmp_path):
    code, modules = _cli(tmp_path, ["phi0", "--c", "0.3", "--step", "1e-3"])
    assert code == 0
    assert "conefbp.ode" in modules
    assert [m for m in ("grid", "minimize", "weiss", "barriers") if f"conefbp.{m}" in modules] == []


def test_one_point_sweep_loads_only_the_integrator(tmp_path):
    # one point runs in-process; a report table that imported every
    # report's modules would load the minimizer for each sweep
    code, modules = _cli(tmp_path, ["sweep", "c=0.3:0.3:1", "phi0"])
    assert code == 0
    assert "conefbp.ode" in modules
    unwanted = ("stability", "grid", "minimize", "weiss", "barriers")
    assert [m for m in unwanted if f"conefbp.{m}" in modules] == []
