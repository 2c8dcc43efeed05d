import importlib
import json
import math
import os
import subprocess
import sys

import pytest

from conefbp import cli, stability
from conefbp.cli import _json_bytes, _worker_count, main
from conefbp.ode import symmetric_solution
from conefbp.stability import stability_margin, steklov_min_quotient


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSingleCommands:
    def test_phi0_flat(self, tmp_path, capsys):
        rc = main(["phi0", "--c", "0", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1.5707963" in out
        payload = read_json(tmp_path / "phi0_c0.json")
        assert abs(payload["phi0"] - math.pi / 2.0) < 1e-8

    def test_morgan(self, tmp_path, capsys):
        rc = main(["morgan", "--k", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert "0.3535533906" in capsys.readouterr().out

    def test_stability(self, tmp_path):
        rc = main(["stability", "--c", "0.2", "--step", "1e-3", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "stability_c0.2.json")
        assert payload["stable"] is True
        assert main(["stability", "--c", "0", "--step", "1e-3", "--out", str(tmp_path)]) == 0
        assert abs(read_json(tmp_path / "stability_c0.json")["margin"] - 0.26967630174) < 1e-10

    def test_stability_where_phi0_rounds_to_pi(self, tmp_path):
        rc = main(["stability", "--c", "20", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "stability_c20.json")
        assert payload["stable"] is False
        assert math.isfinite(payload["margin"])

    def test_critical_c(self, tmp_path, capsys):
        rc = main(
            ["critical-c", "--lo", "0.3", "--hi", "1.0", "--tol", "1e-3", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = read_json(tmp_path / "critical_c.json")
        assert 0.55 < payload["c0"] < 0.62
        trace = (tmp_path / "critical_c_trace.csv").read_text().splitlines()
        assert trace[0] == "c,phi0,H1,margin,stable"
        assert len(trace) > 5

    def test_profile_artifact(self, tmp_path):
        rc = main(["profile", "--beta", "-0.5", "--c", "0.3", "--step", "1e-3", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "profile_beta-0.5_c0.3.txt").exists()

    def test_profile_plot_data(self, tmp_path):
        rc = main(
            ["profile", "--c", "0.3", "--step", "1e-3", "--plot-data", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "profile_beta1_c0.3_plot.csv").read_text().splitlines()
        assert lines[0] == "phi,f"
        assert len(lines) > 1000

    def test_weiss(self, tmp_path):
        rc = main(["weiss", "--c", "0.3", "--grid", "96,96", "--step", "1e-3", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "weiss_c0.3.json")
        assert payload["homogeneity_flag"] is True

    def test_minimize_small(self, tmp_path):
        rc = main(["minimize", "--c", "0.1", "--grid", "32,32", "--step", "1e-3", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "minimize_c0.1.json")
        assert payload["energy"] <= payload["energy_reference"] + 1e-8

    def test_barriers_lift(self, tmp_path):
        rc = main(["barriers", "--c", "0.02", "--M", "16", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "barriers_c0.02.json")
        assert payload["lift_gradient_ok"] is True

    @pytest.mark.parametrize("c,certified", [(0.02, True), (10.0, False)])
    def test_barriers_certificate_search(self, tmp_path, c, certified):
        assert main(["barriers", "--c", str(c), "--out", str(tmp_path)]) == 0
        payload = read_json(tmp_path / f"barriers_c{c:g}.json")
        assert payload["certified"] is certified
        if certified:
            assert payload["M"] == 16.0

    def test_steklov_small(self, tmp_path):
        rc = main(
            ["steklov", "--c", "0.2", "--R", "8", "--grid", "65,33", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = read_json(tmp_path / "steklov_c0.2_R8.json")
        assert payload["lambda"] > payload["closed_form"]


    def test_steklov_builds_one_solution(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return symmetric_solution(*args, **kwargs)

        monkeypatch.setattr(cli, "symmetric_solution", counted)
        monkeypatch.setattr(stability, "symmetric_solution", counted)
        assert main(["steklov", "--c", "0.2", "--R", "32", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        payload = read_json(tmp_path / "steklov_c0.2_R32.json")
        assert payload["lambda"] == steklov_min_quotient(0.2, 32.0)
        assert payload["closed_form"] == stability_margin(0.2).ratio

    def test_critical_c_below_the_double_spacing(self, tmp_path):
        assert main(["critical-c", "--tol", "1e-300", "--out", str(tmp_path)]) == 0

    def test_profile_step_count_bounded(self, tmp_path):
        assert main(["profile", "--c", "0.3", "--step", "1e-12", "--out", str(tmp_path)]) == 2


class TestExitCodes:
    def test_module_entry_point(self, tmp_path):
        # python -m conefbp runs the CLI and exits with its code
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for k, rc, text in (("3", 0, "0.3535533906"), ("1", 2, "invalid arguments")):
            cmd = [sys.executable, "-m", "conefbp", "morgan", "--k", k, "--out", str(tmp_path)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == rc, proc.stderr
            assert text in proc.stdout + proc.stderr

    def test_unknown_subcommand(self, tmp_path):
        assert main(["nonsense"]) == 2

    def test_no_subcommand(self):
        assert main([]) == 2

    def test_invalid_parameter(self, tmp_path):
        assert main(["morgan", "--k", "1", "--out", str(tmp_path)]) == 2

    def test_nonconvergence_exit(self, tmp_path):
        # an empty-certification barrier run is fine (exit 0); steklov with
        # an absurd annulus triggers the invalid-parameter path instead
        assert main(["steklov", "--c", "0.2", "--R", "2", "--out", str(tmp_path)]) == 2

    def test_phi0_within_rounding_of_pi(self, tmp_path):
        assert main(["phi0", "--c", "60", "--out", str(tmp_path)]) == 2

    def test_steklov_rejects_non_finite_ratio(self, tmp_path):
        for R in ("nan", "inf"):
            assert main(["steklov", "--c", "0.2", "--R", R, "--out", str(tmp_path)]) == 2

    def test_pasting_angle_beyond_pi_named(self, tmp_path, capsys):
        # at c = 5 the default phi2 = phi0 + 0.1 passes phi0 but not pi
        assert main(["barriers", "--c", "5", "--M", "16", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "below pi" in err
        assert "free boundary angle 3.1397" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["phi0", "--jobs", "2"],
            ["critical-c", "--c", "3"],
            ["barriers", "--grid", "64,64"],
            ["morgan", "--k", "3", "--step", "1e-3"],
            # the sweep sizes its own pool
            ["sweep", "c=0:1:2", "phi0", "--jobs", "2"],
            # the certificate search and the lift integrate at the library's step
            ["barriers", "--c", "0.1", "--step", "1e-3"],
            # steklov writes the quotient
            ["stability", "--c", "0.2", "--steklov"],
        ],
    )
    def test_flag_the_subcommand_does_not_read(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "module,argv",
        [
            # unbounded, these would ask numpy for 931 GiB, 14.9 GiB and 14.9 GiB
            ("grid", ["minimize", "--c", "0.1", "--grid", "1000000,1000000"]),
            ("weiss", ["weiss", "--c", "0.3", "--grid", "16,16", "--radii", "2000000000"]),
            ("stability", ["steklov", "--c", "0.2", "--grid", "65,2000000000"]),
        ],
    )
    def test_oversized_counts_exit_before_allocating(self, monkeypatch, tmp_path, capsys, module, argv):
        # the sizing module has no numpy, so only a bound checked first exits 2
        monkeypatch.setattr(importlib.import_module(f"conefbp.{module}"), "np", None)
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "more than" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_pasting_angle_without_offset_rejected(self, tmp_path, capsys):
        # phi2 sets the lift, which runs only with --M; the search would ignore it
        assert main(["barriers", "--c", "0.1", "--phi2", "2.5", "--out", str(tmp_path)]) == 2
        assert "--phi2" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["critical-c", "--lo", "0.3", "--hi", "1", "--tol", "inf"],
            ["barriers", "--c", "0.02", "--M", "nan"],
            ["profile", "--phi-max", "nan"],
            ["sweep", "c=nan:1:3", "phi0"],
            ["sweep", "c=0:inf:3", "phi0"],
            # no audited plane point would leave the flat margin NaN
            ["barriers", "--c", "0.02", "--M", "16", "--phi2", "3.0"],
            # a grid every sweep point would reject
            ["sweep", "c=0:1:2", "minimize", "--grid", "1,1"],
            ["sweep", "c=0:1:2", "minimize", "--grid", "4,3"],
            # a non-integer plane dimension, which the point would truncate
            ["sweep", "k=2:3:4", "morgan"],
            # a parameter name the subcommand does not sweep
            ["sweep", "x=0:1:3", "phi0"],
            ["sweep", "M=4:16:3", "stability"],
            ["sweep", "c=2:4:3", "morgan"],
            ["sweep", "k=0:1:2", "minimize"],
            # c * c overflows, which would make the profile equation lose lam
            ["phi0", "--c", "1e155"],
            ["stability", "--c", "1e155"],
            # a subcommand sweep does not map, a negative count, a one-number grid
            ["sweep", "c=0:1:2", "profile"],
            ["sweep", "c=0:1:-1", "phi0"],
            ["steklov", "--grid", "5"],
            # a count past the point bound, rejected before linspace allocates it
            ["sweep", "c=0:1:1000000000000", "phi0"],
        ],
    )
    def test_non_finite_value(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())


class TestSweep:
    def test_morgan_sweep(self, tmp_path):
        rc = main(["sweep", "k=2:4:3", "morgan", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep_morgan_k.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["2", "3", "4"]
        assert all(r.endswith(",ok") for r in rows[1:])

    def test_stability_sweep(self, tmp_path):
        rc = main(["sweep", "c=0:2:5", "stability", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep_stability_c.csv").read_text().splitlines()
        assert rows[0] == "c,phi0,H1,margin,stable,status"
        assert len(rows) == 6
        assert all(row.endswith(",ok") for row in rows[1:])

    def test_empty_sweep(self, tmp_path):
        rc = main(["sweep", "c=0:2:0", "stability", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep_stability_c.csv").read_text().splitlines()
        assert rows == ["c,phi0,H1,margin,stable,status"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["c=0:2:3", "stability"],
            ["c=0:1:4", "phi0"],
            ["k=2:4:3", "morgan"],
            ["c=0:6:2", "minimize", "--grid", "24,24"],
        ],
        ids=lambda argv: argv[1],
    )
    def test_pool_matches_in_process(self, tmp_path, monkeypatch, argv):
        csvs = []
        for cpus in (2, 1):  # two workers, then one: the in-process loop
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            out = tmp_path / str(cpus)
            assert main(["sweep"] + argv + ["--out", str(out)]) == 0
            (csv,) = out.glob("sweep_*.csv")
            csvs.append(csv.read_bytes())
        assert csvs[0] == csvs[1]

    def test_missing_value_written_as_nan(self, tmp_path):
        # at c = 6 the minimizer has no free boundary angle on 0.2 <= r <= 0.8
        rc = main(["sweep", "c=0:6:2", "minimize", "--grid", "24,24", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "sweep_minimize_c.csv").read_text()
        assert "None" not in text
        assert text.splitlines()[2].split(",")[3:] == ["nan", "0", "ok"]

    def test_minimize_sweep(self, tmp_path):
        rc = main(
            ["sweep", "c=0:0.2:2", "minimize", "--grid", "24,24", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = (tmp_path / "sweep_minimize_c.csv").read_text().splitlines()
        assert rows[0] == "c,energy,energy_gap,fb_mean,vertex_touch,status"
        assert len(rows) == 3

    def test_large_slopes_give_rows(self, tmp_path):
        rc = main(["sweep", "c=11:13:3", "stability", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep_stability_c.csv").read_text().splitlines()
        assert len(rows) == 4
        assert all(row.endswith(",0,ok") for row in rows[1:])

    def test_single_point_sweep(self, tmp_path):
        rc = main(["sweep", "c=0.3:0.3:1", "phi0", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep_phi0_c.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("0.29999999999999999,") and rows[1].endswith(",ok")

    def test_overflowing_margin_is_an_error_row(self, tmp_path):
        # at step 1e-3 the margin at c = 53.28 overflows; 53.29 puts phi0
        # within double rounding of pi
        rc = main(["sweep", "c=53.26:53.29:4", "stability", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep_stability_c.csv").read_text().splitlines()
        assert [row.endswith(",ok") for row in rows[1:]] == [True, True, False, False]
        assert "error: stability margin overflows at slope c = 53.28" in rows[3]

    def test_worker_count_clamped(self, monkeypatch):
        # checked without a pool: fork starts every worker up front
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _worker_count(100) == 8
        assert _worker_count(5) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _worker_count(100) == 2
        assert _worker_count(1) == 1
        assert _worker_count(0) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(4) == 1

    def test_bad_spec(self, tmp_path):
        assert main(["sweep", "c=0:2", "stability", "--out", str(tmp_path)]) == 2

    def test_row_count_includes_failures(self, tmp_path):
        # one negative slope fails in-row, the rest succeed
        rc = main(["sweep", "c=-0.5:1:4", "stability", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep_stability_c.csv").read_text().splitlines()
        assert len(rows) == 5
        assert sum("error" in row for row in rows[1:]) == 1

    def test_all_points_failing_exits_three(self, tmp_path):
        rc = main(["sweep", "c=-1:-0.5:3", "stability", "--out", str(tmp_path)])
        assert rc == 3
        rows = (tmp_path / "sweep_stability_c.csv").read_text().splitlines()
        assert len(rows) == 4
        assert all("error" in row for row in rows[1:])


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["phi0", "--c", "0.4", "--step", "1e-3", "--out", str(out)])
            main(["morgan", "--k", "4", "--out", str(out)])
        assert (a / "phi0_c0.4.json").read_bytes() == (b / "phi0_c0.4.json").read_bytes()
        assert (a / "morgan_k4.json").read_bytes() == (b / "morgan_k4.json").read_bytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_artifacts_reject_non_finite_numbers(self, value):
        with pytest.raises(ValueError):
            _json_bytes({"margin": value})

    def test_run_record_appended(self, tmp_path):
        main(["morgan", "--k", "3", "--out", str(tmp_path)])
        main(["morgan", "--k", "4", "--out", str(tmp_path)])
        lines = (tmp_path / "run_records.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["command"] == "morgan"
        assert "wall_seconds" in rec

    def test_config_file_defaults_and_flag_priority(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("# slope and step\nc = 0.4\n\nstep = 1e-3\n")
        out1 = tmp_path / "o1"
        rc = main(["--config", str(cfg), "phi0", "--out", str(out1)])
        assert rc == 0
        assert (out1 / "phi0_c0.4.json").exists()
        out2 = tmp_path / "o2"
        rc = main(["--config", str(cfg), "phi0", "--c", "0.2", "--out", str(out2)])
        assert rc == 0
        assert (out2 / "phi0_c0.2.json").exists()

    def test_config_values_take_the_subcommands_types(self, tmp_path):
        cfg = tmp_path / "weiss.cfg"
        cfg.write_text("c = 0.3\nstep = 1e-3\ngrid = 96,96\nradii = 8\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "weiss", "--out", str(out)]) == 0
        assert len((out / "weiss_c0.3.csv").read_text().splitlines()) == 1 + 8
        params = json.loads((out / "run_records.jsonl").read_text())["params"]
        assert params == {"c": 0.3, "step": 1e-3, "grid": [96, 96], "radii": 8, "out": str(out)}
        assert isinstance(params["radii"], int)

    def test_config_switch(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text("c = 0.3\nstep = 1e-3\nplot-data = true\n")
        assert main(["--config", str(cfg), "profile", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "profile_beta1_c0.3_plot.csv").exists()

    def test_config_without_path(self, tmp_path, capsys):
        assert main(["phi0", "--out", str(tmp_path), "--config"]) == 2
        assert "--config needs a path" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_config_key_the_subcommand_does_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("jobs = 2\n")
        assert main(["--config", str(cfg), "phi0", "--out", str(tmp_path / "o")]) == 2
        assert "bad config file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
