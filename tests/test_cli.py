import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ohlab import waves
from ohlab.cli import (COMMAND_KEYS, _floats, _settings, build_parser,
                       dispatch, read_config)
from ohlab.scan import ScanConfig

SIMULATE = COMMAND_KEYS["simulate"]


def run_cli(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfigFile:
    def test_parse_with_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# two-mode run\n"
                     "a = 0.05\n"
                     "n = 1024   # grid\n"
                     "\n"
                     "stop_slope = -30\n")
        assert read_config(p, SIMULATE) == {"a": 0.05, "n": 1024,
                                            "stop_slope": -30.0}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("amplitude = 0.05\n")
        for keys in COMMAND_KEYS.values():
            with pytest.raises(ValueError, match="unknown key"):
                read_config(p, keys)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("a 0.05\n")
        with pytest.raises(ValueError, match="expected key = value"):
            read_config(p, SIMULATE)

    def test_non_finite_value(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("t_max = inf\n")
        with pytest.raises(ValueError,
                           match="run.cfg:1: not a finite number: 'inf'"):
            read_config(p, SIMULATE)
        # a value its key's type cannot read names its line too
        p.write_text("a = 0.05\ndt = fast\n")
        with pytest.raises(ValueError, match="run.cfg:2: could not convert"):
            read_config(p, SIMULATE)

    def test_bad_bool(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("criteria_only = maybe\n")
        with pytest.raises(ValueError, match="not a boolean"):
            read_config(p, COMMAND_KEYS["scan"])

    def test_repeated_key_is_usage_error(self, tmp_path, capsys):
        # the last line used to win without a word: a = 0.0 here
        p = tmp_path / "run.cfg"
        p.write_text("a = 0.05\nn = 64\n\na = 0.0\n")
        with pytest.raises(ValueError, match="run.cfg:4: key 'a' already "
                                             "set on line 1"):
            read_config(p, SIMULATE)
        code, out, err = run_cli(["simulate", "--config", str(p),
                                  "--output-dir", str(tmp_path)], capsys)
        assert code == 1 and out == ""
        assert "run.cfg:4: key 'a' already set on line 1" in err
        assert not (tmp_path / "summary.json").exists()


# every committed config and the command that runs it
CONFIG_COMMANDS = {
    "breaking_a05.cfg": "simulate",
    "breaking_a01_b005.cfg": "simulate",
    "breaking_a0_b005.cfg": "simulate",
    "control_a005.cfg": "simulate",
    "characteristics.cfg": "characteristics",
    "region_map.cfg": "scan",
    "wave_branch.cfg": "wave",
    "wave_family.cfg": "wave",
}


def test_committed_configs_parse_for_their_command():
    configs = Path(__file__).resolve().parents[1] / "configs"
    names = sorted(p.name for p in configs.iterdir())
    assert names == sorted(CONFIG_COMMANDS)
    for name in names:
        cfg = read_config(configs / name, COMMAND_KEYS[CONFIG_COMMANDS[name]])
        for key in ("snapshots", "branch_ratios"):
            _floats(cfg.get(key, ""))


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(["simulate", "--config",
                                str(tmp_path / "absent.cfg")], capsys)
        assert code == 1
        assert "usage:" in err

    def test_bad_value_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["criteria", "--a", "-1", "--output-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "usage:" in err

    def test_unparsable_flag(self, capsys):
        assert run_cli(["simulate", "--dt", "fast"], capsys)[0] == 1

    @pytest.mark.parametrize("argv", [
        ["criteria", "--n", "5"],
        ["characteristics", "--stride", "7"],
        ["characteristics", "--snapshots", "1.0"],
        ["scan", "--n-xi", "8"],
        ["simulate", "--workers", "2"],
        ["wave", "--a", "0.1"],
    ])
    def test_flag_of_another_command(self, argv, tmp_path, capsys):
        code = run_cli(argv + ["--output-dir", str(tmp_path)], capsys)[0]
        assert code == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["criteria", "--gamma", "0", "--a", "1", "--b", "1"],
         "gamma must be positive"),
        (["criteria", "--gamma", "-1", "--a", "1", "--b", "1"],
         "gamma must be positive"),
        (["scan", "--gamma", "0", "--a-count", "1", "--b-count", "1"],
         "gamma must be positive"),
        (["scan", "--gamma", "-1", "--a-count", "1", "--b-count", "1"],
         "gamma must be positive"),
        (["wave", "--gamma", "0"], "gamma must be positive"),
        (["wave", "--gamma", "-1"], "gamma must be positive"),
        (["characteristics", "--sample-stride", "0"],
         "n_xi and sample_stride must be >= 1"),
        (["characteristics", "--n-xi", "0"],
         "n_xi and sample_stride must be >= 1"),
        (["wave", "--branch-ratios", "1.05,1.2", "--n", "128"],
         "c/gamma = 1.2 outside"),
        (["wave", "--branch-ratios", "0.9,1.05", "--n", "128"],
         "c/gamma = 0.9 outside"),
        (["wave", "--branch-ratios", "1.05,nan", "--n", "128"],
         "c/gamma = nan outside"),
        (["wave", "--n", "2"], "n = 2 retains no Fourier mode"),
        (["wave", "--branch-ratios", "1.01,1.02", "--n", "0"],
         "n = 0 retains no Fourier mode"),
        (["simulate", "--gamma", "-1", "--t-max", "0.05"],
         "gamma must be positive"),
        (["characteristics", "--gamma", "0", "--t-max", "0.05"],
         "gamma must be positive"),
        (["criteria", "--a", "nan"],
         "argument --a: invalid finite value: 'nan'"),
        (["wave", "--corner", "true", "--gamma", "nan"],
         "argument --gamma: invalid finite value: 'nan'"),
        (["wave", "--corner", "true", "--n", "6"],
         "exclude_crest = 4 leaves no point of n = 6"),
        (["wave", "--corner", "true", "--n", "8"],
         "exclude_crest = 4 leaves no point of n = 8"),
        (["scan", "--a-count", "1", "--b-count", "1", "--n", "3", "--dt",
          "5"], "n, dt only apply when criteria_only is false"),
        (["wave", "--branch-ratios", "1.01,1.02", "--c-over-gamma", "1.07"],
         "c_over_gamma sets the single Newton solve"),
        (["wave", "--corner", "true", "--c-over-gamma", "1.07"],
         "c_over_gamma sets the single Newton solve"),
        (["scan", "--criteria-only", "false", "--n", "100", "--a-count",
          "1", "--b-count", "1"],
         "grid size must be a power of two >= 8, got 100"),
        (["scan", "--criteria-only", "false", "--dt", "-1", "--a-count",
          "1", "--b-count", "1"], "dt and t_max must be positive"),
        (["scan", "--criteria-only", "false", "--stop-slope", "5",
          "--a-count", "1", "--b-count", "1"], "stop_slope must be negative"),
        (["wave", "--n", "4"], "n = 4 holds no wave; need an even n >= 6"),
        (["wave", "--n", "5"], "n = 5 holds no wave; need an even n >= 6"),
        (["wave", "--n", "7"], "n = 7 holds no wave; need an even n >= 6"),
        (["wave", "--branch-ratios", "1.01,1.02", "--n", "9"],
         "n = 9 holds no wave; need an even n >= 6"),
        (["simulate", "--dt", "0.01", "--t-max", "0.05", "--snapshots",
          "0.015"], "snapshot time 0.015 is not a multiple of dt = 0.01"),
        (["simulate", "--dt", "0.01", "--t-max", "0.055"],
         "t_max = 0.055 is not a multiple of dt = 0.01"),
        (["scan", "--criteria-only", "false", "--dt", "0.01", "--t-max",
          "0.055", "--a-count", "1", "--b-count", "1"],
         "t_max = 0.055 is not a multiple of dt = 0.01"),
        (["wave", "--corner", "true", "--n", "0"],
         "n = 0 holds no grid point; need n >= 1"),
        (["wave", "--corner", "true", "--n", "-4"],
         "n = -4 holds no grid point; need n >= 1"),
    ], ids=["criteria-gamma0", "criteria-gamma-1", "scan-gamma0",
            "scan-gamma-1", "wave-gamma0", "wave-gamma-1",
            "characteristics-sample-stride0", "characteristics-n-xi0",
            "wave-ratio-above-crest", "wave-ratio-below-one",
            "wave-ratio-nan", "wave-n2", "wave-branch-n0",
            "simulate-gamma-1", "characteristics-gamma0", "criteria-a-nan",
            "wave-corner-gamma-nan", "wave-corner-n6", "wave-corner-n8",
            "scan-criteria-only-n-dt", "wave-branch-c-over-gamma",
            "wave-corner-c-over-gamma", "scan-n100", "scan-dt-1",
            "scan-stop-slope5", "wave-n4", "wave-n5", "wave-n7",
            "wave-branch-n9", "simulate-snapshot-off-dt",
            "simulate-t-max-off-dt", "scan-t-max-off-dt", "wave-corner-n0",
            "wave-corner-n-4"])
    def test_out_of_range_value(self, argv, message, tmp_path, capsys):
        # criteria-a-nan failed on an empty search, wave-corner-gamma-nan
        # exited 0 with a nan profile, wave-corner-n6 and -n8 failed in
        # numpy's max of an empty array, scan-criteria-only-n-dt and the
        # two c-over-gamma cases exited 0 with a key that their mode does
        # not read, the scan-n/dt/stop-slope cases failed inside the first
        # point after making out_dir, wave-n4 and -n5 exited 2 as a
        # numerical failure, wave-n7 and -n9 failed in numpy's broadcast,
        # simulate-snapshot-off-dt wrote the t = 0.02 field as
        # snapshot_t0.015.csv, simulate-t-max-off-dt ran to t = 0.06,
        # scan-t-max-off-dt stepped every point past t_max, and
        # wave-corner-n0 and -n-4 raised ZeroDivisionError in ode_residual
        code, out, err = run_cli(argv + ["--output-dir",
                                         str(tmp_path / "out")], capsys)
        assert code == 1
        assert f"error: {message}" in err
        assert out == ""
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--t-max", "0.05", "--fit-depth", "1"],
         "unrecognized arguments: --fit-depth 1"),
        (["characteristics", "--t-max", "0.05", "--n-xi", "8",
          "--fit-depth", "1"], "unrecognized arguments: --fit-depth 1"),
        (["simulate", "--t-max", "0.05", "--snapshots=-1"],
         "snapshot time -1 outside [0, t_max]"),
        (["simulate", "--t-max", "0.05", "--snapshots", "0.01,7"],
         "snapshot time 7 outside [0, t_max]"),
        (["simulate", "--t-max", "0.05", "--snapshots", "nan"],
         "snapshot time nan outside [0, t_max]"),
        (["simulate", "--t-max", "inf"],
         "argument --t-max: invalid finite value: 'inf'"),
        (["simulate", "--t-max", "0.05", "--stop-slope", "nan"],
         "argument --stop-slope: invalid finite value: 'nan'"),
    ], ids=["simulate-fit-depth-horizon", "characteristics-fit-depth",
            "snapshot-negative", "snapshot-past-t-max", "snapshot-nan",
            "simulate-t-max-inf", "simulate-stop-slope-nan"])
    def test_rejected_before_stepping(self, argv, message, tmp_path,
                                      capsys):
        # these ran to the end first: a bad snapshot time was dropped or
        # stored under a time the field was not taken at, t_max = inf
        # overflowed after making out_dir, and stop_slope = nan stopped at
        # the first step as SlopeBlowup; the fit depth is a constant of the
        # estimator, so --fit-depth is a flag that neither command reads
        out_dir = tmp_path / "out"
        code, out, err = run_cli(argv + ["--n", "256",
                                         "--output-dir", str(out_dir)],
                                 capsys)
        assert code == 1
        assert f"error: {message}" in err
        assert out == ""
        assert not out_dir.exists()

    def test_numerical_failure_exits_two_with_its_summary(self, tmp_path,
                                                          capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = run_cli(
                ["simulate", "--a", "1", "--n", "64", "--dt", "1",
                 "--t-max", "20", "--output-dir", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(out)["terminated"] == "NumericalFailure"
        # dt = 1 is far past RK4's limit: sup|u| leaves its a-priori bound
        # at t = 1 while every value is still finite
        assert json.loads(out)["failure"] == "sup_bound"
        assert (tmp_path / "summary.json").read_text() == out

    def test_config_key_of_another_command(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("a = 0.05\nn = 1024\n")
        code, _, err = run_cli(["criteria", "--config", str(cfgfile),
                                "--output-dir", str(tmp_path / "out")],
                               capsys)
        assert code == 1
        assert "unknown key 'n'" in err
        assert not (tmp_path / "out").exists()

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ohlab.cli", "criteria", "--a", "0.05",
             "--output-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "summary.json").exists()


# each subcommand at toy size, and a criteria run whose margins are -inf
TOY_RUNS = {
    "simulate": ["simulate", "--n", "64", "--dt", "0.01", "--t-max", "0.05"],
    "criteria": ["criteria", "--a", "0.1"],
    "characteristics": ["characteristics", "--n", "64", "--dt", "0.01",
                        "--t-max", "0.05", "--n-xi", "8",
                        "--sample-stride", "2"],
    "wave": ["wave", "--n", "64"],
    "scan": ["scan", "--a-count", "2", "--b-count", "2"],
    "criteria-zero-data": ["criteria", "--a", "0", "--b", "0", "--gamma",
                           "2"],
}


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("run", sorted(TOY_RUNS))
def test_summary_json_is_what_is_printed(run, tmp_path, capsys):
    code, out, _ = run_cli([*TOY_RUNS[run], "--output-dir", str(tmp_path)],
                           capsys)
    assert code == 0
    assert [p.name for p in tmp_path.glob("*.json")] == ["summary.json"]
    assert (tmp_path / "summary.json").read_text() == out
    # strict JSON: a non-finite number is written as null
    json.loads(out, parse_constant=reject_constant)


def test_scan_defaults_are_scan_configs():
    # the command and the library scan must step the same grid
    cfg = _settings(build_parser().parse_args(["scan"]))
    defaults = {f.name: f.default for f in dataclasses.fields(ScanConfig)
                if f.default is not dataclasses.MISSING}
    assert {key: cfg[key] for key in defaults} == defaults


class TestPlotScripts:
    def test_run_without_matplotlib(self, tmp_path, capsys):
        # every emitted script prints a note and exits 0 when matplotlib
        # cannot be imported, as the README says
        runs = {
            "sim": ["simulate", "--a", "0.2", "--n", "256", "--dt", "0.002",
                    "--t-max", "30"],
            "wave": ["wave", "--n", "64"],
            "scan": ["scan", "--a-count", "1", "--b-count", "1"],
        }
        for name, argv in runs.items():
            assert run_cli(argv + ["--output-dir", str(tmp_path / name)],
                           capsys)[0] == 0
        stub = tmp_path / "stub" / "matplotlib"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text(
            "raise ImportError('matplotlib stub')\n")
        scripts = sorted(tmp_path.glob("*/plot_*.py"))
        assert [p.name for p in scripts] == [
            "plot_region.py", "plot_rate_products.py", "plot_timeseries.py",
            "plot_wave.py"]
        for script in scripts:
            proc = subprocess.run(
                [sys.executable, script.name], cwd=script.parent,
                env={**os.environ, "PYTHONPATH": str(stub.parent)},
                capture_output=True, text=True)
            assert proc.returncode == 0, (script.name, proc.stderr)
            assert "matplotlib is not installed" in proc.stdout, script.name
            assert not list(script.parent.glob("*.png"))


class TestCriteriaCommand:
    def test_verdicts_and_artifact(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["criteria", "--a", "1", "--b", "1", "--output-dir",
             str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["cond1"]["satisfied"] is True
        assert payload["cond2"]["satisfied"] is True
        assert payload["scalars"]["cube"] < 0
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == payload

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("a = 0.05\nb = 0.0\n"
                           f"output_dir = {tmp_path}\n")
        code, out, _ = run_cli(["criteria", "--config", str(cfgfile),
                                "--a", "1.0"], capsys)
        assert code == 0
        assert json.loads(out)["scalars"]["sup_abs"] == pytest.approx(1.0)

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OHLAB_OUTPUT_DIR", str(tmp_path / "envout"))
        code, _, _ = run_cli(["criteria", "--a", "0.1"], capsys)
        assert code == 0
        assert (tmp_path / "envout" / "summary.json").exists()

    @pytest.mark.parametrize("argv, charac", [
        (["--a", "1e102", "--b", "0"], True),
        (["--a", "1", "--b", "1", "--gamma", "1e300"], False),
        (["--a", "1e155", "--b", "0"], True)])
    def test_data_past_the_float_range(self, tmp_path, capsys, argv, charac):
        # each raised OverflowError from a power in a margin; hunter's
        # margin saturates to inf (or is -inf off gamma = 1), written as null
        code, out, _ = run_cli(["criteria", *argv, "--output-dir",
                                str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload == json.loads((tmp_path / "summary.json").read_text())
        assert payload["hunter"]["margin"] is None
        assert payload["charac"]["satisfied"] is charac

    def test_cube_where_a_squared_overflows(self, tmp_path, capsys):
        # -12 pi^3 a a b read nan (inf * 0), written as null; the cube of a
        # single cosine is -0.0 at every a
        code, out, _ = run_cli(["criteria", "--a", "1e155", "--b", "0",
                                "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        cube = json.loads(out)["scalars"]["cube"]
        assert cube == 0.0 and math.copysign(1.0, cube) == -1.0

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        run_cli(["criteria", "--a", "0.07", "--b", "0.01",
                 "--output-dir", str(d1)], capsys)
        run_cli(["criteria", "--a", "0.07", "--b", "0.01",
                 "--output-dir", str(d2)], capsys)
        assert (d1 / "summary.json").read_bytes() \
            == (d2 / "summary.json").read_bytes()


class TestSimulateCommand:
    def test_breaking_run_artifacts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--a", "0.2", "--n", "512", "--dt", "0.002",
             "--t-max", "30", "--snapshots", "0.5,25",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["terminated"] == "SlopeBlowup"
        assert summary["failure"] is None
        # the 512 grid loses the front before min u_x reaches -200
        assert summary["stop"] == "front_unresolved"
        assert summary["blowup"]["C"] == pytest.approx(-1.0, abs=0.2)
        assert summary["grids"][0] == [0.0, 256]
        assert summary["grids"][-1][1] == 512
        # one (n, shortest, longest) per rung stepped on
        assert [r[0] for r in summary["step_lengths"]] == [256, 512]
        assert all(0 < lo <= hi for _, lo, hi in summary["step_lengths"])
        assert summary["steps"] > 0
        for name in ("timeseries.csv", "summary.json", "rate_products.csv",
                     "snapshot_t0.5.csv", "plot_timeseries.py",
                     "plot_rate_products.py"):
            assert (tmp_path / name).exists(), name
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == summary
        # the run breaks near t = 1.1, so t = 25 is never reached; the
        # summary used to say nothing of it
        assert summary["snapshots_missed"] == [25.0]
        assert not (tmp_path / "snapshot_t25.csv").exists()

    def test_snapshot_files_name_their_exact_times(self, tmp_path, capsys):
        # both times render as 1.00001 under :g, and the second snapshot
        # used to overwrite the first in snapshot_t1.00001.csv
        code, out, _ = run_cli(
            ["simulate", "--n", "64", "--dt", "1e-6", "--t-max", "1.000012",
             "--snapshots", "1.000011,1.000012", "--stride", "100000",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["snapshots_missed"] == []
        names = sorted(p.name for p in tmp_path.glob("snapshot_t*.csv"))
        assert names == ["snapshot_t1.000011.csv", "snapshot_t1.000012.csv"]
        first, last = (np.loadtxt(tmp_path / name, delimiter=",",
                                  skiprows=1) for name in names)
        assert not np.array_equal(first, last)


class TestCharacteristicsCommand:
    def test_smoke(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["characteristics", "--a", "0.05", "--n", "256", "--dt", "0.01",
             "--t-max", "0.5", "--n-xi", "32", "--sample-stride", "10",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["diffeomorphism"] is True
        assert summary["sup_consistency"] < 1e-6
        assert 0.0 <= summary["min_v_vs_grid"] < 1e-3
        assert summary["grids"] == [[0.0, 256]]
        # flow-sized steps of floor(1/(dt*pi*256*0.05)) = 2 dt on the 256
        # grid, which land on every sample mark of sample_stride = 10
        assert summary["steps"] == 25
        assert summary["step_lengths"] == [[256, 0.02, 0.02]]
        assert summary["failure"] is None and summary["stop"] is None
        assert (tmp_path / "ensemble.csv").exists()
        assert (tmp_path / "summary.json").read_text() == out

    def test_breaking_data_exits_zero(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["characteristics", "--a", "0.05", "--n", "256", "--t-max", "5",
             "--stop-slope", "-30", "--n-xi", "32",
             "--output-dir", str(tmp_path / "chars")], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["terminated"] == "SlopeBlowup"
        assert summary["stop"] == "front_unresolved"
        assert (tmp_path / "chars" / "summary.json").read_text() == out
        # the summary is simulate's, plus the ensemble's own keys
        code, out, _ = run_cli(
            ["simulate", "--a", "0.05", "--n", "256", "--t-max", "5",
             "--stop-slope", "-30", "--output-dir", str(tmp_path / "sim")],
            capsys)
        assert code == 0
        sim = json.loads(out)
        assert set(sim) <= set(summary)
        assert set(sim["config"]) == set(summary["config"])
        assert summary["config"]["stride"] == 10
        assert set(summary["blowup"]) == {"B", "C", "T", "residual",
                                          "window"}


class TestWaveCommand:
    def test_corner(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["wave", "--corner", "true", "--n", "512",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        info = json.loads(out)
        assert info["c_over_gamma"] == pytest.approx(math.pi ** 2 / 9.0,
                                                     rel=1e-12)
        assert info["residual"] < 1e-8
        assert (tmp_path / "wave.csv").exists()

    def test_newton(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["wave", "--c-over-gamma", "1.05", "--n", "256",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        info = json.loads(out)
        assert info["residual"] < 1e-10

    def test_branch(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["wave", "--branch-ratios", "1.01,1.03,1.05", "--n", "128",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        info = json.loads(out)
        assert info["branch_points"] == 3
        lines = (tmp_path / "branch.csv").read_text().strip().splitlines()
        assert lines[0] == "c_over_gamma,amplitude,residual"
        assert len(lines) == 4
        # the steepest profile goes through the one-profile emission path
        assert info["c_over_gamma"] == pytest.approx(1.05, rel=1e-12)
        assert float(lines[-1].split(",")[1]) == info["amplitude"]
        assert (tmp_path / "wave.csv").exists()

    def test_branch_residual_computed_once(self, tmp_path, capsys,
                                           monkeypatch):
        # "max_residual", branch.csv and "residual" read each profile's
        # residual: 7 spectral residuals for 3 profiles, now one each
        calls, ode_residual = [], waves.ode_residual
        monkeypatch.setattr(waves, "ode_residual", lambda *args, **kw:
                            calls.append(1) or ode_residual(*args, **kw))
        code, _, _ = run_cli(
            ["wave", "--branch-ratios", "1.01,1.03,1.05", "--n", "128",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        assert len(calls) == 3

    def test_branch_first_ratio_falls_back(self, tmp_path, capsys):
        # exited 2 where `wave --c-over-gamma 1.095` converged: the branch's
        # first ratio is now solved as the single solve is, from the
        # expansion on the grid ladder
        code, out, _ = run_cli(
            ["wave", "--branch-ratios", "1.095", "--n", "512",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["branch_points"] == 1

    @pytest.mark.parametrize("args, resolved", [
        (["--c-over-gamma", "1.05", "--n", "256"], True),
        (["--c-over-gamma", "1.095", "--n", "512"], False),
        (["--branch-ratios", "1.05,1.095", "--n", "512"], False)],
        ids=["1.05-256", "1.095-512", "branch-512"])
    def test_tail_judges_the_resolution(self, args, resolved, tmp_path,
                                        capsys):
        # a converged Galerkin wave 1.6e-3 below the corner speed exits 0
        # with a pointwise residual of 1.5e-4 on 512 points: its top modes
        # stand above round-off, and "tail" says so
        code, out, _ = run_cli(["wave", *args, "--output-dir",
                                str(tmp_path)], capsys)
        assert code == 0
        assert (json.loads(out)["tail"] < 1e-15) == resolved

    def test_corner_and_branch_conflict(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["wave", "--corner", "true", "--branch-ratios", "1.01,1.03",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "corner and branch_ratios" in err
        assert not any(tmp_path.iterdir())


class TestScanCommand:
    def test_region_map_and_determinism(self, tmp_path, capsys):
        base = ["scan", "--a-min", "0", "--a-max", "0.2", "--a-count", "5",
                "--b-min", "0", "--b-max", "0.2", "--b-count", "5"]
        d1, d4 = tmp_path / "w1", tmp_path / "w4"
        code1, out1, _ = run_cli(base + ["--workers", "1",
                                         "--output-dir", str(d1)], capsys)
        code4, out4, _ = run_cli(base + ["--workers", "4",
                                         "--output-dir", str(d4)], capsys)
        assert code1 == code4 == 0
        summary = json.loads(out1)
        assert summary["ordering_violations"] == 0
        rows = (d1 / "region.csv").read_text().splitlines()[1:]
        assert summary["charac_satisfied"] \
            == sum(row.split(",")[5] == "1" for row in rows)
        assert (d1 / "region.csv").read_bytes() \
            == (d4 / "region.csv").read_bytes()

    @pytest.mark.parametrize("criteria_only", ["true", "false"])
    def test_plot_script_reads_the_written_table(self, criteria_only,
                                                 tmp_path, capsys):
        # a criteria-only scan steps nothing, so it takes no step settings
        stepping = ["--n", "64", "--dt", "0.01", "--t-max", "0.05"] \
            if criteria_only == "false" else []
        code, _, _ = run_cli(
            ["scan", "--a-min", "0.05", "--a-count", "1", "--b-count", "1",
             "--criteria-only", criteria_only, *stepping,
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        script = (tmp_path / "plot_region.py").read_text()
        name = re.search(r'genfromtxt\("([^"]+)"', script).group(1)
        assert (tmp_path / name).exists()


# Every subcommand, in-process, on inputs drawn over the whole float range:
# each ends in an exit code, never in an exception.  Runs are kept small: n
# <= 64, t_max = k dt with k <= 20, scan counts <= 2, n_xi <= 16 and one
# worker, so that no example starts a process pool.
_MAGNITUDE = st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e)
LOG_FLOATS = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda x: -x))
SPEEDS = st.one_of(st.floats(1.0, waves.CREST_SPEED_RATIO), LOG_FLOATS)


@st.composite
def cli_argv(draw):
    """A subcommand with drawn settings, each an --key=value flag (so that
    a negative value in e notation reaches the command as a value)."""
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    flags = {}

    def maybe(key, strategy):
        if draw(st.booleans()):
            flags[key] = draw(strategy)

    def stepping():
        flags["n"] = draw(st.one_of(st.sampled_from([8, 16, 32, 64]),
                                    st.integers(-4, 64)))
        dt = flags["dt"] = draw(LOG_FLOATS)
        flags["t_max"] = draw(st.integers(1, 20)) * dt
        maybe("stop_slope", LOG_FLOATS)

    if command in ("simulate", "characteristics", "criteria"):
        for key in ("gamma", "a", "b"):
            maybe(key, LOG_FLOATS)
    if command == "simulate":
        stepping()
        maybe("stride", st.integers(-1, 20))
        maybe("snapshots", st.lists(st.integers(0, 20).map(
            lambda k: k * flags["dt"]) | LOG_FLOATS, max_size=2))
    elif command == "characteristics":
        stepping()
        flags["n_xi"] = draw(st.integers(-1, 16))
        maybe("sample_stride", st.integers(-1, 20))
    elif command == "wave":
        flags["n"] = draw(st.integers(-8, 64))
        maybe("gamma", LOG_FLOATS)
        maybe("c_over_gamma", SPEEDS)
        maybe("corner", st.booleans())
        maybe("branch_ratios", st.lists(SPEEDS, max_size=3))
    elif command == "scan":
        for key in ("a_min", "a_max", "b_min", "b_max", "gamma"):
            maybe(key, LOG_FLOATS)
        flags["a_count"] = draw(st.integers(-1, 2))
        flags["b_count"] = draw(st.integers(-1, 2))
        flags["workers"] = 1
        flags["criteria_only"] = draw(st.booleans())
        if not flags["criteria_only"]:
            stepping()

    def text(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, list):
            return ",".join(map(repr, value))
        return repr(value)

    return [command, *(f"--{key.replace('_', '-')}={text(value)}"
                       for key, value in flags.items())]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow at 1e300
@settings(max_examples=300)
@given(cli_argv())
@example(["wave", "--corner=true", "--n=0"])
@example(["wave", "--corner=true", "--n=-4"])
@example(["simulate", "--gamma=1e-162", "--n=8", "--dt=1e-162",
          "--t-max=1e-162"])
@example(["criteria", "--a=1e102"])
@example(["criteria", "--a=1e155"])
@example(["criteria", "--a=1", "--b=1", "--gamma=1e300"])
@example(["scan", "--a-min=1e200", "--a-max=1e200", "--a-count=1",
          "--b-count=1", "--criteria-only=true"])
@example(["scan", "--a-min=1e200", "--a-max=1e200", "--a-count=1",
          "--b-count=1", "--criteria-only=false", "--n=64", "--dt=0.01",
          "--t-max=0.2"])
def test_no_input_ends_in_a_traceback(argv):
    # 0 success, 1 usage error, 2 numerical failure; the explicit examples
    # each raised an exception out of dispatch once
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert dispatch(argv + [f"--output-dir={out}"]) in (0, 1, 2)
