import json
import math
import subprocess
import sys

import pytest

from ohlab.cli import dispatch, read_config


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
                     "dealias = true\n")
        assert read_config(p) == {"a": 0.05, "n": 1024, "dealias": True}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("amplitude = 0.05\n")
        with pytest.raises(ValueError, match="unknown key"):
            read_config(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("a 0.05\n")
        with pytest.raises(ValueError, match="expected key = value"):
            read_config(p)

    def test_bad_bool(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("dealias = maybe\n")
        with pytest.raises(ValueError, match="not a boolean"):
            read_config(p)


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

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ohlab.cli", "criteria", "--a", "0.05",
             "--output-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "criteria.json").exists()


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
        on_disk = json.loads((tmp_path / "criteria.json").read_text())
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
        assert (tmp_path / "envout" / "criteria.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        run_cli(["criteria", "--a", "0.07", "--b", "0.01",
                 "--output-dir", str(d1)], capsys)
        run_cli(["criteria", "--a", "0.07", "--b", "0.01",
                 "--output-dir", str(d2)], capsys)
        assert (d1 / "criteria.json").read_bytes() \
            == (d2 / "criteria.json").read_bytes()


class TestSimulateCommand:
    def test_breaking_run_artifacts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["simulate", "--a", "0.2", "--n", "512", "--dt", "0.002",
             "--t-max", "30", "--snapshots", "0.5",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["terminated"] == "SlopeBlowup"
        assert summary["blowup"]["C"] == pytest.approx(-1.0, abs=0.2)
        for name in ("timeseries.csv", "summary.json", "rate_products.csv",
                     "snapshot_t0.5.csv", "plot_timeseries.py",
                     "plot_rate_products.py"):
            assert (tmp_path / name).exists(), name
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == summary


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
        assert (tmp_path / "ensemble.csv").exists()

    def test_breaking_data_exits_zero(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["characteristics", "--a", "0.05", "--n", "256", "--t-max", "5",
             "--stop-slope", "-30", "--n-xi", "32",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["terminated"] == "SlopeBlowup"


class TestWaveCommand:
    def test_corner(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["wave", "--corner", "true", "--wave-n", "512",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        info = json.loads(out)
        assert info["c_over_gamma"] == pytest.approx(math.pi ** 2 / 9.0,
                                                     rel=1e-12)
        assert info["residual"] < 1e-8
        assert (tmp_path / "wave.csv").exists()

    def test_newton(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["wave", "--c-over-gamma", "1.05", "--wave-n", "256",
             "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        info = json.loads(out)
        assert info["residual"] < 1e-10

    def test_branch(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["wave", "--branch", "true", "--branch-min", "1.01",
             "--branch-max", "1.05", "--branch-count", "3",
             "--wave-n", "128", "--output-dir", str(tmp_path)], capsys)
        assert code == 0
        info = json.loads(out)
        assert info["branch_points"] == 3
        lines = (tmp_path / "branch.csv").read_text().strip().splitlines()
        assert lines[0] == "c_over_gamma,amplitude,residual"
        assert len(lines) == 4


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
        assert json.loads(out1)["ordering_violations"] == 0
        assert (d1 / "region.csv").read_bytes() \
            == (d4 / "region.csv").read_bytes()
