import math

import numpy as np
import pytest

from ohlab import scan as scan_mod
from ohlab.criteria import all_reports
from ohlab.evolution import SimulationConfig, estimate_blowup, simulate
from ohlab.initial import two_mode_quantities
from ohlab.scan import (ScanConfig, region_ordering_violations, scan,
                        write_region_csv, write_simulation_csv)


class TestScanConfig:
    def test_bad_range(self):
        with pytest.raises(ValueError):
            ScanConfig(a_range=(0.2, 0.1, 5), b_range=(0.0, 0.1, 2))

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            ScanConfig(a_range=(0.0, 0.1, 2), b_range=(0.0, 0.1, 2), workers=0)

    def test_point_order_is_b_major(self):
        cfg = ScanConfig(a_range=(0.0, 1.0, 2), b_range=(0.0, 1.0, 2))
        assert cfg.points() == [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_singleton_axis(self):
        cfg = ScanConfig(a_range=(0.3, 0.3, 1), b_range=(0.0, 1.0, 3))
        assert [p[0] for p in cfg.points()] == [0.3, 0.3, 0.3]


VERDICTS = ("hunter", "cond1", "cond2", "charac")


class TestCriteriaScan:
    def test_single_point_verdicts(self):
        cfg = ScanConfig(a_range=(0.05, 0.05, 1), b_range=(0.0, 0.0, 1))
        res = scan(cfg)
        assert len(res) == 1
        row = res[0]
        assert not any(row[k] for k in VERDICTS)
        assert row["margin_charac"] == pytest.approx(-0.14926, rel=1e-3)

    def test_worker_count_invariance(self):
        cfg1 = ScanConfig(a_range=(0.0, 0.2, 5), b_range=(0.0, 0.2, 5),
                          workers=1)
        cfg4 = ScanConfig(a_range=(0.0, 0.2, 5), b_range=(0.0, 0.2, 5),
                          workers=4)
        assert scan(cfg1) == scan(cfg4)

    def test_region_csv(self, tmp_path):
        cfg = ScanConfig(a_range=(0.0, 0.2, 3), b_range=(0.0, 0.2, 3))
        res = scan(cfg)
        p = tmp_path / "region.csv"
        write_region_csv(res, p)
        data = np.genfromtxt(p, delimiter=",", names=True)
        assert data.dtype.names == ("a", "b", "hunter", "cond1", "cond2",
                                    "charac", "margin_charac")
        assert len(data) == 9
        assert np.allclose(data["margin_charac"],
                           [r["margin_charac"] for r in res])

    def test_no_ordering_violations_on_grid(self):
        cfg = ScanConfig(a_range=(0.0, 0.2, 9), b_range=(0.0, 0.2, 9))
        assert region_ordering_violations(scan(cfg)) == []

    def test_ordering_violation_detected(self):
        rows = [{"a": 1.0, "b": 2.0, "hunter": True, "cond1": False,
                 "cond2": False, "charac": False}]
        assert region_ordering_violations(rows) == [(1.0, 2.0)]


@pytest.fixture(scope="class")
def sweep():
    cfg = ScanConfig(a_range=(0.15, 0.25, 2), b_range=(0.0, 0.0, 1),
                     criteria_only=False, n=512, dt=2e-3, t_max=30.0)
    return scan(cfg)


class TestSimulationScan:
    def test_rows_complete(self, sweep):
        assert all(r["terminated"] == "SlopeBlowup" for r in sweep)
        assert all(math.isfinite(r["T_est"]) for r in sweep)

    def test_breaking_time_decreases_with_amplitude(self, sweep):
        t = [r["T_est"] for r in sweep]
        assert t[0] > t[1] > 0.0

    def test_slope_is_near_minus_one(self, sweep):
        for r in sweep:
            assert -1.3 < r["C_est"] < -0.8

    def test_worker_count_invariance(self, sweep):
        cfg = ScanConfig(a_range=(0.15, 0.25, 2), b_range=(0.0, 0.0, 1),
                         criteria_only=False, n=512, dt=2e-3, t_max=30.0,
                         workers=4)
        assert scan(cfg) == sweep

    def test_simulation_csv(self, sweep, tmp_path):
        p = tmp_path / "sweep.csv"
        write_simulation_csv(sweep, p)
        with open(p) as fh:
            header = fh.readline().strip()
            rows = fh.read().strip().splitlines()
        assert header == "a,b,hunter,cond1,cond2,charac,T_est,C_est,terminated"
        assert len(rows) == 2
        assert all(r.endswith("SlopeBlowup") for r in rows)

    def test_each_point_builds_its_datum_once(self, monkeypatch):
        # the criteria row and the run used to build the datum twice
        calls = []
        build = scan_mod.two_mode_quantities
        monkeypatch.setattr(scan_mod, "two_mode_quantities",
                            lambda a, b: calls.append((a, b)) or build(a, b))
        cfg = ScanConfig(a_range=(0.05, 0.1, 2), b_range=(0.0, 0.0, 1),
                         criteria_only=False, n=64, dt=0.01, t_max=0.05)
        rows = scan(cfg)
        assert calls == [(0.05, 0.0), (0.1, 0.0)]
        assert [(r["a"], r["b"]) for r in rows] == calls

    def test_point_matches_the_library(self):
        # a scan row carries what the library computes for its datum: the
        # criteria reports and the run's outcome and blow-up estimate
        a, b, n, dt, t_max = 0.1, 0.05, 256, 2e-3, 10.0
        point = {"a_range": (a, a, 1), "b_range": (b, b, 1)}
        (criteria_row,) = scan(ScanConfig(**point))
        (row,) = scan(ScanConfig(**point, criteria_only=False, n=n, dt=dt,
                                 t_max=t_max))
        d = two_mode_quantities(a, b)
        record = simulate(SimulationConfig(initial=d, n=n, dt=dt,
                                           t_max=t_max))
        est = estimate_blowup(record)
        assert (row["terminated"], row["T_est"], row["C_est"]) == (
            record.terminated.value, est.t_blowup, est.c)
        reports = all_reports(d, 1.0)
        assert [row[k] for k in VERDICTS] == [reports[k].satisfied
                                             for k in VERDICTS]
        assert row["margin_charac"] == reports["charac"].margin
        assert set(criteria_row) == {"a", "b", *VERDICTS, "margin_charac"}
        assert set(row) == {*criteria_row, "terminated", "T_est", "C_est"}
        assert {k: row[k] for k in criteria_row} == criteria_row
