"""Parameter-plane sweeps over the two-mode family (a, b).

Each grid point is evaluated by a pure function of plain scalars, mapped in a
fixed order (b-major, then a) over an optional worker pool; assembly is
single-writer.  Output is therefore bitwise identical for any worker count.
"""
from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field, fields

import numpy as np

from . import criteria as crit
from .evolution import (SimulationConfig, check_stepping, estimate_blowup,
                        simulate)
from .initial import two_mode_quantities
from .tables import write_csv


@dataclass(frozen=True)
class ScanConfig:
    a_range: tuple[float, float, int]      # (min, max, count)
    b_range: tuple[float, float, int]
    gamma: float = 1.0
    criteria_only: bool = True
    workers: int = 1
    # per-point simulation settings: a criteria-only scan rejects any that
    # differs from its default
    n: int = 1024
    dt: float = 1e-3
    t_max: float = 30.0
    stop_slope: float = -200.0

    def __post_init__(self):
        for rng in (self.a_range, self.b_range):
            lo, hi, count = rng
            if count < 1 or (count > 1 and hi <= lo):
                raise ValueError(f"bad range {rng}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        stepping = [f.name for f in fields(self)
                    if f.name in ("n", "dt", "t_max", "stop_slope")
                    and getattr(self, f.name) != f.default]
        if self.criteria_only and stepping:
            raise ValueError(f"{', '.join(stepping)} only apply when "
                             "criteria_only is false")
        if not self.criteria_only:
            # every point steps with these settings: check them once, here
            check_stepping(self.gamma, self.n, self.dt, self.t_max,
                           self.stop_slope)

    def points(self):
        def axis(rng):
            lo, hi, count = rng
            return [lo] if count == 1 else list(np.linspace(lo, hi, count))

        return [(a, b) for b in axis(self.b_range) for a in axis(self.a_range)]


@dataclass
class ScanResult:
    config: ScanConfig
    rows: list = field(default_factory=list)   # dicts, one per grid point


def _criteria_row(d, gamma: float) -> dict:
    """The verdict row of one two-mode datum d."""
    reports = crit.all_reports(d, gamma)
    return {
        "a": d.params["a"], "b": d.params["b"],
        "hunter": reports["hunter"].satisfied,
        "cond1": reports["cond1"].satisfied,
        "cond2": reports["cond2"].satisfied,
        "charac": reports["charac"].satisfied,
        "margin_charac": reports["charac"].margin,
    }


def _criteria_point(args) -> dict:
    a, b, gamma = args
    return _criteria_row(two_mode_quantities(a, b), gamma)


def _simulation_point(args) -> dict:
    a, b, gamma, n, dt, t_max, stop_slope = args
    d = two_mode_quantities(a, b)
    row = _criteria_row(d, gamma)
    config = SimulationConfig(initial=d, gamma=gamma, n=n, dt=dt,
                              t_max=t_max, stop_slope=stop_slope)
    record = simulate(config)
    est = estimate_blowup(record)
    row["terminated"] = record.terminated.value
    row["T_est"] = math.nan if est is None else est.t_blowup
    row["C_est"] = math.nan if est is None else est.c
    return row


def scan(config: ScanConfig) -> ScanResult:
    points = config.points()
    if config.criteria_only:
        fn = _criteria_point
        args = [(a, b, config.gamma) for a, b in points]
    else:
        fn = _simulation_point
        args = [(a, b, config.gamma, config.n, config.dt, config.t_max,
                 config.stop_slope) for a, b in points]
    if config.workers == 1:
        rows = [fn(arg) for arg in args]
    else:
        with multiprocessing.Pool(config.workers) as pool:
            rows = pool.map(fn, args, chunksize=1)
    return ScanResult(config=config, rows=rows)


def _columns(result: ScanResult, names: str) -> list:
    return [[r[k] for r in result.rows] for k in names.split(",")]


def write_region_csv(result: ScanResult, path):
    """Criteria verdict map: a,b,hunter,cond1,cond2,charac,margin_charac."""
    header = "a,b,hunter,cond1,cond2,charac,margin_charac"
    write_csv(path, header, _columns(result, header),
              "%.17g,%.17g,%d,%d,%d,%d,%.17g")


def write_simulation_csv(result: ScanResult, path):
    """Verdicts plus per-point blow-up estimates:
    a,b,hunter,cond1,cond2,charac,T_est,C_est,terminated."""
    header = "a,b,hunter,cond1,cond2,charac,T_est,C_est,terminated"
    write_csv(path, header, _columns(result, header),
              "%.17g,%.17g,%d,%d,%d,%d,%.17g,%.17g,%s")


def region_ordering_violations(result: ScanResult) -> list:
    """Points violating the expected inclusion ordering: every point breaking
    by the gamma=1 slope-size test or the strong cube test must also break by
    the characteristics test."""
    bad = []
    for r in result.rows:
        if (r["hunter"] or r["cond1"]) and not r["charac"]:
            bad.append((r["a"], r["b"]))
    return bad
