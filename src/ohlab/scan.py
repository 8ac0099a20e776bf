"""Parameter-plane sweeps over the two-mode family (a, b).

One function, `_point`, evaluates a grid point: it builds the two-mode datum
once, takes its criteria verdicts and, unless the scan is criteria-only,
runs the breaking simulation on it.  `scan` maps it in a fixed order
(b-major, then a) over an optional worker pool and returns the rows, one
plain dict per point; assembly is single-writer, so output is bitwise
identical for any worker count.  The solver, `ohlab.evolution`, is imported
only by a simulated scan.
"""
from __future__ import annotations

import functools
import math
import multiprocessing
from dataclasses import dataclass, fields

import numpy as np

from . import criteria as crit
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
            from .evolution import check_stepping

            # every point steps with these settings: check them once, here
            check_stepping(self.gamma, self.n, self.dt, self.t_max,
                           self.stop_slope)

    def points(self):
        def axis(rng):
            lo, hi, count = rng
            return [lo] if count == 1 else list(np.linspace(lo, hi, count))

        return [(a, b) for b in axis(self.b_range) for a in axis(self.a_range)]


def _point(config: ScanConfig, ab: tuple[float, float]) -> dict:
    """The row of grid point ab = (a, b): its verdicts and, in a simulated
    scan, how its run ended and its blow-up estimate."""
    d = two_mode_quantities(*ab)
    reports = crit.all_reports(d, config.gamma)
    row = {"a": d.params["a"], "b": d.params["b"],
           "hunter": reports["hunter"].satisfied,
           "cond1": reports["cond1"].satisfied,
           "cond2": reports["cond2"].satisfied,
           "charac": reports["charac"].satisfied,
           "margin_charac": reports["charac"].margin}
    if config.criteria_only:
        return row
    from .evolution import SimulationConfig, estimate_blowup, simulate

    record = simulate(SimulationConfig(
        initial=d, gamma=config.gamma, n=config.n, dt=config.dt,
        t_max=config.t_max, stop_slope=config.stop_slope))
    est = estimate_blowup(record)
    return {**row, "terminated": record.terminated.value,
            "T_est": math.nan if est is None else est.t_blowup,
            "C_est": math.nan if est is None else est.c}


def scan(config: ScanConfig) -> list:
    """The rows of every grid point, in the order of `config.points()`."""
    point = functools.partial(_point, config)
    if config.workers == 1:
        return list(map(point, config.points()))
    with multiprocessing.Pool(config.workers) as pool:
        return pool.map(point, config.points(), chunksize=1)


def _columns(rows: list, names: str) -> list:
    return [[r[k] for r in rows] for k in names.split(",")]


def write_region_csv(rows: list, path):
    """Criteria verdict map: a,b,hunter,cond1,cond2,charac,margin_charac."""
    header = "a,b,hunter,cond1,cond2,charac,margin_charac"
    write_csv(path, header, _columns(rows, header),
              "%.17g,%.17g,%d,%d,%d,%d,%.17g")


def write_simulation_csv(rows: list, path):
    """Verdicts plus per-point blow-up estimates:
    a,b,hunter,cond1,cond2,charac,T_est,C_est,terminated."""
    header = "a,b,hunter,cond1,cond2,charac,T_est,C_est,terminated"
    write_csv(path, header, _columns(rows, header),
              "%.17g,%.17g,%d,%d,%d,%d,%.17g,%.17g,%s")


def region_ordering_violations(rows: list) -> list:
    """Points violating the expected inclusion ordering: every point breaking
    by the gamma=1 slope-size test or the strong cube test must also break by
    the characteristics test."""
    bad = []
    for r in rows:
        if (r["hunter"] or r["cond1"]) and not r["charac"]:
            bad.append((r["a"], r["b"]))
    return bad
