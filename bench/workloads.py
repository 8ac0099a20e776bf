"""The four benchmark workloads.

Each workload builds its inputs from the seed (seed 0 is the canonical
input), runs one fixed job per pass through ohlab's public API, and checks
every output of the pass at the tolerance the matching acceptance or module
test uses.  ohlab's modules are looked up when the workload is built, so the
job calls, and the tracer patches, the modules of the latest import.

A workload has `ops_per_pass`, `warm_up(workdir)`, `run_pass(workdir)` and
`check(outputs, workdir) -> (list of per-op verdicts, values)`; `values`
holds the check values and output counts that the traced run reports.
"""
from __future__ import annotations

import dataclasses
import importlib
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def _module(name):
    return importlib.import_module(f"ohlab.{name}")


def _rng(seed: int):
    # made for every seed, seed 0 too, so that numpy.random's import (~6 MB)
    # weighs on peak memory alike
    return np.random.default_rng(seed)


def _phase(seed: int) -> float:
    phase = float(_rng(seed).random())
    return 0.0 if seed == 0 else phase


def _translated(a: float, b: float, phase: float):
    """The two-mode datum moved right by `phase`.  Its sup, L2 norm and slope
    scalars are translation invariant, and so are B and C, while the front
    lands differently on the grid."""
    d = _module("initial").two_mode_quantities(a, b)
    fn = d.params["fn"]
    return dataclasses.replace(
        d, params={**d.params, "phase": phase, "fn": lambda x: fn(x - phase)})


def _data_rows(path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


class Breaking:
    """Case 1 (a=0.05, b=0, n=4096, dt=1e-3) to slope blow-up, the B/C
    regression and the time-series writer; a sample after every step."""

    ops_per_pass = 1
    host_kernel = "mixed"

    def __init__(self, seed: int, toy: bool, reference: dict):
        self.ev = _module("evolution")
        self.ref = reference["breaking"]
        self.toy = toy
        self.initial = _translated(0.05, 0.0, _phase(seed))
        n = 1024 if toy else 4096
        self.config = self.ev.SimulationConfig(initial=self.initial, n=n,
                                               dt=1e-3, t_max=25.0)
        self.warm = dataclasses.replace(self.config, t_max=0.01)

    def warm_up(self, workdir):
        self.ev.write_timeseries(self.ev.simulate(self.warm),
                                 workdir / "timeseries.csv")

    def run_pass(self, workdir):
        record = self.ev.simulate(self.config)
        est = self.ev.estimate_blowup(record)
        self.ev.write_timeseries(record, workdir / "timeseries.csv")
        return record, est

    def check(self, outputs, workdir):
        record, est = outputs
        r, d, g = self.ref, self.initial, self.config.gamma
        t = record.times
        band = record.min_ux >= r["resolved_floor"]
        tb = t[band]
        sup_ok = np.all(record.sup_abs_u
                        <= d.sup_abs + g * t * d.l2 + r["bound_tol"])
        slope_ok = np.all(record.max_ux[band]
                          <= d.max_slope + g * (tb * d.sup_abs
                                                + 0.5 * g * tb ** 2 * d.l2)
                          + r["bound_tol"])
        mass = float(np.max(np.abs(record.mass_drift[band])))
        q = float(np.max(np.abs(record.q_drift[band])))
        e = float(np.max(np.abs(record.e_drift[band])))
        c_lo, c_hi = r["C_range_toy" if self.toy else "C_range"]
        ok = (record.terminated.value == "SlopeBlowup"
              and abs(est.b - r["B"]) < r["B_rel"] * abs(r["B"])
              and c_lo <= est.c <= c_hi
              and mass < r["mass_drift"] and q < r["q_drift"]
              and e < r["e_drift"] and sup_ok and slope_ok
              and _data_rows(workdir / "timeseries.csv") == len(t))
        return [bool(ok)], {"check.B": est.b, "check.C": est.c,
                            "check.q_drift_max": q, "check.e_drift_max": e,
                            "evolution.samples": len(t)}


class Coevolve:
    """The acceptance-8 problem (a=0.005, n=1024, n_xi=256, sample_stride=10)
    up to t=0.3, then the ensemble writer; sparse diagnostics, off-grid
    interpolation and provider sub-steps."""

    ops_per_pass = 1
    host_kernel = "mixed"

    def __init__(self, seed: int, toy: bool, reference: dict):
        self.ch = _module("characteristics")
        ev = _module("evolution")
        self.ref = reference["coevolve"]
        self.n_xi = 32 if toy else 256
        self.config = ev.SimulationConfig(
            initial=_translated(0.005, 0.0, _phase(seed)),
            n=256 if toy else 1024, dt=1e-3, t_max=0.3)
        self.warm = dataclasses.replace(self.config, t_max=0.02)

    def warm_up(self, workdir):
        _, trace = self.ch.co_evolve(self.warm, n_xi=self.n_xi,
                                     sample_stride=10)
        self.ch.write_ensemble_csv(trace, workdir / "ensemble.csv")

    def run_pass(self, workdir):
        record, trace = self.ch.co_evolve(self.config, n_xi=self.n_xi,
                                          sample_stride=10)
        self.ch.write_ensemble_csv(trace, workdir / "ensemble.csv")
        return record, trace

    def check(self, outputs, workdir):
        record, trace = outputs
        consistency = float(trace.consistency.max())
        v_err = float(np.max(np.abs(trace.min_v - record.min_ux)))
        rows = _data_rows(workdir / "ensemble.csv")
        ok = (consistency < self.ref["consistency"]
              and v_err < self.ref["min_v_err"] and bool(trace.diffeo.all())
              and rows == len(trace.times) * self.n_xi)
        return [bool(ok)], {"check.consistency_max": consistency,
                            "check.min_v_err": v_err,
                            "evolution.samples": len(record.times)}


class CriteriaMap:
    """Criteria-only scan of two-mode points with one worker, then the region
    writer; each point is one op.  Seed 0 is the 3x3 sub-lattice
    {0.025, 0.1, 0.175}^2 of the 41x41 map over [0, 0.2]^2, other seeds the
    same lattice moved to a random origin in [0.015, 0.035]^2."""

    host_kernel = "mixed"

    def __init__(self, seed: int, toy: bool, reference: dict):
        self.scan = _module("scan")
        self.ref = reference["criteria_map"]
        count = 2 if toy else 3
        origin = _rng(seed).uniform(0.015, 0.035, 2)
        lo_a, lo_b = (0.025, 0.025) if seed == 0 else origin
        self.config = self.scan.ScanConfig(
            a_range=(float(lo_a), float(lo_a) + 0.15, count),
            b_range=(float(lo_b), float(lo_b) + 0.15, count))
        self.ops_per_pass = count * count
        self.region = None
        if seed == 0:
            with open(HERE / self.ref["region_seed0"]) as fh:
                self.region = {",".join(f[:2]): (f[2:6], float(f[6]))
                               for f in (line.rstrip("\n").split(",")
                                         for line in list(fh)[1:])}
        # every characteristics-criterion report, with its inputs, so the
        # check can test the reported time bound the region file omits
        self.reports = []
        crit = _module("criteria")
        inner = crit.characteristics_criterion

        def tapped(d, gamma):
            report = inner(d, gamma)
            self.reports.append((d, gamma, report))
            return report

        crit.characteristics_criterion = tapped
        self.warm = self.scan.ScanConfig(a_range=(0.1, 0.1, 1),
                                         b_range=(0.1, 0.1, 1))

    def warm_up(self, workdir):
        self.scan.write_region_csv(self.scan.scan(self.warm),
                                   workdir / "region.csv")

    def run_pass(self, workdir):
        self.reports.clear()
        result = self.scan.scan(self.config)
        self.scan.write_region_csv(result, workdir / "region.csv")
        return result

    def _time_bound_ok(self, d, gamma, report) -> bool:
        """T1 solves 2 sqrt(gamma) T sqrt(sup + gamma l2 T) = log(1+2/eps)."""
        if report.time_bound is None:
            return True
        t = report.time_bound
        lhs = 2.0 * math.sqrt(gamma) * t * math.sqrt(d.sup_abs
                                                     + gamma * d.l2 * t)
        rhs = math.log1p(2.0 / report.epsilon)
        return abs(lhs - rhs) <= self.ref["time_bound_rel"] * rhs

    def check(self, outputs, workdir):
        with open(workdir / "region.csv") as fh:
            lines = fh.read().splitlines()[1:]
        if len(lines) != self.ops_per_pass or \
                len(self.reports) != self.ops_per_pass:
            return [False] * self.ops_per_pass, {}
        ops, mismatches = [], 0
        for line, (d, gamma, report) in zip(lines, self.reports):
            f = line.split(",")
            hunter, cond1, _, charac = f[2:6]
            ok = (not ((hunter == "1" or cond1 == "1") and charac == "0")
                  and self._time_bound_ok(d, gamma, report))
            if self.region is not None:
                verdicts, margin = self.region.get(",".join(f[:2]),
                                                   (None, math.nan))
                same = verdicts == f[2:6]
                mismatches += not same
                m = float(f[6])
                ok = ok and same and (m == margin or abs(m - margin)
                                      <= self.ref["margin_rel"] * abs(margin))
            ops.append(bool(ok))
        return ops, {"check.verdict_mismatches": mismatches}


class WaveBranch:
    """Newton continuation of traveling waves over nine speed ratios in
    [1.01, 1.09] at n=512, then three cold solves at n=256 and the branch
    writer; each profile is one op.  Other seeds than 0 jitter each interior
    ratio by up to 1e-3.  Its host-speed kernel is "spectral", which
    followed it better than "mixed" (see hostclock.py)."""

    host_kernel = "spectral"

    def __init__(self, seed: int, toy: bool, reference: dict):
        self.waves = _module("waves")
        self.ref = reference["wave_branch"]
        if toy:
            ratios, cold = [1.01, 1.03, 1.05], [1.03]
            self.n = self.cold_n = 128
        else:
            ratios = np.linspace(1.01, 1.09, 9)
            cold, self.n, self.cold_n = [1.02, 1.04, 1.06], 512, 256
        ratios, cold = np.array(ratios), np.array(cold)
        rng = _rng(seed)
        if seed != 0:
            ratios[1:-1] += rng.uniform(-1e-3, 1e-3, len(ratios) - 2)
            cold += rng.uniform(-1e-3, 1e-3, len(cold))
        self.ratios, self.cold = list(ratios), list(cold)
        self.ops_per_pass = len(self.ratios) + len(self.cold)

    def warm_up(self, workdir):
        self.waves.write_branch_csv(
            self.waves.continuation_branch(1.0, self.ratios[:2], n=self.n)
            + [self.waves.solve_periodic_wave(self.cold[0], 1.0,
                                              n=self.cold_n)],
            workdir / "branch.csv")

    def run_pass(self, workdir):
        branch = self.waves.continuation_branch(1.0, self.ratios, n=self.n)
        cold = [self.waves.solve_periodic_wave(s, 1.0, n=self.cold_n)
                for s in self.cold]
        self.waves.write_branch_csv(branch, workdir / "branch.csv")
        self.waves.write_branch_csv(cold, workdir / "cold.csv")
        return branch, cold

    def check(self, outputs, workdir):
        branch, cold = outputs
        crest = math.pi ** 2 / 9.0     # crest height of the corner wave
        ops, worst = [], 0.0
        for profiles, name in ((branch, "branch.csv"), (cold, "cold.csv")):
            rows = np.loadtxt(workdir / name, delimiter=",", skiprows=1,
                              ndmin=2)
            if len(rows) != len(profiles):
                return [False] * self.ops_per_pass, {}
            for i, (w, (s, amp, res)) in enumerate(zip(profiles, rows)):
                tol = (self.ref["residual"] if s <= self.ref["near_limit"]
                       else self.ref["residual_near_limit"])
                worst = max(worst, res)
                ok = res < tol and w.phi.max() < crest
                if profiles is branch and i > 0:
                    ok = ok and amp > rows[i - 1][1]
                ops.append(bool(ok))
        return ops, {"check.wave_residual_max": worst}


WORKLOADS = {"breaking": Breaking, "coevolve": Coevolve,
             "criteria_map": CriteriaMap, "wave_branch": WaveBranch}
