"""Config-driven command line: simulate | criteria | characteristics | wave
| scan.

Each subcommand reads its own keys, listed with their defaults in
COMMAND_KEYS; a key's type is the type of its default.  Settings come from
the defaults, then a flat key = value config file (--config), then --key
flags.  A key the command does not read is a usage error, whether it is
given as a flag or in the config file.  Outputs (CSV data plus small
matplotlib plot scripts) land in output_dir, which defaults to
$OHLAB_OUTPUT_DIR or the working directory.  Each handler returns its
summary; `dispatch` writes it to summary.json as strict JSON (a non-finite
number is null) and prints the same text.  Exit status: 0 success, 1 usage
error (any ValueError: a float key that is nan or +-inf, a value out of
range, a key the selected mode ignores), 2 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import characteristics as chars
from . import criteria as crit
from . import evolution, scan as scan_mod, waves
from .errors import NoConvergence
from .evolution import SimulationConfig, Termination
from .initial import two_mode_quantities

_RUN = {"gamma": 1.0, "a": 0.05, "b": 0.0, "n": 4096, "dt": 1e-3,
        "t_max": 25.0, "stop_slope": -200.0, "output_dir": ""}
# scan's keys that are ScanConfig fields take its defaults, so that the
# command and the library scan step the same grid
_SCAN = {f.name: f.default for f in dataclasses.fields(scan_mod.ScanConfig)
         if f.default is not dataclasses.MISSING}

COMMAND_KEYS = {
    "simulate": {**_RUN, "stride": 1, "snapshots": ""},
    "criteria": {"gamma": 1.0, "a": 0.05, "b": 0.0, "output_dir": ""},
    "characteristics": {**_RUN, "n_xi": 256, "sample_stride": 10},
    "wave": {"gamma": 1.0, "c_over_gamma": 1.05, "corner": False,
             "branch_ratios": "", "n": 256, "output_dir": ""},
    "scan": {"a_min": 0.0, "a_max": 0.2, "a_count": 41, "b_min": 0.0,
             "b_max": 0.2, "b_count": 41, **_SCAN, "output_dir": ""},
}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def finite(text: str) -> float:
    """A float key's value; nan and +-inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _caster(default):
    return {bool: _parse_bool, float: finite}.get(type(default),
                                                  type(default))


def _floats(text: str) -> tuple:
    """A comma list of numbers, as in snapshots and branch_ratios."""
    return tuple(float(s) for s in text.split(",") if s.strip())


def read_config(path: str, keys: dict) -> dict:
    """Parse a config file against one command's key -> default table; a
    key given on two lines is a usage error."""
    out, seen = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ValueError(f"{path}:{lineno}: key {key!r} already "
                                 f"set on line {seen[key]}")
            seen[key] = lineno
            try:
                out[key] = _caster(keys[key])(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def _settings(args) -> dict:
    keys = COMMAND_KEYS[args.command]
    cfg = dict(keys)
    if args.config:
        cfg.update(read_config(args.config, keys))
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if not cfg["output_dir"]:
        cfg["output_dir"] = os.environ.get("OHLAB_OUTPUT_DIR", ".")
    return cfg


def _outdir(cfg) -> Path:
    path = Path(cfg["output_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sim_config(cfg, **extra) -> SimulationConfig:
    """The run's config from the settings; SimulationConfig checks them, so
    a bad value fails before any step is taken or any file written."""
    return SimulationConfig(
        initial=two_mode_quantities(cfg["a"], cfg["b"]), gamma=cfg["gamma"],
        n=cfg["n"], dt=cfg["dt"], t_max=cfg["t_max"],
        stop_slope=cfg["stop_slope"], **extra)


def _fit_blowup(record, out: Path):
    """The blow-up fit of a run, with its rate products written to out; None
    if the run did not break or its fit window is too short."""
    est = evolution.estimate_blowup(record)
    if est is not None:
        chars.write_rate_products_csv(chars.rate_products(record, est),
                                      out / "rate_products.csv")
        _write_plot(out, "rate_products", "rate_products.csv", _RATE_PLOT)
    return est


def _time_label(t: float) -> str:
    """t as `:g` renders it if that parses back to t, else its shortest
    round-trip repr without a trailing .0: a label that names t exactly."""
    label = f"{t:g}"
    return label if float(label) == t else repr(t).removesuffix(".0")


def _cmd_simulate(cfg) -> dict:
    config = _sim_config(cfg, stride=cfg["stride"],
                         snapshot_times=_floats(cfg["snapshots"]))
    record = evolution.simulate(config)
    out = _outdir(cfg)
    est = _fit_blowup(record, out)
    evolution.write_timeseries(record, out / "timeseries.csv")
    for t, f in record.snapshots.items():
        evolution.write_snapshot(f, out / f"snapshot_t{_time_label(t)}.csv")
    _write_plot(out, "timeseries", "timeseries.csv", _TIMESERIES_PLOT)
    return evolution.run_summary(record, est)


def _cmd_criteria(cfg) -> dict:
    d = two_mode_quantities(cfg["a"], cfg["b"])
    reports = crit.all_reports(d, cfg["gamma"])
    summary = {name: dataclasses.asdict(rep) for name, rep in reports.items()}
    summary["scalars"] = {"sup_abs": d.sup_abs, "l2": d.l2,
                          "min_slope": d.min_slope, "max_slope": d.max_slope,
                          "cube": d.cube}
    return summary


def _cmd_characteristics(cfg) -> dict:
    config = _sim_config(cfg)
    record, trace = chars.co_evolve(config, n_xi=cfg["n_xi"],
                                    sample_stride=cfg["sample_stride"])
    out = _outdir(cfg)
    chars.write_ensemble_csv(trace, out / "ensemble.csv")
    return {
        **evolution.run_summary(record, _fit_blowup(record, out)),
        "t_end": float(record.times[-1]),
        "sup_consistency": float(trace.consistency.max()),
        "min_v_vs_grid": float(np.max(np.abs(trace.min_v - record.min_ux))),
        "diffeomorphism": bool(trace.diffeo.all()),
    }


def _cmd_wave(cfg) -> dict:
    """A non-empty branch_ratios sweeps the branch and writes its steepest
    profile; else corner gives the corner wave, else one Newton solve at
    c_over_gamma, the one mode that reads it.  "tail" is the profile's
    `WaveProfile.tail`, the largest over a branch: above round-off, n does
    not resolve the wave."""
    gamma, n = cfg["gamma"], cfg["n"]
    ratios = _floats(cfg["branch_ratios"])
    if ratios and cfg["corner"]:
        raise ValueError("corner and branch_ratios select different wave "
                         "modes; give one of them")
    if (ratios or cfg["corner"]) and \
            cfg["c_over_gamma"] != COMMAND_KEYS["wave"]["c_over_gamma"]:
        raise ValueError("c_over_gamma sets the single Newton solve; corner "
                         "and branch_ratios do not read it")
    info = {}
    if ratios:
        profiles = waves.continuation_branch(gamma, ratios, n=n)
        info = {"branch_points": len(profiles),
                "max_residual": max(w.residual for w in profiles)}
        w = max(profiles, key=lambda p: p.c)
        residual = w.residual
    elif cfg["corner"]:
        w = waves.corner_wave(gamma, n=n)
        residual = waves.ode_residual(w, scheme="fd", exclude_crest=4)
    else:
        w = waves.solve_periodic_wave(cfg["c_over_gamma"] * gamma, gamma,
                                      n=n)
        residual = w.residual
    out = _outdir(cfg)
    if ratios:
        waves.write_branch_csv(profiles, out / "branch.csv")
    waves.write_profile_csv(w, out / "wave.csv")
    _write_plot(out, "wave", "wave.csv", _WAVE_PLOT)
    return {**info, "c_over_gamma": w.c / w.gamma, "amplitude": w.amplitude,
            "residual": residual,
            "tail": max(p.tail for p in profiles) if ratios else w.tail}


def _cmd_scan(cfg) -> dict:
    sconf = scan_mod.ScanConfig(
        a_range=(cfg["a_min"], cfg["a_max"], cfg["a_count"]),
        b_range=(cfg["b_min"], cfg["b_max"], cfg["b_count"]),
        **{key: cfg[key] for key in _SCAN})
    rows = scan_mod.scan(sconf)
    out = _outdir(cfg)
    if cfg["criteria_only"]:
        csv = "region.csv"
        scan_mod.write_region_csv(rows, out / csv)
    else:
        csv = "region_sim.csv"
        scan_mod.write_simulation_csv(rows, out / csv)
    _write_plot(out, "region", csv, _REGION_PLOT)
    violations = scan_mod.region_ordering_violations(rows)
    return {"points": len(rows),
            "charac_satisfied": sum(r["charac"] for r in rows),
            "ordering_violations": len(violations)}


# Every plot script: the guarded import, the table read into `data`, a
# command's body drawing on `fig`, and the save.
_PLOT = """\
try:
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib is not installed; {png} not drawn")
    raise SystemExit(0)
import numpy as np

data = np.genfromtxt("{csv}", delimiter=",", names=True)
{body}fig.tight_layout()
fig.savefig("{png}", dpi=150)
"""


def _write_plot(out: Path, stem: str, csv: str, body: str):
    """Write plot_<stem>.py, which draws the table csv into <stem>.png."""
    (out / f"plot_{stem}.py").write_text(
        _PLOT.format(png=f"{stem}.png", csv=csv, body=body))


_TIMESERIES_PLOT = """\
fig, (ax1, ax2) = plt.subplots(2, 1, sharex=True, figsize=(7, 6))
ax1.plot(data["t"], data["min_ux"], label="min u_x")
ax1.plot(data["t"], data["max_ux"], label="max u_x")
ax1.set_ylabel("slope extrema")
ax1.legend()
ax2.plot(data["t"], -1.0 / data["min_ux"], label="-1/min u_x")
ax2.set_xlabel("t")
ax2.set_ylabel("-1/min u_x")
ax2.legend()
"""

_RATE_PLOT = """\
fig, ax = plt.subplots(figsize=(7, 4))
ax.plot(data["t"], data["p_min"], label="(T-t) min u_x")
ax.plot(data["t"], data["p_max"], label="(T-t) max u_x")
ax.axhline(-1.0, color="k", lw=0.5)
ax.axhline(0.0, color="k", lw=0.5)
ax.set_xlabel("t")
ax.legend()
"""

_WAVE_PLOT = """\
fig, ax = plt.subplots(figsize=(7, 4))
ax.plot(data["x"], data["phi"])
ax.set_xlabel("x")
ax.set_ylabel("phi")
"""

_REGION_PLOT = """\
fig, ax = plt.subplots(figsize=(6, 6))
for name, marker in (("hunter", "s"), ("cond1", "o"), ("charac", ".")):
    mask = data[name] > 0
    ax.plot(data["a"][mask], data["b"][mask], marker, ms=3, label=name,
            alpha=0.6)
ax.set_xlabel("a")
ax.set_ylabel("b")
ax.legend()
"""

_HANDLERS = {
    "simulate": _cmd_simulate,
    "criteria": _cmd_criteria,
    "characteristics": _cmd_characteristics,
    "wave": _cmd_wave,
    "scan": _cmd_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohlab",
        description="Wave-breaking laboratory for a nonlocal shallow-water "
                    "equation on the circle")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in COMMAND_KEYS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat key = value settings file")
        for key, default in keys.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           default=None, type=_caster(default),
                           metavar="BOOL" if isinstance(default, bool)
                           else None,
                           help=f"default {default!r}")
    return parser


def _finite_or_null(value):
    """value with nan and +-inf floats replaced by None, so that the summary
    is strict JSON (e.g. the margin -inf of a criterion that cannot hold)."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = _settings(args)
        summary = _HANDLERS[args.command](cfg)
        text = json.dumps(_finite_or_null(summary), indent=2,
                          allow_nan=False)
        (_outdir(cfg) / "summary.json").write_text(text + "\n")
    except NoConvergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    print(text)
    failed = summary.get("terminated") == Termination.NumericalFailure.value
    return 2 if failed else 0


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
