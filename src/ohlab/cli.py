"""Config-driven command line: simulate | criteria | characteristics | wave
| scan.

Each subcommand reads its own keys, listed with their defaults in
COMMAND_KEYS; a key's type is the type of its default.  Settings come from
the defaults, then a flat key = value config file (--config), then --key
flags.  A key the command does not read is a usage error, whether it is
given as a flag or in the config file.  Outputs (CSV data plus small
matplotlib plot scripts) land in output_dir, which defaults to
$OHLAB_OUTPUT_DIR or the working directory.
Exit status: 0 success, 1 usage error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import characteristics as chars
from . import criteria as crit
from . import evolution, scan as scan_mod, waves
from .errors import InsufficientWindow, NoConvergence, OhlabError
from .evolution import SimulationConfig, Termination
from .initial import two_mode_quantities

_STEPPING = {"n": 4096, "dt": 1e-3, "t_max": 25.0, "stop_slope": -200.0}
_RUN = {"gamma": 1.0, "a": 0.05, "b": 0.0, **_STEPPING,
        "fit_depth": -6.0, "output_dir": ""}

COMMAND_KEYS = {
    "simulate": {**_RUN, "stride": 1, "snapshots": ""},
    "criteria": {"gamma": 1.0, "a": 0.05, "b": 0.0, "output_dir": ""},
    "characteristics": {**_RUN, "n_xi": 256, "sample_stride": 10},
    "wave": {"gamma": 1.0, "c_over_gamma": 1.05, "corner": False,
             "branch_ratios": "", "n": 256, "output_dir": ""},
    "scan": {"gamma": 1.0, "a_min": 0.0, "a_max": 0.2, "a_count": 41,
             "b_min": 0.0, "b_max": 0.2, "b_count": 41,
             "criteria_only": True, "workers": 1, **_STEPPING,
             "output_dir": ""},
}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _caster(default):
    return _parse_bool if isinstance(default, bool) else type(default)


def _floats(text: str) -> tuple:
    """A comma list of numbers, as in snapshots and branch_ratios."""
    return tuple(float(s) for s in text.split(",") if s.strip())


def read_config(path: str, keys: dict) -> dict:
    """Parse a config file against one command's key -> default table."""
    out = {}
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
            out[key] = _caster(keys[key])(value)
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
    """The run's config; checks fit_depth too, so that a bad value fails
    before any step is taken or any file written."""
    if cfg["fit_depth"] >= 0:
        raise ValueError("fit_depth must be negative")
    return SimulationConfig(
        initial=two_mode_quantities(cfg["a"], cfg["b"]), gamma=cfg["gamma"],
        n=cfg["n"], dt=cfg["dt"], t_max=cfg["t_max"],
        stop_slope=cfg["stop_slope"], **extra)


def _fit_blowup(record, cfg, out: Path):
    """The blow-up fit of a run that broke, with its rate products written to
    out; None if the run did not break or its fit window is too short."""
    if record.terminated is not Termination.SlopeBlowup:
        return None
    try:
        est = evolution.estimate_blowup(record, fit_depth=cfg["fit_depth"])
    except InsufficientWindow:
        return None
    chars.write_rate_products_csv(chars.rate_products(record, est),
                                  out / "rate_products.csv")
    _write_plot(out, "rate_products", "rate_products.csv", _RATE_PLOT)
    return est


def _cmd_simulate(cfg) -> int:
    config = _sim_config(cfg, stride=cfg["stride"],
                         snapshot_times=_floats(cfg["snapshots"]))
    out = _outdir(cfg)
    record = evolution.simulate(config)
    est = _fit_blowup(record, cfg, out)
    evolution.write_timeseries(record, out / "timeseries.csv")
    evolution.write_summary(record, est, out / "summary.json")
    for t, f in record.snapshots.items():
        evolution.write_snapshot(f, out / f"snapshot_t{t:g}.csv")
    _write_plot(out, "timeseries", "timeseries.csv", _TIMESERIES_PLOT)
    print(json.dumps(evolution.run_summary(record, est), indent=2))
    return 2 if record.terminated is Termination.NumericalFailure else 0


def _cmd_criteria(cfg) -> int:
    d = two_mode_quantities(cfg["a"], cfg["b"])
    reports = crit.all_reports(d, cfg["gamma"])
    payload = {name: rep.as_dict() for name, rep in reports.items()}
    payload["scalars"] = {"sup_abs": d.sup_abs, "l2": d.l2,
                          "min_slope": d.min_slope, "max_slope": d.max_slope,
                          "cube": d.cube}
    text = json.dumps(payload, indent=2)
    (_outdir(cfg) / "criteria.json").write_text(text + "\n")
    print(text)
    return 0


def _cmd_characteristics(cfg) -> int:
    config = _sim_config(cfg)
    out = _outdir(cfg)
    record, trace = chars.co_evolve(config, n_xi=cfg["n_xi"],
                                    sample_stride=cfg["sample_stride"])
    chars.write_ensemble_csv(trace, out / "ensemble.csv")
    summary = {
        **evolution.run_summary(record, _fit_blowup(record, cfg, out)),
        "t_end": float(record.times[-1]),
        "sup_consistency": float(trace.consistency.max()),
        "min_v_vs_grid": float(np.max(np.abs(trace.min_v - record.min_ux))),
        "diffeomorphism": bool(trace.diffeo.all()),
    }
    text = json.dumps(summary, indent=2)
    (out / "summary.json").write_text(text + "\n")
    print(text)
    return 2 if record.terminated is Termination.NumericalFailure else 0


def _cmd_wave(cfg) -> int:
    """A non-empty branch_ratios sweeps the branch and writes its steepest
    profile; else corner gives the corner wave, else one Newton solve."""
    gamma, n = cfg["gamma"], cfg["n"]
    ratios = _floats(cfg["branch_ratios"])
    if ratios and cfg["corner"]:
        raise ValueError("corner and branch_ratios select different wave "
                         "modes; give one of them")
    out = _outdir(cfg)
    info = {}
    if ratios:
        profiles = waves.continuation_branch(gamma, ratios, n=n)
        waves.write_branch_csv(profiles, out / "branch.csv")
        info = {"branch_points": len(profiles),
                "max_residual": max(waves.ode_residual(w) for w in profiles)}
        w = max(profiles, key=lambda p: p.c)
        residual = waves.ode_residual(w)
    elif cfg["corner"]:
        w = waves.corner_wave(gamma, n=n)
        residual = waves.ode_residual(w, scheme="fd", exclude_crest=4)
    else:
        w = waves.solve_periodic_wave(cfg["c_over_gamma"] * gamma, gamma,
                                      n=n)
        residual = waves.ode_residual(w)
    waves.write_profile_csv(w, out / "wave.csv")
    _write_plot(out, "wave", "wave.csv", _WAVE_PLOT)
    print(json.dumps({**info, "c_over_gamma": w.c / w.gamma,
                      "amplitude": w.amplitude, "residual": residual}))
    return 0


def _cmd_scan(cfg) -> int:
    out = _outdir(cfg)
    sconf = scan_mod.ScanConfig(
        a_range=(cfg["a_min"], cfg["a_max"], cfg["a_count"]),
        b_range=(cfg["b_min"], cfg["b_max"], cfg["b_count"]),
        gamma=cfg["gamma"], criteria_only=cfg["criteria_only"],
        workers=cfg["workers"], n=cfg["n"], dt=cfg["dt"],
        t_max=cfg["t_max"], stop_slope=cfg["stop_slope"])
    result = scan_mod.scan(sconf)
    if cfg["criteria_only"]:
        csv = "region.csv"
        scan_mod.write_region_csv(result, out / csv)
    else:
        csv = "region_sim.csv"
        scan_mod.write_simulation_csv(result, out / csv)
    _write_plot(out, "region", csv, _REGION_PLOT)
    violations = scan_mod.region_ordering_violations(result)
    print(json.dumps({"points": len(result.rows),
                      "charac_satisfied": sum(r["charac"]
                                              for r in result.rows),
                      "ordering_violations": len(violations)}))
    return 0


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


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](_settings(args))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ValueError, OhlabError) as exc:
        if isinstance(exc, (NoConvergence,)):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
