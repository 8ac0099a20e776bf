"""Spans recorded from outside ohlab, around calls into its public functions.

The tracer replaces a module or class attribute with a wrapper that records
(name, start, end, parent, items) while tracing is enabled.  It patches the
attribute each caller resolves at call time: `ohlab.scan` looks up
`two_mode_quantities` in its own namespace and `criteria.all_reports` in the
criteria module, `simulate` calls `SpectralWorkspace.rk4_step` through the
class.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _points(args, kwargs):
    pts = kwargs.get("points", args[1] if len(args) > 1 else ())
    return int(getattr(pts, "size", 1))


def _ratios(args, kwargs):
    return len(kwargs.get("speed_ratios", args[1] if len(args) > 1 else ()))


# (module, class or None, attribute, span name, item counter)
TARGETS = [
    ("ohlab.evolution", None, "simulate", "evolution.simulate", None),
    ("ohlab.evolution", "SpectralWorkspace", "rk4_step",
     "evolution.rk4_step", None),
    ("ohlab.evolution", None, "estimate_blowup", "evolution.estimate_blowup",
     None),
    ("ohlab.evolution", None, "write_timeseries",
     "evolution.write_timeseries", None),
    ("ohlab.characteristics", None, "co_evolve", "characteristics.co_evolve",
     None),
    ("ohlab.characteristics", None, "advance", "characteristics.advance",
     None),
    ("ohlab.characteristics", "CoSteppingProvider", "advance_to",
     "characteristics.provider.advance_to", None),
    ("ohlab.characteristics", None, "write_ensemble_csv",
     "characteristics.write_ensemble_csv", None),
    ("ohlab.fourier", "PeriodicField", "evaluate", "fourier.evaluate",
     _points),
    ("ohlab.scan", None, "scan", "scan.scan", None),
    ("ohlab.scan", None, "two_mode_quantities", "initial.two_mode_quantities",
     None),
    ("ohlab.scan", None, "write_region_csv", "scan.write_region_csv", None),
    ("ohlab.criteria", None, "all_reports", "criteria.all_reports", None),
    ("ohlab.criteria", None, "characteristics_criterion",
     "criteria.characteristics_criterion", None),
    ("ohlab.waves", None, "continuation_branch", "waves.continuation_branch",
     _ratios),
    ("ohlab.waves", None, "solve_periodic_wave", "waves.solve_periodic_wave",
     None),
    ("ohlab.waves", None, "ode_residual", "waves.ode_residual", None),
]


class Tracer:
    """Records one span per wrapped call while `enabled` is set."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, items]
        self.enabled = False
        self._open = []
        self._patches = []

    def install(self):
        """Wrap every target in the currently imported ohlab modules."""
        for mod_name, cls_name, attr, name, items in TARGETS:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, items))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, original, name, items):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else -1,
                    items(args, kwargs) if items else 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
        return traced

    def totals(self):
        """Per span name: calls, items, total seconds and self seconds (total
        minus the time its direct child spans cover)."""
        out = defaultdict(lambda: {"calls": 0, "items": 0, "s": 0.0,
                                   "child_s": 0.0})
        for name, start, end, parent, items in self.spans:
            row = out[name]
            row["calls"] += 1
            row["items"] += items
            row["s"] += end - start
            if parent >= 0:
                out[self.spans[parent][0]]["child_s"] += end - start
        for row in out.values():
            row["self_s"] = row["s"] - row.pop("child_s")
        return dict(out)

    def write(self, path, origin):
        """Write the spans as JSON lines, times in seconds from `origin`."""
        with open(path, "w") as fh:
            for name, start, end, parent, items in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "items": items}) + "\n")
