"""Pseudo-spectral time integration of u_t + u u_x = gamma * dx^-1 u on the
unit circle, with per-step diagnostics and the blow-up regression estimator.

The solver state is the rfft coefficient vector of u.  The quadratic term is
taken as 1/2 (u^2)_x, with u squared on a 3/2 zero-padded grid: alias-free
for every retained mode, so it is the same Galerkin term as u u_x up to
round-off, at two transforms instead of three.  The mode-0 and Nyquist
coefficients are pinned to zero throughout (zero mass, odd-derivative
convention).

`march` is the one stepping loop: `simulate` consumes it directly and
`characteristics.co_evolve` through its field provider.  Both sample with
`fourier.field_diagnostics`, end on `slope_verdict` and assemble their
record with `SimulationRecord.from_samples`.
"""
from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientWindow, NumericalFailure
from .fourier import (ConservedSet, PeriodicField, PeriodicGrid,
                      field_diagnostics)
from .initial import InitialData


class Termination(enum.Enum):
    Horizon = "Horizon"
    SlopeBlowup = "SlopeBlowup"
    NumericalFailure = "NumericalFailure"


@dataclass
class SimulationConfig:
    initial: InitialData
    gamma: float = 1.0
    n: int = 4096
    dt: float = 1e-3
    t_max: float = 25.0
    dealias: bool = True
    stop_slope: float = -200.0
    stride: int = 1
    snapshot_times: tuple = ()
    nonlinear: bool = True     # off = pure dispersion, for phase-error checks

    def __post_init__(self):
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        if self.stop_slope >= 0:
            raise ValueError("stop_slope must be negative")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    def summary(self) -> dict:
        d = {k: getattr(self, k) for k in
             ("gamma", "n", "dt", "t_max", "dealias", "stop_slope", "stride")}
        d["initial"] = {k: v for k, v in self.initial.params.items()
                        if not callable(v)}
        d["initial"]["kind"] = self.initial.kind
        return d


@dataclass
class SimulationRecord:
    config: SimulationConfig
    times: np.ndarray
    min_ux: np.ndarray
    max_ux: np.ndarray
    sup_abs_u: np.ndarray
    mass_drift: np.ndarray
    q_drift: np.ndarray          # relative to the initial value
    e_drift: np.ndarray          # relative to the initial value
    terminated: Termination
    initial_conserved: ConservedSet
    snapshots: dict = field(default_factory=dict)
    final_field: PeriodicField | None = None

    @classmethod
    def from_samples(cls, config: SimulationConfig, times: list,
                     samples: list, terminated: Termination,
                     **extra) -> "SimulationRecord":
        """Columns from per-sample FieldDiagnostics, the first taken at
        t = 0; the Q and E drifts are relative to it."""
        dmin, dmax, sup, mass, q, e = np.array(samples, dtype=float).T
        d0 = samples[0]
        return cls(
            config=config, times=np.asarray(times, dtype=float), min_ux=dmin,
            max_ux=dmax, sup_abs_u=sup, mass_drift=mass,
            q_drift=(q - q[0]) / max(abs(q[0]), 1e-16),
            e_drift=(e - e[0]) / max(abs(e[0]), 1e-16),
            terminated=terminated,
            initial_conserved=ConservedSet(mass=d0.mass, q=d0.q, e=d0.e,
                                           gamma=config.gamma), **extra)


@dataclass(frozen=True)
class BlowupEstimate:
    b: float                     # regression intercept, approximates T
    c: float                     # regression slope, approximates -1
    window: tuple[float, float]
    residual: float
    n_samples: int

    @property
    def t_blowup(self) -> float:
        """Zero crossing of the fitted line: the breaking-time estimate."""
        return -self.b / self.c


class SpectralWorkspace:
    """The RK4 tendency on one grid size, its multipliers built once."""

    def __init__(self, grid: PeriodicGrid, dealias: bool = True):
        self.grid = grid
        self.n = n = grid.n
        self.antideriv = grid.antideriv_multiplier
        # u is squared on an m-point grid; m = 3n/2 is alias-free (3/2 rule)
        self.pad = m = 3 * n // 2 if dealias else n
        # rfft scales onto the m-point grid and, with 1/2 d/dx, back to n
        self.up = m / n
        self.half_deriv_down = 0.5 * grid.deriv_multiplier * (n / m)

    def nonlinear_term(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of u u_x = 1/2 (u^2)_x: u squared on the m-point grid
        (irfft zero-pads), truncated back to the n modes; alias-free when
        padding is enabled."""
        u = np.fft.irfft(coeffs * self.up, n=self.pad)
        return np.fft.rfft(u * u)[: self.n // 2 + 1] * self.half_deriv_down

    def rhs(self, coeffs: np.ndarray, gamma: float,
            nonlinear: bool = True) -> np.ndarray:
        out = gamma * coeffs * self.antideriv
        if nonlinear:
            out = out - self.nonlinear_term(coeffs)
        out[0] = 0.0
        out[-1] = 0.0
        return out

    def rk4_step(self, coeffs: np.ndarray, dt: float, gamma: float,
                 nonlinear: bool = True) -> np.ndarray:
        k1 = self.rhs(coeffs, gamma, nonlinear)
        k2 = self.rhs(coeffs + 0.5 * dt * k1, gamma, nonlinear)
        k3 = self.rhs(coeffs + 0.5 * dt * k2, gamma, nonlinear)
        k4 = self.rhs(coeffs + dt * k3, gamma, nonlinear)
        out = coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[0] = 0.0   # zero-mean projection; the tendency preserves it anyway
        out[-1] = 0.0
        return out


def march(ws: SpectralWorkspace, coeffs: np.ndarray, dt: float,
          gamma: float, n_steps: int | None = None, nonlinear: bool = True):
    """Yield (i, t, coeffs) for the state after RK4 step i = 0, 1, ...,
    n_steps (without end if n_steps is None), labelled t = i*dt.

    Yielded arrays are never modified afterwards.  Raises NumericalFailure
    at the first step whose coefficients are not all finite.
    """
    yield 0, 0.0, coeffs
    for i in itertools.count(1) if n_steps is None else range(1, n_steps + 1):
        coeffs = ws.rk4_step(coeffs, dt, gamma, nonlinear)
        if not np.all(np.isfinite(coeffs)):
            raise NumericalFailure(f"non-finite coefficients at step {i}")
        yield i, i * dt, coeffs


def slope_verdict(config: SimulationConfig, t: float, min_slope: float,
                  sup_abs: float) -> Termination | None:
    """How a run ends once its slope minimum reaches stop_slope: breaking if
    sup|u| still sits within its a-priori growth bound
    sup|u0| + gamma*t*||u0||, numerical failure if not; None before then."""
    if min_slope > config.stop_slope:
        return None
    bound = config.initial.sup_abs + config.gamma * t * config.initial.l2 \
        + 1e-6
    return (Termination.SlopeBlowup if sup_abs <= bound
            else Termination.NumericalFailure)


def simulate(config: SimulationConfig) -> SimulationRecord:
    """Integrate until the horizon, slope blow-up, or numerical failure.

    Diagnostics are sampled every `stride` steps and at the last step; each
    sample after t = 0 is judged by `slope_verdict`.  Snapshots are checked
    after every step and hold the first state within dt/2 of their time.
    """
    grid = PeriodicGrid(config.n)
    u0 = config.initial.sample(grid)
    coeffs = u0.coefficients.copy()
    coeffs[-1] = 0.0
    n_steps = int(round(config.t_max / config.dt))
    steps = march(SpectralWorkspace(grid, dealias=config.dealias), coeffs,
                  config.dt, config.gamma, n_steps, config.nonlinear)
    times, samples, snapshots = [], [], {}
    snap_left = sorted(config.snapshot_times)
    terminated = Termination.Horizon
    try:
        for i, t, coeffs in steps:
            while snap_left and t >= snap_left[0] - 0.5 * config.dt:
                snapshots[snap_left.pop(0)] = PeriodicField(
                    grid, coefficients=coeffs)
            if i % config.stride == 0 or i == n_steps:
                d = field_diagnostics(coeffs, grid, config.gamma)
                times.append(t)
                samples.append(d)
                verdict = slope_verdict(config, t, d.min_slope, d.sup_abs)
                if i > 0 and verdict is not None:
                    terminated = verdict
                    break
    except NumericalFailure:
        terminated = Termination.NumericalFailure
    return SimulationRecord.from_samples(
        config, times, samples, terminated, snapshots=snapshots,
        final_field=PeriodicField(grid, coefficients=coeffs))


def estimate_blowup(record: SimulationRecord, fit_start: float = 5.0,
                    fit_depth: float = -6.0) -> BlowupEstimate:
    """Least-squares line B + C t through y(t) = -1/min_ux(t).

    The window starts once the slope has steepened past fit_start times its
    initial minimum (the regression models an asymptotic law; early samples
    bias C) and is capped at fit_depth: past that depth the steepening front
    is thinner than a few grid cells and recorded minima flatten into a
    resolution artifact that would dominate an equal-weight fit.  For steep
    initial data whose start threshold already lies below fit_depth, the cap
    scales to twice the threshold instead so the window never comes up empty.
    """
    if record.terminated is not Termination.SlopeBlowup:
        raise InsufficientWindow(
            f"run terminated with {record.terminated.value}, not SlopeBlowup")
    if fit_depth >= 0:
        raise ValueError("fit_depth must be negative")
    threshold = fit_start * min(float(record.min_ux[0]), 0.0)
    depth = min(fit_depth, 2.0 * threshold)
    mask = record.min_ux <= threshold
    if not mask.any():
        raise InsufficientWindow("slope never crossed the window threshold")
    first = int(np.argmax(mask))
    end = first
    while end < len(mask) and record.min_ux[end] <= threshold \
            and record.min_ux[end] >= depth:
        end += 1
    t = record.times[first:end]
    y = -1.0 / record.min_ux[first:end]
    if len(t) < 10:
        raise InsufficientWindow(f"only {len(t)} samples in the fit window")
    (c, b), res, *_ = np.polyfit(t, y, 1, full=True)
    residual = float(np.sqrt(res[0])) if len(res) else 0.0
    return BlowupEstimate(b=float(b), c=float(c),
                          window=(float(t[0]), float(t[-1])),
                          residual=residual, n_samples=len(t))


# ---------------------------------------------------------------------------
# emission

def write_timeseries(record: SimulationRecord, path):
    cols = np.column_stack([record.times, record.min_ux, record.max_ux,
                            record.sup_abs_u, record.mass_drift,
                            record.q_drift, record.e_drift])
    with open(path, "w") as fh:
        fh.write("t,min_ux,max_ux,sup_u,mass,q_drift,e_drift\n")
        for row in cols:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def write_snapshot(f: PeriodicField, path):
    with open(path, "w") as fh:
        fh.write("x,u\n")
        for x, u in zip(f.grid.x, f.values):
            fh.write("%.17g,%.17g\n" % (x, u))


def run_summary(record: SimulationRecord,
                est: BlowupEstimate | None) -> dict:
    out = {
        "config": record.config.summary(),
        "terminated": record.terminated.value,
        "blowup": None,
    }
    if est is not None:
        out["blowup"] = {"B": est.b, "C": est.c, "T": est.t_blowup,
                         "residual": est.residual,
                         "window": list(est.window)}
    return out


def write_summary(record: SimulationRecord, est: BlowupEstimate | None, path):
    with open(path, "w") as fh:
        json.dump(run_summary(record, est), fh, indent=2)
        fh.write("\n")
