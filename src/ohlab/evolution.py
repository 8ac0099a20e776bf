"""Pseudo-spectral time integration of u_t + u u_x = gamma * dx^-1 u on the
unit circle, with per-step diagnostics and the blow-up regression estimator.

The solver state is the rfft coefficient vector of u.  The quadratic term is
taken as 1/2 (u^2)_x, with u squared on a 3/2 zero-padded grid: alias-free
for every retained mode, so it is the same Galerkin term as u u_x up to
round-off, at two transforms instead of three.  The mode-0 and Nyquist
coefficients are pinned to zero throughout (zero mass, odd-derivative
convention).

`march` is the one stepping loop and `simulate` the one loop on top of it:
it counts steps, samples with `fourier.field_diagnostics`, ends on
`slope_verdict` and assembles the record.  An optional rider is told of
every step and may ask for a sample and steepen the slope the verdict
judges; `characteristics.co_evolve` is `simulate` with its ensemble as the
rider.

`march` steps on the smallest grid that still resolves the field to
round-off.  The config's n is the finest rung of a ladder of power-of-two
grids.  A run starts on the smallest rung m >= min(256, n) whose top eighth
of modes, and everything the rung drops from the sampled datum, lie within
1e-13 of the peak mode; it doubles m by exact zero-padding as soon as the
top eighth of its modes exceeds that level.  The spectrum of an analytic
field decays exponentially, so the top of the band is where a grid that is
too coarse shows first (Sulem, Sulem & Frisch, J. Comput. Phys. 50:138,
1983).  The ladder never shrinks and never passes n, so a run with n <= 256
never leaves its grid.  dt is the step on the config grid; a rung of m
points steps at dt*n/m, which keeps the finest rung's CFL number
h*pi*m*sup|u|, and time is counted in steps of dt so that every label is an
exact multiple of it.  Samples are taken on the current rung; snapshots
and the final field are emitted on the config grid, and the record lists
every rung with the time the run reached it.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .fourier import (PeriodicField, PeriodicGrid, field_diagnostics,
                      resize_coefficients)
from .initial import InitialData
from .tables import write_csv


class Termination(enum.Enum):
    Horizon = "Horizon"
    SlopeBlowup = "SlopeBlowup"
    NumericalFailure = "NumericalFailure"


def _check_on_lattice(name: str, t: float, dt: float):
    """Raise ValueError unless t is a multiple of dt, to 1e-9 of its count."""
    k = t / dt
    if abs(k - round(k)) > 1e-9 * k:
        raise ValueError(f"{name} {t:g} is not a multiple of dt = {dt:g}")


def check_stepping(gamma: float, n: int, dt: float, t_max: float,
                   stop_slope: float):
    """Raise ValueError for settings no run can step with: gamma must be
    positive, n a power of two >= 8, dt and t_max positive and finite, t_max
    a multiple of dt, and stop_slope negative."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    PeriodicGrid(n)
    if not (0 < dt < np.inf and 0 < t_max < np.inf):
        raise ValueError("dt and t_max must be positive")
    _check_on_lattice("t_max =", t_max, dt)
    if not stop_slope < 0:
        raise ValueError("stop_slope must be negative")


@dataclass
class SimulationConfig:
    initial: InitialData
    gamma: float = 1.0
    n: int = 4096
    dt: float = 1e-3
    t_max: float = 25.0
    stop_slope: float = -200.0
    stride: int = 1
    snapshot_times: tuple = ()

    def __post_init__(self):
        check_stepping(self.gamma, self.n, self.dt, self.t_max,
                       self.stop_slope)
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.t_max:
                raise ValueError(f"snapshot time {t:g} outside [0, t_max]")
            _check_on_lattice("snapshot time", t, self.dt)

    def summary(self) -> dict:
        d = {k: getattr(self, k) for k in
             ("gamma", "n", "dt", "t_max", "stop_slope", "stride")}
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
    snapshots: dict = field(default_factory=dict)
    final_field: PeriodicField | None = None
    grids: list = field(default_factory=list)   # (t, n) at each rung reached


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

    def __init__(self, grid: PeriodicGrid):
        self.grid = grid
        self.n = n = grid.n
        self.antideriv = grid.antideriv_multiplier
        # u is squared on an m-point grid; m = 3n/2 is alias-free (3/2 rule)
        self.pad = m = 3 * n // 2
        # rfft scales onto the m-point grid and, with 1/2 d/dx, back to n
        self.up = m / n
        self.half_deriv_down = 0.5 * grid.deriv_multiplier * (n / m)

    def nonlinear_term(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients of u u_x = 1/2 (u^2)_x: u squared on the m-point grid
        (irfft zero-pads), truncated back to the n modes; alias-free."""
        u = np.fft.irfft(coeffs * self.up, n=self.pad)
        return np.fft.rfft(u * u)[: self.n // 2 + 1] * self.half_deriv_down

    def rhs(self, coeffs: np.ndarray, gamma: float) -> np.ndarray:
        """The tendency; zero at mode 0 and the Nyquist mode, where both
        multipliers vanish, so a step keeps those modes at zero."""
        return gamma * coeffs * self.antideriv - self.nonlinear_term(coeffs)

    def rk4_step(self, coeffs: np.ndarray, dt: float, gamma: float,
                 k1: np.ndarray | None = None) -> np.ndarray:
        """One RK4 step; k1, if given, is rhs(coeffs), already computed."""
        if k1 is None:
            k1 = self.rhs(coeffs, gamma)
        k2 = self.rhs(coeffs + 0.5 * dt * k1, gamma)
        k3 = self.rhs(coeffs + 0.5 * dt * k2, gamma)
        k4 = self.rhs(coeffs + dt * k3, gamma)
        return coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_TAIL = 1e-13   # largest top-of-band mode, relative to the peak mode, that
                # a rung still counts as resolved to round-off
_BASE = 256     # the smallest rung of the grid ladder


def _resolves(coeffs: np.ndarray, m: int) -> bool:
    """Whether the modes from 7m/16 up lie within _TAIL of the peak mode:
    the top eighth of an m-point grid's modes, and on a finer grid also all
    the modes that the m-point grid drops."""
    mags = np.abs(coeffs)
    return mags[7 * m // 16:].max() <= _TAIL * mags.max()


def march(grid: PeriodicGrid, coeffs: np.ndarray, dt: float, gamma: float,
          n_steps: int, *, grids: list, stops=()):
    """Yield (i, t, h, coeffs, rung, tendency) after march step i = 0, 1,
    ...: h is the step's length (0 at i = 0), t the time it reached, coeffs
    on the grid `rung`, and rhs(coeffs) there, which is also the next step's
    first RK4 stage.

    coeffs are on `grid`, the finest rung of the ladder; the march starts
    on the smallest rung that resolves them and climbs one rung, by exact
    zero-padding, after any step that leaves the top eighth of the modes
    unresolved.  Mode 0 and the Nyquist mode are pinned to zero.  Each rung
    reached is appended to the caller's list `grids` as (t, n).

    Time is counted in steps of dt on `grid`.  A step on rung m spans
    grid.n/m of them, h = dt*grid.n/m, which keeps the CFL number of the
    finest rung, and t = I*dt for the integer count I.  The march ends at
    I = n_steps; the one step that would pass n_steps or a count in `stops`
    is shortened to land on it.

    Yielded arrays are never modified afterwards.  Raises NumericalFailure
    at the first step whose coefficients are not all finite.
    """
    m = min(_BASE, grid.n)
    while m < grid.n and not _resolves(coeffs, m):
        m *= 2

    def climb(t, coeffs, m):
        grids.append((t, m))
        out = resize_coefficients(coeffs, m)
        out[0] = 0.0
        return SpectralWorkspace(PeriodicGrid(m, grid.length)), out

    ws, coeffs = climb(0.0, coeffs, m)
    tendency = ws.rhs(coeffs, gamma)
    yield 0, 0.0, 0.0, coeffs, ws.grid, tendency
    # the counts to land on, in order, up to n_steps, the last one reached
    marks = sorted({*stops, n_steps} - {0})
    count = 0
    for i in itertools.count(1):
        if count == n_steps:
            return
        span = min(grid.n // m, marks[0] - count)
        h = span * dt
        coeffs = ws.rk4_step(coeffs, h, gamma, tendency)
        count += span
        if marks[0] == count:
            marks.pop(0)
        if not np.all(np.isfinite(coeffs)):
            raise NumericalFailure(f"non-finite coefficients at step {i}")
        if m < grid.n and not _resolves(coeffs, m):
            # one doubling always suffices: the padded top eighth is zero
            m *= 2
            ws, coeffs = climb(count * dt, coeffs, m)
        tendency = ws.rhs(coeffs, gamma)
        yield i, count * dt, h, coeffs, ws.grid, tendency


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


def simulate(config: SimulationConfig, rider=None) -> SimulationRecord:
    """Integrate until the horizon, slope blow-up, or numerical failure.

    The march steps at config.dt on the config grid and at dt*n/m on a
    coarser rung m, and lands on t_max and on every snapshot time, which
    `SimulationConfig` requires to be multiples of dt.
    Diagnostics are sampled every `stride` march steps and at the last step,
    on the current rung's grid; each sample after t = 0 is judged by
    `slope_verdict`.  Snapshots and the final field are on the config grid.
    The Q and E drifts are relative to the t = 0 sample.

    A rider, if given, rides the march: `rider.advance_to(i, t, h, coeffs,
    rung, tendency)` is called with every step `march` yields, before its
    snapshots, and a true return asks for a sample at that step; at every
    sample, `rider.sample(t)` returns a slope minimum, and the verdict
    judges the steeper of it and the grid's.  NumericalFailure raised by
    the rider ends the run like the march's own.
    """
    grid = PeriodicGrid(config.n)
    n_steps = int(round(config.t_max / config.dt))
    # each snapshot time's count of dt, and the time the march lands there
    marks = {t: int(round(t / config.dt)) for t in config.snapshot_times}
    snap_left = sorted((k * config.dt, t) for t, k in marks.items())
    t_end = n_steps * config.dt
    times, samples, snapshots, grids = [], [], {}, []
    steps = march(grid, config.initial.sample(grid).coefficients, config.dt,
                  config.gamma, n_steps, grids=grids, stops=marks.values())

    def on_grid(coeffs):
        return PeriodicField(grid, coefficients=resize_coefficients(
            coeffs, config.n))

    terminated = Termination.Horizon
    try:
        for step in steps:
            i, t, _, coeffs, rung, _ = step
            asked = rider is not None and rider.advance_to(*step)
            while snap_left and t >= snap_left[0][0]:
                snapshots[snap_left.pop(0)[1]] = on_grid(coeffs)
            if i % config.stride == 0 or t == t_end or asked:
                d = field_diagnostics(coeffs, rung, config.gamma)
                times.append(t)
                samples.append(d)
                slope = d.min_slope if rider is None \
                    else min(rider.sample(t), d.min_slope)
                verdict = slope_verdict(config, t, slope, d.sup_abs)
                if i > 0 and verdict is not None:
                    terminated = verdict
                    break
    except NumericalFailure:
        terminated = Termination.NumericalFailure
    dmin, dmax, sup, mass, q, e = np.array(samples, dtype=float).T
    return SimulationRecord(
        config=config, times=np.asarray(times, dtype=float), min_ux=dmin,
        max_ux=dmax, sup_abs_u=sup, mass_drift=mass,
        q_drift=(q - q[0]) / max(abs(q[0]), 1e-16),
        e_drift=(e - e[0]) / max(abs(e[0]), 1e-16),
        terminated=terminated, snapshots=snapshots,
        final_field=on_grid(coeffs), grids=grids)


_FIT_START = 5.0   # the fit window opens at this multiple of min u0'
_FIT_DEPTH = -6.0  # and closes past this slope, or twice the opening one


def estimate_blowup(record: SimulationRecord) -> BlowupEstimate | None:
    """Least-squares line B + C t through y(t) = -1/min_ux(t), or None if
    the run did not end in SlopeBlowup or its window holds fewer than 10
    samples.

    Each sample is weighted by its trapezoid share of the window, so the
    fit approximates the L2 fit over the window's time span whatever the
    sample lattice, and `residual` is the root of the weighted sum of
    squared residuals, ~ the L2 norm of y - (B + C t) over the window.

    The window starts once the slope has steepened past _FIT_START times its
    initial minimum (the regression models an asymptotic law; early samples
    bias C) and is capped at _FIT_DEPTH: past that depth the steepening
    front is thinner than a few grid cells and recorded minima flatten into
    a resolution artifact that would dominate the fit.  For steep initial
    data whose start threshold already lies below _FIT_DEPTH, the cap
    scales to twice the threshold instead so the window never comes up empty.
    """
    if record.terminated is not Termination.SlopeBlowup:
        return None
    threshold = _FIT_START * min(float(record.min_ux[0]), 0.0)
    depth = min(_FIT_DEPTH, 2.0 * threshold)
    mask = record.min_ux <= threshold
    first = int(np.argmax(mask))
    end = first
    while end < len(mask) and record.min_ux[end] <= threshold \
            and record.min_ux[end] >= depth:
        end += 1
    t = record.times[first:end]
    y = -1.0 / record.min_ux[first:end]
    if len(t) < 10:
        return None
    # trapezoid weights: half the sum of each sample's two neighbouring gaps
    gaps = np.diff(t, prepend=t[0], append=t[-1])
    weights = 0.5 * (gaps[:-1] + gaps[1:])
    (c, b), res, *_ = np.polyfit(t, y, 1, w=np.sqrt(weights), full=True)
    residual = float(np.sqrt(res[0])) if len(res) else 0.0
    return BlowupEstimate(b=float(b), c=float(c),
                          window=(float(t[0]), float(t[-1])),
                          residual=residual, n_samples=len(t))


# ---------------------------------------------------------------------------
# emission

def write_timeseries(record: SimulationRecord, path):
    write_csv(path, "t,min_ux,max_ux,sup_u,mass,q_drift,e_drift",
              [record.times, record.min_ux, record.max_ux, record.sup_abs_u,
               record.mass_drift, record.q_drift, record.e_drift])


def write_snapshot(f: PeriodicField, path):
    write_csv(path, "x,u", [f.grid.x, f.values])


def run_summary(record: SimulationRecord,
                est: BlowupEstimate | None) -> dict:
    out = {
        "config": record.config.summary(),
        "terminated": record.terminated.value,
        "grids": record.grids,
        "snapshots_missed": [t for t in sorted(record.config.snapshot_times)
                             if t not in record.snapshots],
        "blowup": None,
    }
    if est is not None:
        out["blowup"] = {"B": est.b, "C": est.c, "T": est.t_blowup,
                         "residual": est.residual,
                         "window": list(est.window)}
    return out
