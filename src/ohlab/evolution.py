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
`slope_verdict` and assembles the record.  The march yields one record
per step and fills no list: it samples each state's u on the 3/2 grid
once, squares those samples for the tendency, the next step's first RK4
stage, and yields them, so a sample adds only the transform of u_x.  An
optional rider is told of every step and may ask for a sample and steepen
the slope the verdict judges; `characteristics.co_evolve` is `simulate`
with its ensemble as the rider.

A run that breaks ends in `SlopeBlowup` at the first sample where either
its slope minimum reaches stop_slope or the finest grid has lost the
front: the run is on the config grid, the top eighth of that grid's modes
exceeds _LOST = 1e-3 of the peak mode, and the slope has passed the fit's
start threshold (see `estimate_blowup`).  The front is then thinner than a
grid cell, and the steps past it add nothing to the fit, whose window
closes at a slope of _FIT_DEPTH = -6 or, on a grid that loses the front
before that, at the stop.  The record names which of the two stops ended
the run.

`march` steps on the smallest grid that still resolves the field to
round-off.  The config's n is the finest rung of a ladder of power-of-two
grids.  A run starts on the smallest rung m >= min(256, n) whose top eighth
of modes, and everything the rung drops from the sampled datum, lie within
1e-13 of the peak mode; it doubles m by exact zero-padding as soon as the
top eighth of its modes exceeds that level.  The spectrum of an analytic
field decays exponentially, so the top of the band is where a grid that is
too coarse shows first (Sulem, Sulem & Frisch, J. Comput. Phys. 50:138,
1983).  The ladder never shrinks and never passes n, so a run with n <= 256
never leaves its grid.

Each step is sized by the flow.  Time is counted in steps of dt, so that
every label is an exact multiple of it, and a step on rung m spans the
larger of n/m of them (the config's dt on the config grid) and the most
that keep both the CFL number h*pi*m*S at or below _NU, with S = (2/m)
sum_k |c_k| >= sup|u| the Wiener bound of the step's start, and the turn
gamma*h/(2 pi) of mode 1 by the linear term, its fastest mode, at or
below _TURN: the transport and the linear waves each hold the step to
what RK4 resolves.  The march lands on t_max, on snapshot times and, for
stride > 1, on sample marks, so a stride samples the same lattice
whatever the step lengths, and flags each step that is a sample mark.
Samples are taken on the current rung; snapshots and the final field are
emitted on the config grid, and the record lists every rung with the time
the run reached it, the number of steps and the shortest and longest step
on each rung.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .fourier import (ROUNDOFF_TAIL, PeriodicField, PeriodicGrid,
                      band_tail, field_diagnostics, padded_samples,
                      resize_coefficients, resolving_grid)
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
    """The settings of one run.  n is the config grid, the finest rung of
    the grid ladder; dt the time lattice.  The floor step dt*n/m on rung m
    grows with n at fixed dt, so each doubling of n halves the samples in
    the fit window of `estimate_blowup` (229, 114 and 56 for case 1 at n =
    4096, 8192 and 16384, dt = 1e-3): a study in n scales dt with 1/n."""

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
    # why a NumericalFailure run failed: "non_finite" (the march or a
    # rider), "sup_bound" (slope_verdict's a-priori bound); else None
    failure: str | None = None
    # why a SlopeBlowup run stopped: "stop_slope" or "front_unresolved"
    # (see slope_verdict); else None
    stop: str | None = None
    snapshots: dict = field(default_factory=dict)
    final_field: PeriodicField | None = None
    grids: list = field(default_factory=list)   # (t, n) at each rung reached
    steps: int = 0                # march steps the run completed
    # (n, shortest, longest) step length on each rung stepped on
    step_lengths: list = field(default_factory=list)


@dataclass(frozen=True)
class BlowupEstimate:
    b: float                     # regression intercept, approximates T
    c: float                     # regression slope, approximates -1
    window: tuple[float, float]
    residual: float
    n_samples: int
    # how the window closed: "depth" (the next sample is past the depth
    # cap), "stop" (the record ended inside it) or "rebound" (the slope
    # climbed back above the start threshold)
    window_closed: str

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
        # rfft of the 3n/2 samples, with 1/2 d/dx, scaled back to n
        self.half_deriv_down = 0.5 * grid.deriv_multiplier * (n / (3 * n // 2))

    def nonlinear_term(self, u: np.ndarray) -> np.ndarray:
        """Coefficients of u u_x = 1/2 (u^2)_x from u on the 3n/2 grid of
        `padded_samples` (the 3/2 rule), truncated back to the n modes;
        alias-free."""
        return np.fft.rfft(u * u)[: self.n // 2 + 1] * self.half_deriv_down

    def rhs(self, coeffs: np.ndarray, gamma: float,
            u: np.ndarray) -> np.ndarray:
        """The tendency at coeffs, whose samples `padded_samples(coeffs, n)`
        are u; zero at mode 0 and the Nyquist mode, where both multipliers
        vanish, so a step keeps those modes at zero."""
        return gamma * coeffs * self.antideriv - self.nonlinear_term(u)

    def rk4_step(self, coeffs: np.ndarray, dt: float, gamma: float,
                 k1: np.ndarray | None = None) -> np.ndarray:
        """One RK4 step; k1, if given, is the tendency at coeffs."""
        def rhs(c):
            return self.rhs(c, gamma, padded_samples(c, self.n))
        if k1 is None:
            k1 = rhs(coeffs)
        k2 = rhs(coeffs + 0.5 * dt * k1)
        k3 = rhs(coeffs + 0.5 * dt * k2)
        k4 = rhs(coeffs + dt * k3)
        return coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_LOST = 1e-3    # the `band_tail` past which the finest grid has lost the
                # front and a breaking run stops
_BASE = 256     # the smallest rung of the grid ladder
_NU = 1.0       # the largest CFL number h*pi*m*S a step is lengthened to;
                # RK4's limit on the imaginary axis is 2*sqrt(2)
_TURN = 1 / 128  # the largest angle z = gamma*h/(2 pi) a lengthened step
                 # turns mode 1 by; RK4's relative phase error is then
                 # z^4/120 ~ 3e-11 per radian turned


def march(grid: PeriodicGrid, coeffs: np.ndarray, dt: float, gamma: float,
          n_steps: int, *, stops=(), stride: int = 1):
    """Yield (i, t, h, coeffs, rung, tendency, u, sample) after march step
    i = 0, 1, ...: h is the step's length (0 at i = 0), t the time it
    reached, coeffs on the grid `rung`, tendency the right-hand side there,
    which is also the next step's first RK4 stage, u the samples
    `padded_samples(coeffs, rung.n)` that the tendency's quadratic term
    squared, and sample whether the step is a sample mark.

    coeffs are on `grid`, the finest rung of the ladder; the march starts
    on the smallest rung that resolves them and climbs one rung, by exact
    zero-padding, after any step that leaves the top eighth of the modes
    unresolved.  Mode 0 and the Nyquist mode are pinned to zero.

    Time is counted in steps of dt on `grid`, and t = I*dt for the integer
    count I.  A step on rung m spans max(grid.n/m, floor(min(_NU /
    (dt*pi*m*S), 2 pi _TURN / (dt*gamma)))) of them, where S = (2/m) sum_k
    |c_k| >= sup|u| is the Wiener bound at the step's start: the step is
    sized by the flow, to a CFL number h*pi*m*S of at most _NU, and by the
    linear term, which turns mode k at gamma/(2 pi k), to turn mode 1 by at
    most _TURN; it is never shorter than dt*grid.n/m, and a zero field (S
    = 0, which stays zero) keeps that length.  The march ends at I =
    n_steps; a step that would pass n_steps, a count in `stops` or, for
    stride > 1, a sample mark is shortened to land on it.

    The sample marks are every step at stride 1; at stride > 1 the counts
    that are multiples of stride*grid.n/m on the rung m a step reached;
    and always the last step and step 0.

    Yielded arrays are never modified afterwards.  Raises NumericalFailure
    at the first step whose coefficients are not all finite.
    """
    m = resolving_grid(coeffs, min(_BASE, grid.n), grid.n)

    def climb(coeffs, m):
        out = resize_coefficients(coeffs, m)
        out[0] = 0.0
        return SpectralWorkspace(PeriodicGrid(m, grid.length)), out

    ws, coeffs = climb(coeffs, m)
    # the counts to land on, in order, up to n_steps, the last one reached
    marks = sorted({*stops, n_steps} - {0})
    # counts of dt; unbounded where gamma*dt underflows to 0
    turn = 2.0 * np.pi * _TURN / (gamma * dt) if gamma * dt else np.inf
    count, h = 0, 0.0
    for i in itertools.count():
        every = stride * (grid.n // m)   # counts between two sample marks
        u = padded_samples(coeffs, m)
        tendency = ws.rhs(coeffs, gamma, u)
        yield (i, count * dt, h, coeffs, ws.grid, tendency, u,
               stride == 1 or count % every == 0 or count == n_steps)
        if count == n_steps:
            return
        land = marks[0]
        if stride > 1:
            land = min(land, (count // every + 1) * every)
        wiener = 2.0 * np.abs(coeffs).sum() / m
        reach = (min(_NU / (dt * np.pi * m * wiener), turn) if wiener > 0
                 else 0.0)
        span = int(min(land - count, max(grid.n // m, reach)))
        h = span * dt
        coeffs = ws.rk4_step(coeffs, h, gamma, tendency)
        count += span
        if marks[0] == count:
            marks.pop(0)
        if not np.all(np.isfinite(coeffs)):
            raise NumericalFailure(f"non-finite coefficients at step {i + 1}")
        if m < grid.n and band_tail(coeffs, m) > ROUNDOFF_TAIL:
            # one doubling always suffices: the padded top eighth is zero
            m *= 2
            ws, coeffs = climb(coeffs, m)


_FIT_START = 5.0   # the fit window opens at this multiple of min u0'
_FIT_DEPTH = -6.0  # and closes past this slope, or twice the opening one


def _fit_start(first_slope: float) -> float:
    """The slope past which the fit window opens, from the first sample's."""
    return _FIT_START * min(first_slope, 0.0)


def slope_verdict(config: SimulationConfig, t: float, min_slope: float,
                  sup_abs: float, first_slope: float,
                  coeffs: np.ndarray) -> tuple[Termination, str] | None:
    """How a run ends at a sample of `coeffs` with slope minimum min_slope,
    as (termination, reason); None while it goes on.

    A run stops once min_slope reaches stop_slope ("stop_slope"), or once
    the finest grid has lost the front ("front_unresolved"): coeffs are on
    the config grid, the top eighth of their modes exceeds _LOST of the
    peak mode, and min_slope has passed `_fit_start(first_slope)`, the
    fit's start threshold from the first sample's slope, so that a datum
    the grid does not resolve at t = 0 is not stopped at its first step.
    A stop is breaking, `SlopeBlowup` with its reason, if sup|u| still
    sits within its a-priori growth bound sup|u0| + gamma*t*||u0||, and a
    numerical failure ("sup_bound") if not."""
    if min_slope <= config.stop_slope:
        reason = "stop_slope"
    elif (min_slope <= _fit_start(first_slope)
          and coeffs.size == config.n // 2 + 1
          and band_tail(coeffs, config.n) > _LOST):
        reason = "front_unresolved"
    else:
        return None
    bound = config.initial.sup_abs + config.gamma * t * config.initial.l2 \
        + 1e-6
    if sup_abs <= bound:
        return Termination.SlopeBlowup, reason
    return Termination.NumericalFailure, "sup_bound"


def simulate(config: SimulationConfig, rider=None) -> SimulationRecord:
    """Integrate until the horizon, slope blow-up, or numerical failure.

    A run breaks, `SlopeBlowup`, at the first sample after t = 0 where its
    slope minimum reaches stop_slope or the config grid has lost the front
    (see `slope_verdict`); the record's `stop` names which.

    The march sizes each step by the flow and the linear waves, never
    shorter than dt*n/m on rung m, and lands on t_max and on every
    snapshot time, which `SimulationConfig` requires to be multiples of
    dt.  Diagnostics are sampled at the steps the march flags as sample
    marks: with stride 1 after every march step; with stride k > 1 at
    every multiple of k*n/m steps of dt on the current rung m, which the
    march lands on like snapshots; and always at the last step.  Samples
    are taken on the current rung's grid, with u the samples the march's
    tendency squared, and each one after t = 0 is judged by
    `slope_verdict`, against the slope of the t = 0 sample and the sampled
    coefficients.  Snapshots and the final field are on the config grid.
    The Q and E drifts are relative to the t = 0 sample.  The record lists
    each rung with the time a step first reported it, counts the march
    steps and keeps the shortest and longest step taken on each rung.

    A rider, if given, rides the march: `rider.advance_to(i, t, h, coeffs,
    rung, tendency)` is called with those fields of every step `march`
    yields, before its snapshots, and a true return asks for a sample at
    that step; at every sample, `rider.sample(t)` returns a slope minimum,
    and the verdict judges the steeper of it and the grid's.
    NumericalFailure raised by the rider ends the run like the march's
    own.  A NumericalFailure run records its reason: "non_finite" for
    non-finite values of the march or the rider, "sup_bound" for a sup|u|
    past `slope_verdict`'s bound.
    """
    grid = PeriodicGrid(config.n)
    n_steps = int(round(config.t_max / config.dt))
    # each snapshot time's count of dt, and the time the march lands there
    marks = {t: int(round(t / config.dt)) for t in config.snapshot_times}
    snap_left = sorted((k * config.dt, t) for t, k in marks.items())
    times, samples, snapshots, grids = [], [], {}, []
    stepped = {}   # rung size -> (shortest, longest) step taken on it
    steps = march(grid, config.initial.sample(grid).coefficients, config.dt,
                  config.gamma, n_steps, stops=marks.values(),
                  stride=config.stride)

    def on_grid(coeffs):
        return PeriodicField(grid, coefficients=resize_coefficients(
            coeffs, config.n))

    terminated, failure, stop = Termination.Horizon, None, None
    try:
        for i, t, h, coeffs, rung, tendency, u, sample in steps:
            if i:   # step i was taken on the latest rung before it
                lo, hi = stepped.get(grids[-1][1], (h, h))
                stepped[grids[-1][1]] = (min(lo, h), max(hi, h))
            if not grids or grids[-1][1] != rung.n:
                grids.append((t, rung.n))
            asked = rider is not None and rider.advance_to(
                i, t, h, coeffs, rung, tendency)
            while snap_left and t >= snap_left[0][0]:
                snapshots[snap_left.pop(0)[1]] = on_grid(coeffs)
            if sample or asked:
                d = field_diagnostics(coeffs, rung, config.gamma, u)
                times.append(t)
                samples.append(d)
                slope = d.min_slope if rider is None \
                    else min(rider.sample(t), d.min_slope)
                verdict = slope_verdict(config, t, slope, d.sup_abs,
                                        samples[0].min_slope, coeffs)
                if i > 0 and verdict is not None:
                    terminated, reason = verdict
                    if terminated is Termination.NumericalFailure:
                        failure = reason
                    else:
                        stop = reason
                    break
    except NumericalFailure:
        terminated, failure = Termination.NumericalFailure, "non_finite"
    dmin, dmax, sup, mass, q, e = np.array(samples, dtype=float).T
    return SimulationRecord(
        config=config, times=np.asarray(times, dtype=float), min_ux=dmin,
        max_ux=dmax, sup_abs_u=sup, mass_drift=mass,
        q_drift=(q - q[0]) / max(abs(q[0]), 1e-16),
        e_drift=(e - e[0]) / max(abs(e[0]), 1e-16),
        terminated=terminated, failure=failure, stop=stop,
        snapshots=snapshots, final_field=on_grid(coeffs), grids=grids,
        steps=i, step_lengths=[(n, *stepped[n]) for n in sorted(stepped)])


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
    threshold = _fit_start(float(record.min_ux[0]))
    depth = min(_FIT_DEPTH, 2.0 * threshold)
    mask = record.min_ux <= threshold
    first = int(np.argmax(mask))
    end = first
    while end < len(mask) and record.min_ux[end] <= threshold \
            and record.min_ux[end] >= depth:
        end += 1
    if end == len(mask):
        closed = "stop"
    elif record.min_ux[end] > threshold:
        closed = "rebound"
    else:
        closed = "depth"
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
                          residual=residual, n_samples=len(t),
                          window_closed=closed)


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
        "failure": record.failure,
        "stop": record.stop,
        "grids": record.grids,
        "steps": record.steps,
        "step_lengths": record.step_lengths,
        "snapshots_missed": [t for t in sorted(record.config.snapshot_times)
                             if t not in record.snapshots],
        "blowup": None,
    }
    if est is not None:
        out["blowup"] = {"B": est.b, "C": est.c, "T": est.t_blowup,
                         "residual": est.residual,
                         "window": list(est.window),
                         "window_closed": est.window_closed}
    return out
