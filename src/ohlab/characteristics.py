"""Characteristic curves of the evolution: X' = U, U' = gamma*G(X),
V' = -V^2 + gamma*U, co-stepped with the spectral solution.

G = dx^-1 u is not available in closed form along a characteristic, so the
ensemble rides on top of a PDE integration and interpolates G (and u, for
consistency checks) spectrally at off-grid positions.  Positions are kept
unwrapped: the trigonometric interpolant is periodic anyway, and unwrapped
positions are what make the monotonicity-in-xi diagnostic meaningful.

The PDE behind the ensemble is `evolution.march`, pulled half-step by
half-step by `CoSteppingProvider`, so it climbs the same grid ladder as
`simulate`: each stored field, and each grid sample, is on the rung its
state was stepped on, and the record lists the rungs.  Off-grid evaluation
does not care which rung a field is on.  `co_evolve` checks min V against
stop_slope after every ensemble step and ends the run with the same
`slope_verdict` as `simulate`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonZeroMean, NumericalFailure, ProviderGap
from .evolution import (BlowupEstimate, SimulationConfig, SimulationRecord,
                        Termination, march, slope_verdict)
from .fourier import (PeriodicField, PeriodicGrid, antiderivative_zero_mean,
                      field_diagnostics, mass_tolerance, parabolic_minmax,
                      spectral_derivative)
from .tables import write_csv


@dataclass(frozen=True)
class CharacteristicEnsemble:
    xi: np.ndarray    # seed positions, uniform on the circle
    x: np.ndarray     # current positions (unwrapped)
    u: np.ndarray     # U(t, xi) carried by the characteristic ODE
    v: np.ndarray     # V(t, xi) = u_x along the characteristic
    t: float


def seed(u0: PeriodicField, n_xi: int) -> CharacteristicEnsemble:
    if abs(u0.mean * u0.grid.length) > mass_tolerance(u0):
        raise NonZeroMean("characteristics require zero-mass initial data")
    xi = np.arange(n_xi) * (u0.grid.length / n_xi)
    du = spectral_derivative(u0)
    return CharacteristicEnsemble(xi=xi, x=xi.copy(), u=u0.evaluate(xi),
                                  v=du.evaluate(xi), t=0.0)


class CoSteppingProvider:
    """Supplies u(t,.) and G(t,.) on the half-step lattice of the PDE run.

    The PDE is advanced with a sub-step of half the ensemble step so that all
    RK4 stage times of the ensemble land exactly on the lattice.  Fields are
    cached, each on its own rung's grid, for the current lattice
    neighborhood only; `grids` is the march's rung history.
    """

    def __init__(self, u0: PeriodicField, gamma: float, dt_sub: float):
        self.dt_sub = dt_sub
        self.grids = []
        self._steps = march(u0.grid, u0.coefficients, dt_sub, gamma,
                            grids=self.grids)
        self._cache: dict[int, tuple[PeriodicField, PeriodicField]] = {}
        self._pull()

    def _pull(self):
        self._index, _, coeffs, rung = next(self._steps)
        u = PeriodicField(rung, coefficients=coeffs)
        self._cache[self._index] = (u, antiderivative_zero_mean(u))
        # two lattice points of history cover all stage times of one step
        for stale in [k for k in self._cache if k < self._index - 2]:
            del self._cache[stale]

    def advance_to(self, idx: int):
        """Pull half-steps from the march up to lattice index idx; raises
        NumericalFailure if the PDE coefficients stop being finite."""
        while self._index < idx:
            self._pull()

    def fields_at(self, t: float) -> tuple[PeriodicField, PeriodicField]:
        idx = t / self.dt_sub
        nearest = int(round(idx))
        if abs(idx - nearest) > 1e-9 * max(1.0, abs(idx)):
            raise ProviderGap(f"time {t} is off the sub-step lattice")
        if nearest > self._index:
            self.advance_to(nearest)
        if nearest not in self._cache:
            raise ProviderGap(f"time {t} is behind the provider window")
        return self._cache[nearest]


def advance(ens: CharacteristicEnsemble, provider, dt: float,
            gamma: float) -> CharacteristicEnsemble:
    """One RK4 step of the characteristic system against a field provider."""

    def slope(t, x, u, v):
        _, g = provider.fields_at(t)
        return u, gamma * g.evaluate(x), -v * v + gamma * u

    t, h = ens.t, dt
    k1 = slope(t, ens.x, ens.u, ens.v)
    k2 = slope(t + 0.5 * h, ens.x + 0.5 * h * k1[0], ens.u + 0.5 * h * k1[1],
               ens.v + 0.5 * h * k1[2])
    k3 = slope(t + 0.5 * h, ens.x + 0.5 * h * k2[0], ens.u + 0.5 * h * k2[1],
               ens.v + 0.5 * h * k2[2])
    k4 = slope(t + h, ens.x + h * k3[0], ens.u + h * k3[1],
               ens.v + h * k3[2])
    x = ens.x + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    u = ens.u + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    v = ens.v + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return CharacteristicEnsemble(xi=ens.xi, x=x, u=u, v=v, t=t + h)


def diffeomorphism_check(ens: CharacteristicEnsemble) -> bool:
    """x strictly increasing in xi, spanning at most one period."""
    length = ens.xi[1] - ens.xi[0] if len(ens.xi) > 1 else 1.0
    period = length * len(ens.xi)
    return bool(np.all(np.diff(ens.x) > 0.0)
                and (ens.x[-1] - ens.x[0]) < period)


def rate_products(record: SimulationRecord,
                  est: BlowupEstimate) -> np.ndarray:
    """(t, p_min, p_max) over the fit window, products against the fitted
    breaking time (the regression line's zero crossing)."""
    t_star = est.t_blowup
    lo, hi = est.window
    mask = (record.times >= lo) & (record.times <= hi)
    t = record.times[mask]
    p_min = (t_star - t) * record.min_ux[mask]
    p_max = (t_star - t) * record.max_ux[mask]
    return np.column_stack([t, p_min, p_max])


@dataclass
class EnsembleTrace:
    """Per-sample diagnostics of a co-evolved ensemble."""

    times: np.ndarray
    x: np.ndarray             # (n_samples, n_xi), unwrapped
    u: np.ndarray
    v: np.ndarray
    consistency: np.ndarray   # sup_xi |U - u(t, X)|
    min_v: np.ndarray         # parabolically polished min over xi of V
    g_sup: np.ndarray         # sup_xi |G(t, X)|
    diffeo: np.ndarray        # boolean per sample


def co_evolve(config: SimulationConfig, n_xi: int = 256,
              sample_stride: int = 10) -> tuple[SimulationRecord, EnsembleTrace]:
    """Run the PDE and an ensemble side by side.

    The PDE marches at config.dt/2 (so ensemble RK4 stages are on the
    lattice); the ensemble marches at config.dt, step i labelled t = i*dt.
    Diagnostics are recorded every sample_stride ensemble steps, at the last
    step, and at the step where min V first reaches stop_slope.  Each sample
    is judged by `slope_verdict` on the steeper of min V and the grid's
    min u_x.  The returned SimulationRecord is recorded on the same sample
    times.

    Raises ValueError for config fields it cannot honour: nonlinear=False
    (V' = -V^2 + gamma*U holds only for the nonlinear equation), stride != 1
    (sampling is set by sample_stride) and snapshot_times, and for
    n_xi < 1 or sample_stride < 1.
    """
    if not config.nonlinear:
        raise ValueError("co_evolve needs the nonlinear equation")
    if config.stride != 1:
        raise ValueError("co_evolve samples by sample_stride; stride must "
                         "be 1")
    if config.snapshot_times:
        raise ValueError("co_evolve takes no snapshots")
    if n_xi < 1 or sample_stride < 1:
        raise ValueError("n_xi and sample_stride must be >= 1")
    u0 = config.initial.sample(PeriodicGrid(config.n))
    provider = CoSteppingProvider(u0, config.gamma, 0.5 * config.dt)
    ens = seed(u0, n_xi)
    rows, samples = [], []

    def sample(ens, t):
        u_field, g_field = provider.fields_at(t)
        u_at_x = u_field.evaluate(ens.x)
        g_at_x = g_field.evaluate(ens.x)
        vmin = parabolic_minmax(ens.v)[0]
        rows.append((t, ens.x, ens.u, ens.v,
                     float(np.max(np.abs(ens.u - u_at_x))), vmin,
                     float(np.max(np.abs(g_at_x))),
                     diffeomorphism_check(ens)))
        d = field_diagnostics(u_field.coefficients, u_field.grid,
                              config.gamma)
        samples.append(d)
        return min(vmin, d.min_slope), d.sup_abs

    sample(ens, 0.0)
    n_steps = int(round(config.t_max / config.dt))
    terminated = Termination.Horizon
    for i in range(1, n_steps + 1):
        try:
            ens = advance(ens, provider, config.dt, config.gamma)
        except NumericalFailure:
            terminated = Termination.NumericalFailure
            break
        if not (np.all(np.isfinite(ens.x)) and np.all(np.isfinite(ens.u))
                and np.all(np.isfinite(ens.v))):
            terminated = Termination.NumericalFailure
            break
        if (i % sample_stride == 0 or i == n_steps
                or np.min(ens.v) <= config.stop_slope):
            t = i * config.dt
            verdict = slope_verdict(config, t, *sample(ens, t))
            if verdict is not None:
                terminated = verdict
                break

    times, x, u, v, consistency, min_v, g_sup, diffeo = map(np.array,
                                                            zip(*rows))
    record = SimulationRecord.from_samples(config, times, samples,
                                           terminated, grids=provider.grids)
    return record, EnsembleTrace(times=times, x=x, u=u, v=v,
                                 consistency=consistency, min_v=min_v,
                                 g_sup=g_sup, diffeo=diffeo)


def write_ensemble_csv(trace: EnsembleTrace, path):
    n_samples, n_xi = trace.x.shape
    write_csv(path, "t,xi,X,U,V",
              [np.repeat(trace.times, n_xi),
               np.tile(np.arange(n_xi) / n_xi, n_samples), trace.x.ravel(),
               trace.u.ravel(), trace.v.ravel()])


def write_rate_products_csv(products: np.ndarray, path):
    write_csv(path, "t,p_min,p_max", products.T)
