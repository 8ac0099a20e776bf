"""Characteristic curves of the evolution: X' = U, U' = gamma*G(X),
V' = -V^2 + gamma*U, co-stepped with the spectral solution.

G = dx^-1 u is not available in closed form along a characteristic, so the
ensemble rides on top of a PDE integration and interpolates G (and u, for
consistency checks) spectrally at off-grid positions.  Positions are kept
unwrapped: the trigonometric interpolant is periodic anyway, and unwrapped
positions are what make the monotonicity-in-xi diagnostic meaningful.

The PDE behind the ensemble is `evolution.march` at the ensemble's own step
dt, pulled one step per ensemble step by `CoSteppingProvider`, so it takes
the steps of `simulate` and climbs the same grid ladder.  The ensemble's
mid-step RK4 stages take G from the cubic Hermite interpolant of the step's
two ends (Hairer, Norsett & Wanner, Solving ODEs I, II.6), fourth-order in
dt like the RK4 step.  `co_evolve` checks min V against stop_slope after
every ensemble step and ends the run with the same `slope_verdict` as
`simulate`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .evolution import (BlowupEstimate, SimulationConfig, SimulationRecord,
                        Termination, march, slope_verdict)
from .fourier import (PeriodicField, PeriodicGrid, _require_zero_mean,
                      field_diagnostics, parabolic_minmax,
                      resize_coefficients, spectral_derivative)
from .tables import write_csv


@dataclass(frozen=True)
class CharacteristicEnsemble:
    xi: np.ndarray    # seed positions, uniform on the circle
    x: np.ndarray     # current positions (unwrapped)
    u: np.ndarray     # U(t, xi) carried by the characteristic ODE
    v: np.ndarray     # V(t, xi) = u_x along the characteristic
    t: float


def seed(u0: PeriodicField, n_xi: int) -> CharacteristicEnsemble:
    _require_zero_mean(u0)
    xi = np.arange(n_xi) * (u0.grid.length / n_xi)
    du = spectral_derivative(u0)
    return CharacteristicEnsemble(xi=xi, x=xi.copy(), u=u0.evaluate(xi),
                                  v=du.evaluate(xi), t=0.0)


class CoSteppingProvider:
    """Supplies u and G = dx^-1 u over one PDE step at a time.

    The PDE marches at the ensemble's step dt.  After `advance_to(i)`, `u`
    is the state after step i, labelled t = i*dt, and `g` holds G at the
    start, the midpoint and the end of step i, on the rung of its end;
    `grids` is the march's rung history.  The midpoint is the cubic Hermite
    interpolant of the ends, (g0 + g1)/2 + dt/8 (g0' - g1') with
    g' = dx^-1 u_t; a rung climb inside the step first zero-pads the start,
    which is exact.  The march pins mode 0, so G and g' are its coefficients
    and its tendency times the antiderivative multiplier.
    """

    def __init__(self, u0: PeriodicField, gamma: float, dt: float):
        self.gamma, self.dt, self.grids = gamma, dt, []
        self._steps = march(u0.grid, u0.coefficients, dt, gamma,
                            grids=self.grids)
        self._end = self._pull()
        self.g = [PeriodicField(self.u.grid, coefficients=self._end[0])] * 3

    def _pull(self) -> tuple[np.ndarray, np.ndarray]:
        self.i, self.t, c, rung, tendency = next(self._steps)
        self.u = PeriodicField(rung, coefficients=c)
        a = rung.antideriv_multiplier
        return c * a, tendency * a

    def advance_to(self, i: int):
        """Pull march steps up to step i; raises NumericalFailure if the PDE
        coefficients stop being finite."""
        while self.i < i:
            g0, d0 = self._end
            self._end = g1, d1 = self._pull()
            if len(g0) < len(g1):
                g0, d0 = (resize_coefficients(c, self.u.grid.n)
                          for c in (g0, d0))
            mid = 0.5 * (g0 + g1) + (0.125 * self.dt) * (d0 - d1)
            self.g = [PeriodicField(self.u.grid, coefficients=c)
                      for c in (g0, mid, g1)]


def advance(ens: CharacteristicEnsemble,
            provider: CoSteppingProvider) -> CharacteristicEnsemble:
    """One RK4 step of y = [X, U, V] over the provider's next PDE step, with
    the provider's dt and gamma.  Raises NumericalFailure if the PDE or the
    new ensemble is not finite."""
    provider.advance_to(provider.i + 1)
    g0, g_mid, g1 = provider.g
    h, gamma = provider.dt, provider.gamma

    def slope(g, y):
        x, u, v = y
        return np.array((u, gamma * g.evaluate(x), -v * v + gamma * u))

    y = np.array((ens.x, ens.u, ens.v))
    k1 = slope(g0, y)
    k2 = slope(g_mid, y + 0.5 * h * k1)
    k3 = slope(g_mid, y + 0.5 * h * k2)
    k4 = slope(g1, y + h * k3)
    y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(y)):
        raise NumericalFailure(f"non-finite ensemble at t = {provider.t:g}")
    return CharacteristicEnsemble(ens.xi, *y, t=provider.t)


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
    diffeo: np.ndarray        # boolean per sample


def co_evolve(config: SimulationConfig, n_xi: int = 256,
              sample_stride: int = 10) -> tuple[SimulationRecord, EnsembleTrace]:
    """Run the PDE and an ensemble side by side.

    The PDE and the ensemble both march at config.dt, one PDE step per
    ensemble step, step i labelled t = i*dt.  Diagnostics are recorded
    every sample_stride ensemble steps, at the last step, and at the step
    where min V first reaches stop_slope.  Each sample is judged by
    `slope_verdict` on the steeper of min V and the grid's min u_x.  The
    returned SimulationRecord is recorded on the same sample times; the PDE
    takes the steps of `simulate`, so it equals simulate's record with
    stride = sample_stride on the samples both take.

    Raises ValueError for config fields it cannot honour: stride != 1
    (sampling is set by sample_stride) and snapshot_times, and for
    n_xi < 1 or sample_stride < 1.
    """
    if config.stride != 1:
        raise ValueError("co_evolve samples by sample_stride; stride must "
                         "be 1")
    if config.snapshot_times:
        raise ValueError("co_evolve takes no snapshots")
    if n_xi < 1 or sample_stride < 1:
        raise ValueError("n_xi and sample_stride must be >= 1")
    u0 = config.initial.sample(PeriodicGrid(config.n))
    provider = CoSteppingProvider(u0, config.gamma, config.dt)
    ens = seed(u0, n_xi)
    rows, samples = [], []

    def sample(ens, t):
        u = provider.u
        vmin = parabolic_minmax(ens.v)[0]
        rows.append((t, ens.x, ens.u, ens.v,
                     float(np.max(np.abs(ens.u - u.evaluate(ens.x)))), vmin,
                     diffeomorphism_check(ens)))
        d = field_diagnostics(u.coefficients, u.grid, config.gamma)
        samples.append(d)
        return min(vmin, d.min_slope), d.sup_abs

    sample(ens, 0.0)
    n_steps = int(round(config.t_max / config.dt))
    terminated = Termination.Horizon
    try:
        for i in range(1, n_steps + 1):
            ens = advance(ens, provider)
            if (i % sample_stride == 0 or i == n_steps
                    or np.min(ens.v) <= config.stop_slope):
                t = i * config.dt
                verdict = slope_verdict(config, t, *sample(ens, t))
                if verdict is not None:
                    terminated = verdict
                    break
    except NumericalFailure:
        terminated = Termination.NumericalFailure

    times, x, u, v, consistency, min_v, diffeo = map(np.array, zip(*rows))
    record = SimulationRecord.from_samples(config, times, samples,
                                           terminated, grids=provider.grids)
    return record, EnsembleTrace(times=times, x=x, u=u, v=v,
                                 consistency=consistency, min_v=min_v,
                                 diffeo=diffeo)


def write_ensemble_csv(trace: EnsembleTrace, path):
    n_samples, n_xi = trace.x.shape
    write_csv(path, "t,xi,X,U,V",
              [np.repeat(trace.times, n_xi),
               np.tile(np.arange(n_xi) / n_xi, n_samples), trace.x.ravel(),
               trace.u.ravel(), trace.v.ravel()])


def write_rate_products_csv(products: np.ndarray, path):
    write_csv(path, "t,p_min,p_max", products.T)
