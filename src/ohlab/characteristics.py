"""Characteristic curves of the evolution: X' = U, U' = gamma*G(X),
V' = -V^2 + gamma*U, co-stepped with the spectral solution.

G = dx^-1 u is not available in closed form along a characteristic, so the
ensemble rides on top of a PDE integration and interpolates G (and u, for
consistency checks) spectrally at off-grid positions.  Positions are kept
unwrapped: the trigonometric interpolant is periodic anyway, and unwrapped
positions are what make the monotonicity-in-xi diagnostic meaningful.

The PDE behind the ensemble is `evolution.simulate`'s own march, and the
ensemble is its rider: `co_evolve` is `simulate` with a
`CoSteppingProvider`, which is told of every PDE step, forms G over it,
steps the ensemble across it, asks for a sample when min V first reaches
stop_slope, and lets the verdict judge the steeper of min V and the grid's
min u_x.  So the ensemble takes the steps of `simulate`, on the same grid
ladder and at the same lengths, sized by the flow and the linear waves,
and shares its sampling, verdict and record.  The ensemble's mid-step RK4
stages take G from the cubic Hermite interpolant of the step's two ends
(Hairer, Norsett & Wanner, Solving ODEs I, II.6), fourth-order in the step
length like the RK4 step.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import evolution
from .errors import NumericalFailure
from .evolution import BlowupEstimate, SimulationConfig, SimulationRecord
from .fourier import (PeriodicField, PeriodicGrid, parabolic_minmax,
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
    """n_xi characteristics from uniform points of the circle, carrying u0
    and u0' there.  u0 is `InitialData.sample`'s field, whose mode 0 is
    zero; the ensemble does not check it."""
    xi = np.arange(n_xi) * (u0.grid.length / n_xi)
    du = spectral_derivative(u0)
    return CharacteristicEnsemble(xi=xi, x=xi.copy(), u=u0.evaluate(xi),
                                  v=du.evaluate(xi), t=0.0)


class CoSteppingProvider:
    """`simulate`'s rider: a characteristic ensemble seeded from the
    config's datum, and u and G = dx^-1 u over one PDE step at a time, fed
    the steps of the march.

    After `advance_to(i, t, h, coeffs, rung, tendency)`, `u` is the state
    after step i, labelled t, `h` is the step's length, `g` holds G at the
    start, the midpoint and the end of step i, on the rung of its end, and
    for i > 0 the ensemble has taken one RK4 step over it (`advance`).  The
    midpoint is the cubic Hermite interpolant of the ends, (g0 + g1)/2 +
    h/8 (g0' - g1') with g' = dx^-1 u_t; a rung climb inside the step first
    zero-pads the start, which is exact.  The march pins mode 0, so G and g'
    are its coefficients and its tendency times the antiderivative
    multiplier.  At step 0 all three are G of the initial state.  Each
    sample adds a row to the trace and returns the polished min V.
    """

    def __init__(self, config: SimulationConfig, n_xi: int):
        self.gamma = config.gamma
        self.ens = seed(config.initial.sample(PeriodicGrid(config.n)), n_xi)
        self.stop_slope = config.stop_slope
        self.rows = []

    def advance_to(self, i: int, t: float, h: float, coeffs: np.ndarray,
                   rung: PeriodicGrid, tendency: np.ndarray) -> bool:
        """Take march step i, given as the first six fields `march` yields;
        true when min V has reached stop_slope."""
        self.t, self.h = t, h
        self.u = PeriodicField(rung, coefficients=coeffs)
        a = rung.antideriv_multiplier
        g1, d1 = coeffs * a, tendency * a
        g0, d0 = self._end if i else (g1, d1)
        if len(g0) < len(g1):
            g0, d0 = (resize_coefficients(c, rung.n) for c in (g0, d0))
        mid = 0.5 * (g0 + g1) + (0.125 * h) * (d0 - d1)
        self.g = [PeriodicField(rung, coefficients=c) for c in (g0, mid, g1)]
        self._end = g1, d1
        if i > 0:
            self.ens = advance(self.ens, self)
        return bool(np.min(self.ens.v) <= self.stop_slope)

    def sample(self, t: float) -> float:
        ens, u = self.ens, self.u
        vmin = parabolic_minmax(ens.v)[0]
        self.rows.append((t, ens.x, ens.u, ens.v,
                          float(np.max(np.abs(ens.u - u.evaluate(ens.x)))),
                          vmin, diffeomorphism_check(ens)))
        return vmin

    def trace(self) -> EnsembleTrace:
        times, x, u, v, consistency, min_v, diffeo = map(np.array,
                                                         zip(*self.rows))
        return EnsembleTrace(times=times, x=x, u=u, v=v,
                             consistency=consistency, min_v=min_v,
                             diffeo=diffeo)


def advance(ens: CharacteristicEnsemble,
            provider: CoSteppingProvider) -> CharacteristicEnsemble:
    """One RK4 step of y = [X, U, V] over the provider's latest PDE step,
    with that step's length h and the provider's gamma.  Raises
    NumericalFailure if the new ensemble is not finite."""
    g0, g_mid, g1 = provider.g
    h, gamma = provider.h, provider.gamma

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
    """Run the PDE and an ensemble side by side: `simulate` at stride =
    sample_stride with a `CoSteppingProvider` as its rider, plus the
    rider's trace.

    The PDE and the ensemble take the same steps, one PDE step per ensemble
    step: `simulate`'s march, each step sized by the flow and the linear
    waves and never shorter than dt*n/m on rung m.  Diagnostics are recorded at every multiple of
    sample_stride*n/m steps of dt on the current rung m (for sample_stride
    > 1 the march lands on these marks; at 1, after every step), at the
    last step, and at the step where min V first reaches stop_slope; each
    sample is judged by `slope_verdict` on the steeper of min V and the
    grid's min u_x.  The record is `simulate`'s, snapshots and final field
    included, and its config has stride = sample_stride; it equals the
    record of a plain `simulate` at that stride on the samples both take.
    sample_stride keeps its own name here and in the CLI while the
    benchmark calls it so.

    Raises ValueError for stride != 1 (sampling is set by sample_stride)
    and for n_xi < 1 or sample_stride < 1.
    """
    if config.stride != 1:
        raise ValueError("co_evolve samples by sample_stride; stride must "
                         "be 1")
    if n_xi < 1 or sample_stride < 1:
        raise ValueError("n_xi and sample_stride must be >= 1")
    rider = CoSteppingProvider(config, n_xi)
    record = evolution.simulate(replace(config, stride=sample_stride), rider)
    return record, rider.trace()


def write_ensemble_csv(trace: EnsembleTrace, path):
    n_samples, n_xi = trace.x.shape
    # t and xi repeat down the rows: each value is formatted once
    times = ["%.17g" % t for t in trace.times.tolist()]
    xi = ["%.17g" % (j / n_xi) for j in range(n_xi)]
    write_csv(path, "t,xi,X,U,V",
              [[t for t in times for _ in xi], xi * n_samples,
               trace.x.ravel(), trace.u.ravel(), trace.v.ravel()],
              fmt="%s,%s,%.17g,%.17g,%.17g")


def write_rate_products_csv(products: np.ndarray, path):
    write_csv(path, "t,p_min,p_max", products.T)
