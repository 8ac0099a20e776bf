"""Analytic wave-breaking criteria.

Four sufficient conditions are implemented, all reducing to scalar
functionals of the initial data:

- slope-cube test, strong form: int (u0')^3 < -(3*gamma*||u0||_L2/2)^(3/2)
- slope-cube test, weak form: int (u0')^3 < 0 and ||u0||_L2 > 3*gamma/4
- the gamma = 1 criterion m^3 > 4M(4+m) with breaking before 2/m
- the characteristics criterion: some epsilon > 0 satisfies
      u0'(x0) <= -(1+eps) * sqrt(gamma) * sqrt(beta(T1(eps)))
  where T1(eps) solves 2*sqrt(gamma)*T*sqrt(beta(T)) = log(1 + 2/eps)
  and beta(T) bounds sup|u| on [0, T].

The same epsilon-search applies on the periodic circle (beta linear in T)
and on the decaying line (beta quadratic in T), so both share one core.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, NonZeroMean, NotApplicable, TailTooLarge
from .fourier import PeriodicField, PeriodicGrid, field_diagnostics
from .initial import InitialData

__all__ = [
    "CriterionReport", "hunter_criterion", "cubic_criterion_one",
    "cubic_criterion_two", "characteristics_criterion", "find_t1",
    "LineData", "line_criterion", "all_reports",
]


@dataclass(frozen=True)
class CriterionReport:
    name: str
    satisfied: bool
    margin: float                 # positive iff satisfied; 0 on the boundary
    time_bound: float | None = None
    epsilon: float | None = None

    def as_dict(self) -> dict:
        return {"name": self.name, "satisfied": self.satisfied,
                "margin": self.margin, "time_bound": self.time_bound,
                "epsilon": self.epsilon}


def hunter_criterion(d: InitialData, gamma: float = 1.0) -> CriterionReport:
    """m^3 > 4M(4+m) with m = -inf u0', M = sup|u0|; breaking before 2/m.

    Stated only for gamma = 1; no rescaling to other gamma is attempted.
    """
    if gamma != 1.0:
        raise NotApplicable("the m^3 > 4M(4+m) criterion is stated for gamma = 1")
    m = -d.min_slope
    big_m = d.sup_abs
    margin = m ** 3 - 4.0 * big_m * (4.0 + m)
    sat = margin > 0.0
    return CriterionReport("hunter", sat, float(margin),
                           time_bound=(2.0 / m if sat else None))


def cubic_criterion_one(d: InitialData, gamma: float) -> CriterionReport:
    thr = (1.5 * gamma * d.l2) ** 1.5
    margin = -d.cube - thr
    return CriterionReport("cond1", margin > 0.0, float(margin))


def cubic_criterion_two(d: InitialData, gamma: float) -> CriterionReport:
    margin = min(-d.cube, d.l2 - 0.75 * gamma)
    return CriterionReport("cond2", margin > 0.0, float(margin))


# ---------------------------------------------------------------------------
# characteristics criterion

def _invert_bound_time(beta_coeffs, gamma: float, target) -> np.ndarray:
    """Solve 2*sqrt(gamma)*T*sqrt(beta(T)) = target for T >= 0 (vectorized).

    beta(T) = b0 + b1*T + b2*T^2 with nonnegative coefficients, so the left
    side is strictly increasing from 0 and the root is unique.
    """
    b0, b1, b2 = beta_coeffs
    target = np.atleast_1d(np.asarray(target, dtype=float))

    def lhs(t):
        return 2.0 * math.sqrt(gamma) * t * np.sqrt(b0 + b1 * t + b2 * t * t)

    hi = np.ones_like(target)
    for _ in range(200):
        grow = lhs(hi) < target
        if not grow.any():
            break
        hi[grow] *= 2.0
    lo = np.zeros_like(target)
    # bisection: ~90 halvings reach relative 1e-12 from any bracket width
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = lhs(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def find_t1(sup_abs: float, l2: float, gamma: float, epsilon: float) -> float:
    """Smallest positive root of 2*sqrt(gamma)*T1*sqrt(sup_abs + gamma*T1*l2)
    = log(1 + 2/epsilon)."""
    if sup_abs == 0.0 and l2 == 0.0:
        raise DegenerateData("zero data has no bound time")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    target = math.log1p(2.0 / epsilon)
    return float(_invert_bound_time((sup_abs, gamma * l2, 0.0), gamma,
                                    target)[0])


def _epsilon_search(min_slope: float, gamma: float, beta_coeffs):
    """Maximize margin(eps) = -min_slope - (1+eps)*sqrt(gamma*beta(T1(eps)))
    over eps in [1e-4, 1e4]: log grid at 64 points per decade, then
    golden-section refinement on log(eps) around the grid maximum."""
    b0, b1, b2 = beta_coeffs

    def margin_of(eps):
        eps = np.asarray(eps, dtype=float)
        target = np.log1p(2.0 / eps)
        t1 = _invert_bound_time(beta_coeffs, gamma, target)
        beta = b0 + b1 * t1 + b2 * t1 * t1
        return (-min_slope) - (1.0 + eps) * np.sqrt(gamma * beta), t1

    grid = np.logspace(-4.0, 4.0, 8 * 64 + 1)
    margins, _ = margin_of(grid)
    j = int(np.argmax(margins))
    lo = math.log(grid[max(j - 1, 0)])
    hi = math.log(grid[min(j + 1, len(grid) - 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, dd = b - phi * (b - a), a + phi * (b - a)
    fc = margin_of(math.exp(c))[0]
    fd = margin_of(math.exp(dd))[0]
    for _ in range(60):
        if fc >= fd:
            b, dd, fd = dd, c, fc
            c = b - phi * (b - a)
            fc = margin_of(math.exp(c))[0]
        else:
            a, c, fc = c, dd, fd
            dd = a + phi * (b - a)
            fd = margin_of(math.exp(dd))[0]
    eps = math.exp(0.5 * (a + b))
    margin, t1 = margin_of(eps)
    return float(margin[0]), float(eps), float(t1[0])


def characteristics_criterion(d: InitialData, gamma: float) -> CriterionReport:
    if d.sup_abs == 0.0 and d.l2 == 0.0:
        return CriterionReport("charac", False, -math.inf)
    margin, eps, t1 = _epsilon_search(d.min_slope, gamma,
                                      (d.sup_abs, gamma * d.l2, 0.0))
    sat = margin > 0.0
    return CriterionReport("charac", sat, margin,
                           time_bound=(t1 if sat else None), epsilon=eps)


# ---------------------------------------------------------------------------
# infinite-line variant

@dataclass(frozen=True)
class LineData:
    """Decaying data sampled uniformly on a symmetric truncated interval
    [-span/2, span/2), treated spectrally (the tail must vanish at the
    truncation boundary, so periodic wraparound is harmless)."""

    values: np.ndarray
    span: float

    @classmethod
    def from_function(cls, fn, span: float = 40.0, n: int = 4096) -> "LineData":
        x = (np.arange(n) - n // 2) * (span / n)
        return cls(values=np.asarray(fn(x), dtype=float), span=span)


def line_criterion(data: LineData, gamma: float) -> CriterionReport:
    vals = data.values
    n = len(vals)
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        return CriterionReport("line", False, -math.inf)
    edge = max(2, n // 64)
    tail = max(float(np.max(np.abs(vals[:edge]))),
               float(np.max(np.abs(vals[-edge:]))))
    if tail > 1e-10 * peak:
        raise TailTooLarge(f"boundary tail {tail:.2e} vs peak {peak:.2e}")

    grid = PeriodicGrid(n, length=data.span)
    coeffs = PeriodicField(grid, values=vals).coefficients.copy()
    mass = float(np.real(coeffs[0])) / n * data.span
    if abs(mass) > 1e-10 * (data.span * peak + 1.0):
        raise NonZeroMean(f"line data carries mass {mass:.2e}")
    coeffs[0] = 0.0
    d = field_diagnostics(coeffs, grid, gamma)

    c_bound = math.sqrt(gamma / 2.0) * math.sqrt(d.e + gamma * d.q
                                                 + d.q * d.sup_abs / 3.0)
    margin, eps, t1 = _epsilon_search(d.min_slope, gamma,
                                      (d.sup_abs, c_bound, gamma * d.q / 6.0))
    sat = margin > 0.0
    return CriterionReport("line", sat, margin,
                           time_bound=(t1 if sat else None), epsilon=eps)


def all_reports(d: InitialData, gamma: float) -> dict[str, CriterionReport]:
    """The four periodic-domain criteria; the gamma = 1 criterion reports
    unsatisfied with zero margin when gamma != 1 rather than raising."""
    try:
        hunter = hunter_criterion(d, gamma)
    except NotApplicable:
        hunter = CriterionReport("hunter", False, -math.inf)
    return {
        "hunter": hunter,
        "cond1": cubic_criterion_one(d, gamma),
        "cond2": cubic_criterion_two(d, gamma),
        "charac": characteristics_criterion(d, gamma),
    }
