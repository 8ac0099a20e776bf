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

The characteristics criterion is searched over the bound time T, not over
eps: each T > 0 gives tau = 2*sqrt(gamma)*T*sqrt(beta(T)) and so
eps = 2/expm1(tau) in closed form, and the margin
-u0'(x0) - (1+eps(T))*sqrt(gamma*beta(T)) is maximized over log T: one
log-T grid picks the maximum, and the root of the margin's derivative, in
closed form, between the grid's neighbours of that maximum refines it.  Only
the ends of the eps range, and find_t1, invert the defining equation, by
Newton's method on T^2*beta(T).  The same search serves the periodic circle
(beta linear in T) and the decaying line (beta quadratic in T).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fourier import PeriodicField, PeriodicGrid, field_diagnostics
from .initial import InitialData


@dataclass(frozen=True)
class CriterionReport:
    name: str
    satisfied: bool
    margin: float                 # positive iff satisfied; 0 on the boundary
    time_bound: float | None = None
    epsilon: float | None = None


# Python's float ** raises OverflowError where * saturates to inf, so a power
# whose base lies past these limits is formed from products instead
_CUBE_ROOT_MAX = sys.float_info.max ** (1.0 / 3.0)
_TWO_THIRDS_MAX = sys.float_info.max ** (2.0 / 3.0)


def hunter_criterion(d: InitialData, gamma: float = 1.0) -> CriterionReport:
    """m^3 > 4M(4+m) with m = -inf u0', M = sup|u0|; breaking before 2/m.

    Stated only for gamma = 1; no rescaling to other gamma is attempted, so
    any other gamma reports unsatisfied with margin -inf.  A margin past
    the float range saturates to +-inf.
    """
    if gamma != 1.0:
        return CriterionReport("hunter", False, -math.inf)
    m = -d.min_slope
    big_m = d.sup_abs
    if m < _CUBE_ROOT_MAX:
        margin = m ** 3 - 4.0 * big_m * (4.0 + m)
    else:   # m^3 overflows: the same margin as m^3 * (1 - 4M(4 + m)/m^3)
        margin = (1.0 - 4.0 * (big_m / m) * (1.0 + 4.0 / m) / m) * m * m * m
    sat = margin > 0.0
    return CriterionReport("hunter", sat, float(margin),
                           time_bound=(2.0 / m if sat else None))


def _check_gamma(gamma: float):
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")


def cubic_criterion_one(d: InitialData, gamma: float) -> CriterionReport:
    """int (u0')^3 < -(3*gamma*||u0||/2)^(3/2); a threshold past the float
    range saturates to inf, and the margin to -inf."""
    _check_gamma(gamma)
    base = 1.5 * gamma * d.l2
    thr = base ** 1.5 if base < _TWO_THIRDS_MAX else base * math.sqrt(base)
    margin = -d.cube - thr
    return CriterionReport("cond1", margin > 0.0, float(margin))


def cubic_criterion_two(d: InitialData, gamma: float) -> CriterionReport:
    _check_gamma(gamma)
    margin = min(-d.cube, d.l2 - 0.75 * gamma)
    return CriterionReport("cond2", margin > 0.0, float(margin))


# ---------------------------------------------------------------------------
# characteristics criterion

_EPS_RANGE = (1e-4, 1e4)
_GRID = 65          # points of the log-T grid
_ROOT_CAP = 40      # Illinois steps; 8-12 reach the bracket tolerance
_ROOT_TOL = 1e-12   # bracket width in log T at which the root is taken
_NEWTON_CAP = 50    # Newton takes <= 8 steps from the one-term start


def _bound_time(beta_coeffs, gamma: float, tau: float) -> float:
    """The T > 0 with 2*sqrt(gamma)*T*sqrt(beta(T)) = tau > 0.

    f(T) = T^2*beta(T) - s^2 with s = tau/(2*sqrt(gamma)) is increasing and
    convex for T > 0.  Newton starts at the smallest root of the one-term
    equations b_k*T^(k+2) = s^2, which lies at or above the root, so it
    falls monotonically onto it; a step that no longer falls means round-off.
    A start that underflows to 0, because a coefficient is inf or T lies
    below the float range, is returned as T = 0.
    """
    _check_gamma(gamma)
    b0, b1, b2 = beta_coeffs
    s = tau / (2.0 * math.sqrt(gamma))
    t = min(s ** (2.0 / (k + 2)) / b ** (1.0 / (k + 2))
            for k, b in enumerate(beta_coeffs) if b > 0.0)
    if t == 0.0:
        return t
    for _ in range(_NEWTON_CAP):
        # f/f' with f divided by T: neither T^2 nor s^2 is formed, so tiny
        # or huge data and epsilon neither overflow nor underflow
        t_next = t - ((t * (b0 + (b1 + b2 * t) * t) - s * (s / t))
                      / (2.0 * b0 + (3.0 * b1 + 4.0 * b2 * t) * t))
        if not t_next < t:
            break
        t = t_next
    return t


def find_t1(sup_abs: float, l2: float, gamma: float, epsilon: float) -> float:
    """Smallest positive root of 2*sqrt(gamma)*T1*sqrt(sup_abs + gamma*T1*l2)
    = log(1 + 2/epsilon)."""
    if sup_abs == 0.0 and l2 == 0.0:
        raise ValueError("zero data has no bound time")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    return _bound_time((sup_abs, gamma * l2, 0.0), gamma,
                       math.log1p(2.0 / epsilon))


def _bracketed_root(f, a: float, b: float) -> float | None:
    """Root of f between a < b by the Illinois method (regula falsi that
    halves the value kept at an end that stayed twice in a row), or None
    when f(a) > 0 > f(b) does not hold."""
    fa, fb = f(a), f(b)
    if not fa > 0.0 > fb:
        return None
    side = 0
    for _ in range(_ROOT_CAP):
        x = a + (b - a) * (fa / (fa - fb))
        fx = f(x)
        if fx > 0.0:
            a, fa = x, fx
            if side > 0:
                fb *= 0.5
            side = 1
        elif fx < 0.0:
            b, fb = x, fx
            if side < 0:
                fa *= 0.5
            side = -1
        if fx == 0.0 or b - a <= _ROOT_TOL:
            break
    return x


def _epsilon_search(name: str, min_slope: float, gamma: float,
                    beta_coeffs) -> CriterionReport:
    """Maximize margin = -min_slope - (1+eps)*sqrt(gamma*beta(T)) over the
    bound time T, with eps = 2/expm1(2*sqrt(gamma)*T*sqrt(beta(T))) and eps
    in _EPS_RANGE.  One _GRID-point log-T grid picks the maximum; inside the
    grid, the root of d margin/d log T between the maximum's two neighbours
    is the maximizer, and a grid end, or a bracket that holds no sign
    change, is reported as it is.

    Data whose bound term sqrt(gamma*beta(T)) underflows to 0, because every
    coefficient of gamma*beta does (zero or subnormal data), is degenerate:
    the bound says nothing, so the report is unsatisfied at margin -inf.  So
    is data where a coefficient of gamma*beta overflows to inf: the bound
    term is then inf, and the margin saturates to -inf.
    """
    _check_gamma(gamma)
    scaled = [gamma * b for b in beta_coeffs]
    if not any(scaled) or math.inf in scaled:
        return CriterionReport(name, False, -math.inf)
    b0, b1, b2 = beta_coeffs
    steepest, root_gamma = -float(min_slope), math.sqrt(gamma)

    def grid_margin(t):
        beta = b0 + (b1 + b2 * t) * t
        eps = 2.0 / np.expm1(2.0 * root_gamma * t * np.sqrt(beta))
        return steepest - (1.0 + eps) * np.sqrt(gamma * beta)

    def at(x):
        """eps, margin and d margin/d log T over gamma*T at T = e^x.  With
        g = sqrt(gamma*beta), z = 2*sqrt(gamma)*T*sqrt(beta) and
        d eps/dz = -eps*(1 + eps/2), the derivative is
        T*(eps*(1 + eps/2)*z'*g - (1 + eps)*gamma*beta'/(2*g)), and
        z'*g = gamma*(2*beta + T*beta')."""
        t = math.exp(x)
        beta, dbeta = b0 + (b1 + b2 * t) * t, b1 + 2.0 * b2 * t
        g = math.sqrt(gamma * beta)
        eps = 2.0 / math.expm1(2.0 * root_gamma * t * math.sqrt(beta))
        slope = (eps * (1.0 + 0.5 * eps) * (2.0 * beta + t * dbeta)
                 - (1.0 + eps) * dbeta / (2.0 * g))
        return eps, steepest - (1.0 + eps) * g, slope

    lo, hi = (math.log(_bound_time(beta_coeffs, gamma, math.log1p(2.0 / e)))
              for e in reversed(_EPS_RANGE))
    log_t = np.linspace(lo, hi, _GRID)
    j = int(np.argmax(grid_margin(np.exp(log_t))))
    x = float(log_t[j])
    if 0 < j < _GRID - 1:
        root = _bracketed_root(lambda y: at(y)[2],
                               float(log_t[j - 1]), float(log_t[j + 1]))
        if root is not None:
            x = root
    eps, margin, _ = at(x)
    t1 = math.exp(x)
    sat = margin > 0.0
    return CriterionReport(name, sat, margin,
                           time_bound=(t1 if sat else None), epsilon=eps)


def characteristics_criterion(d: InitialData, gamma: float) -> CriterionReport:
    return _epsilon_search("charac", d.min_slope, gamma,
                           (d.sup_abs, gamma * d.l2, 0.0))


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
    _check_gamma(gamma)
    vals = data.values
    n = len(vals)
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        return CriterionReport("line", False, -math.inf)
    edge = max(2, n // 64)
    tail = max(float(np.max(np.abs(vals[:edge]))),
               float(np.max(np.abs(vals[-edge:]))))
    if tail > 1e-10 * peak:
        raise ValueError(f"boundary tail {tail:.2e} vs peak {peak:.2e}")

    grid = PeriodicGrid(n, length=data.span)
    coeffs = PeriodicField(grid, values=vals).coefficients.copy()
    mass = float(np.real(coeffs[0])) / n * data.span
    if abs(mass) > 1e-10 * (data.span * peak + 1.0):
        raise ValueError(f"line data carries mass {mass:.2e}")
    coeffs[0] = 0.0
    d = field_diagnostics(coeffs, grid, gamma)

    c_bound = math.sqrt(gamma / 2.0) * math.sqrt(d.e + gamma * d.q
                                                 + d.q * d.sup_abs / 3.0)
    return _epsilon_search("line", d.min_slope, gamma,
                           (d.sup_abs, c_bound, gamma * d.q / 6.0))


def all_reports(d: InitialData, gamma: float) -> dict[str, CriterionReport]:
    """The four periodic-domain criteria."""
    return {
        "hunter": hunter_criterion(d, gamma),
        "cond1": cubic_criterion_one(d, gamma),
        "cond2": cubic_criterion_two(d, gamma),
        "charac": characteristics_criterion(d, gamma),
    }
