"""Initial-data construction and the closed-form scalars of the two-mode
family u0(x) = a cos(2 pi x) + b sin(4 pi x) on the unit circle.

The closed forms (min slope, sup norm, cubic slope integral, L2 norm) are the
quantities every breaking criterion consumes; each has an exact expression on
the quarter-plane a, b >= 0 that the quadrature path must reproduce.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import PeriodicField, PeriodicGrid, field_diagnostics

_QUAD_N = 4096  # sampling size used when scalars are computed by quadrature


@dataclass(frozen=True)
class InitialData:
    """Initial datum plus the scalar functionals the criteria need.

    kind is one of 'two_mode', 'sampled', 'frequency_scaled'; params records
    the constructor arguments for reproducibility in emitted summaries.
    """

    kind: str
    params: dict = field(compare=False)
    sup_abs: float
    l2: float
    min_slope: float
    max_slope: float
    cube: float

    def sample(self, grid: PeriodicGrid) -> PeriodicField:
        """Sample the datum on a grid, projected to zero mean."""
        c = _zero_mean(self.params["fn"], grid)
        return PeriodicField(grid, coefficients=c)


def _zero_mean(fn, grid: PeriodicGrid) -> np.ndarray:
    """rfft coefficients of fn sampled on grid, with mode 0 zeroed."""
    c = PeriodicField.from_function(grid, fn).coefficients.copy()
    c[0] = 0.0
    return c


def _scalars_by_quadrature(fn, n=_QUAD_N) -> dict:
    grid = PeriodicGrid(n)
    c = _zero_mean(fn, grid)
    d = field_diagnostics(c, grid, 0.0)
    # u0' on the 4n grid that field_diagnostics samples u_x on: (u0')^3
    # reaches mode 3n/2, below that grid's 2n, so its mean is alias-free
    r = 4 * n
    du = np.fft.irfft(c * grid.deriv_multiplier * (r / n), n=r)
    return dict(
        sup_abs=d.sup_abs,
        l2=float(np.sqrt(d.q)),
        min_slope=d.min_slope,
        max_slope=d.max_slope,
        cube=float(np.mean(du * du * du)) * grid.length,
    )


def two_mode_max(a: float, b: float) -> float:
    """sup |u0| for the two-mode family, by stationary-point analysis.

    For b > 0 the maximizer satisfies sin(2 pi x) = (-a + sqrt(a^2+32b^2))/(8b);
    substituting back gives the closed form below.  The b = 0 limit is the
    single cosine with sup = a.
    """
    if b == 0.0:
        return a
    # hypot keeps a^2 + 32 b^2 from under/overflowing for extreme magnitudes
    r = np.hypot(a, np.sqrt(32.0) * b)
    s = (-a + r) / (8.0 * b)
    return 0.25 * (3.0 * a + r) * np.sqrt(1.0 - s * s)


def two_mode_max_slope(a: float, b: float) -> float:
    """sup u0' on the quarter-plane.

    u0'(x) = -2 pi a sin(2 pi x) + 4 pi b cos(4 pi x); writing s = sin(2 pi x),
    the slope is h(s) = -2 pi a s + 4 pi b (1 - 2 s^2), maximized at
    s = -a/(8b) when that lies in [-1, 1], else at s = -1.
    """
    if b == 0.0:
        return 2.0 * np.pi * a
    if a <= 8.0 * b:
        return 2.0 * np.pi * (2.0 * b + a * a / (16.0 * b))
    return 2.0 * np.pi * (a - 2.0 * b)


def _two_mode_l2(a: float, b: float) -> float:
    """sqrt((a^2 + b^2)/2), by hypot where a^2 + b^2 overflows and the norm
    does not."""
    squares = a * a + b * b
    if squares < math.inf:
        return float(np.sqrt(squares / 2.0))
    return math.hypot(a, b) / math.sqrt(2.0)


def _two_mode_cube(a: float, b: float) -> float:
    """-12 pi^3 a^2 b, the integral of u0'^3; where a * a overflows, as
    -12 pi^3 (a (a b)), which overflows only with the cube itself."""
    cube = -12.0 * np.pi ** 3 * a * a * b
    if math.isfinite(cube):
        return cube
    return -12.0 * np.pi ** 3 * (a * (a * b))


def two_mode_quantities(a: float, b: float) -> InitialData:
    """Closed-form scalars for u0 = a cos(2 pi x) + b sin(4 pi x), a, b >= 0."""
    if not (a >= 0 and b >= 0):
        raise ValueError("two-mode closed forms assume a, b >= 0")

    def fn(x, a=a, b=b):
        return a * np.cos(2 * np.pi * x) + b * np.sin(4 * np.pi * x)

    return InitialData(
        kind="two_mode",
        params={"a": a, "b": b, "fn": fn},
        sup_abs=float(two_mode_max(a, b)),
        l2=_two_mode_l2(a, b),
        min_slope=-2.0 * np.pi * (a + 2.0 * b),
        max_slope=float(two_mode_max_slope(a, b)),
        cube=_two_mode_cube(a, b),
    )


def sampled_data(fn, n=_QUAD_N) -> InitialData:
    """InitialData for an arbitrary callable; scalars by quadrature."""
    return InitialData(kind="sampled", params={"fn": fn},
                       **_scalars_by_quadrature(fn, n))


def frequency_scaled(base_fn, n_freq: int, n=_QUAD_N) -> InitialData:
    """InitialData for x -> base(n_freq * x).

    Sup norm and L2 norm are invariant under the substitution while the slope
    scalars grow linearly with n_freq, which is what makes high-frequency data
    break: the slope criterion threshold grows only like sqrt of the bound.
    """
    if n_freq < 1:
        raise ValueError("frequency multiplier must be >= 1")

    def fn(x, k=n_freq):
        return base_fn((k * x) % 1.0)

    d = _scalars_by_quadrature(fn, n)
    return InitialData(kind="frequency_scaled",
                       params={"fn": fn, "n_freq": n_freq}, **d)
