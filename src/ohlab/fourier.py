"""Spectral representation of real periodic fields on a uniform grid.

Everything downstream (time stepping, characteristics, traveling waves)
manipulates fields through this module: differentiation, exact zero-padding
between grids and off-grid evaluation of the trigonometric interpolant.
The mean-zero antiderivative is a product with
`PeriodicGrid.antideriv_multiplier`: mode k != 0 divided by i*2*pi*k/length,
mode 0 and the Nyquist mode zero; its callers multiply by it themselves.
`field_diagnostics` is the one place that turns a coefficient vector into
sup|u|, the slope extrema, mass and the conserved quantities Q and E; the
solver's samples, the line criterion and the quadrature scalars of initial
data all read it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on a circle of given length, right endpoint excluded."""

    n: int
    length: float = 1.0

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if self.length <= 0:
            raise ValueError("grid length must be positive")

    @functools.cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * (self.length / self.n)

    @functools.cached_property
    def ik(self) -> np.ndarray:
        """i * 2*pi*k / length for the rfft modes k = 0..n/2."""
        return 1j * (2.0 * np.pi / self.length) * np.arange(self.n // 2 + 1)

    @functools.cached_property
    def deriv_multiplier(self) -> np.ndarray:
        # Nyquist derivative zeroed: its ik is purely imaginary but the mode
        # is real-sampled, so differentiating it is not odd-symmetric.
        m = self.ik.copy()
        m[-1] = 0.0
        return m

    @functools.cached_property
    def antideriv_multiplier(self) -> np.ndarray:
        m = np.zeros_like(self.ik)
        m[1:-1] = 1.0 / self.ik[1:-1]
        return m


def resize_coefficients(coeffs: np.ndarray, m: int) -> np.ndarray:
    """The rfft coefficients of an n-point grid moved to an m-point grid,
    both powers of two: modes above min(n, m)/2 are dropped or zero-padded,
    the rest scaled by m/n, and the Nyquist mode is zero.

    Padding is exact: the interpolant, and so mass, Q and E, are unchanged.
    Truncation drops what lies above the smaller band.  The Nyquist mode is
    pinned to zero throughout this package, so dropping it loses nothing.
    """
    n = 2 * (len(coeffs) - 1)
    k = min(n, m) // 2
    out = np.zeros(m // 2 + 1, dtype=complex)
    out[:k] = coeffs[:k] * (m / n)
    return out


class PeriodicField:
    """Real samples on a PeriodicGrid plus their rfft coefficients.

    Whichever representation is handed to the constructor is authoritative;
    the other is derived lazily and cached.  Instances are treated as
    immutable: no operation mutates values or coefficients in place.
    """

    __slots__ = ("grid", "_values", "_coefficients")

    def __init__(self, grid: PeriodicGrid, values=None, coefficients=None):
        if (values is None) == (coefficients is None):
            raise ValueError("provide exactly one of values, coefficients")
        self.grid = grid
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.shape != (grid.n,):
                raise ValueError(f"expected {grid.n} samples, got {values.shape}")
        if coefficients is not None:
            coefficients = np.asarray(coefficients, dtype=complex)
            if coefficients.shape != (grid.n // 2 + 1,):
                raise ValueError("coefficient array does not match the grid")
        self._values = values
        self._coefficients = coefficients

    @classmethod
    def from_function(cls, grid: PeriodicGrid, fn) -> "PeriodicField":
        return cls(grid, values=fn(grid.x))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.fft.irfft(self._coefficients, n=self.grid.n)
        return self._values

    @property
    def coefficients(self) -> np.ndarray:
        if self._coefficients is None:
            self._coefficients = np.fft.rfft(self._values)
        return self._coefficients

    @property
    def mean(self) -> float:
        return float(np.real(self.coefficients[0]) / self.grid.n)

    def evaluate(self, points) -> np.ndarray:
        """Trigonometric interpolant at arbitrary points (vectorized).

        Modes with negligible coefficients are dropped so the cost tracks the
        effective bandwidth of the field, not the grid size.
        """
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        c = self.coefficients
        n = self.grid.n
        mags = np.abs(c)
        tol = 1e-15 * (mags.max() or 1.0)
        active = np.nonzero(mags > tol)[0]
        active = active[active < n // 2]  # Nyquist excluded; zero throughout
        if active.size == 0:
            return np.zeros_like(pts)
        theta = (2.0 * np.pi / self.grid.length) * pts
        phases = np.exp(1j * np.outer(theta, active))
        weights = c[active] / n
        weights[active > 0] *= 2.0  # rfft stores only k >= 0
        return np.real(phases @ weights)

    def __repr__(self):
        return f"PeriodicField(n={self.grid.n}, length={self.grid.length})"


def spectral_derivative(f: PeriodicField) -> PeriodicField:
    return PeriodicField(f.grid,
                         coefficients=f.coefficients * f.grid.deriv_multiplier)


class FieldDiagnostics(NamedTuple):
    """Scalars of one field sample; extrema are polished interpolant values."""

    min_slope: float
    max_slope: float
    sup_abs: float
    mass: float
    q: float
    e: float


_REFINE = 4  # upsampling factor for the sampled extrema


def field_diagnostics(coeffs: np.ndarray, grid: PeriodicGrid,
                      gamma: float) -> FieldDiagnostics:
    """sup|u|, the slope extrema, mass, Q and E from rfft coefficients.

    Extrema come from the interpolant sampled on a 4n grid, each polished by
    `parabolic_minmax`.  Q and the gamma-part of E are Parseval sums, exact
    for band-limited fields; the cubic part of E is quadrature on the 4n
    samples, alias-free because u^3 reaches only 3n/2.
    """
    n, length, r = grid.n, grid.length, _REFINE * grid.n
    u = np.fft.irfft(coeffs * (r / n), n=r)
    ux = np.fft.irfft(coeffs * grid.deriv_multiplier * (r / n), n=r)
    umin, umax = parabolic_minmax(u)
    dmin, dmax = parabolic_minmax(ux)
    mass = float(np.real(coeffs[0])) / n * length
    mags2 = np.abs(coeffs) ** 2
    q = (mags2[0] + 2.0 * mags2[1:-1].sum() + mags2[-1]) / n ** 2 * length
    g2 = np.abs(coeffs * grid.antideriv_multiplier) ** 2
    e = gamma * (2.0 * g2[1:-1].sum()) / n ** 2 * length \
        + float(np.mean(u * u * u)) * length / 3.0
    return FieldDiagnostics(dmin, dmax, max(abs(umin), abs(umax)), mass,
                            float(q), float(e))


def parabolic_minmax(values: np.ndarray) -> tuple[float, float]:
    """Min and max of periodic samples, each polished by fitting a parabola
    through the three samples around the grid extremum.

    On an upsampled grid this recovers the interpolant's extremum to high
    order even when the feature is only a few native cells wide.
    """
    out = []
    r = len(values)
    for j in (int(np.argmin(values)), int(np.argmax(values))):
        ym, y0, yp = values[(j - 1) % r], values[j], values[(j + 1) % r]
        curv = ym - 2.0 * y0 + yp
        y = y0
        if curv != 0.0:
            delta = 0.5 * (ym - yp) / curv
            if abs(delta) <= 1.0:
                y = y0 - 0.25 * (ym - yp) * delta
        out.append(float(y))
    return out[0], out[1]
