"""Spectral representation of real periodic fields on a uniform grid.

Everything downstream (time stepping, characteristics, traveling waves)
manipulates fields through this module: differentiation, exact zero-padding
between grids and off-grid evaluation of the trigonometric interpolant.
`PeriodicField.evaluate` sums the interpolant over the powers of one
complex exponential per point, O(N*top) for N points and top the highest
kept mode.
The mean-zero antiderivative is a product with
`PeriodicGrid.antideriv_multiplier`: mode k != 0 divided by i*2*pi*k/length,
mode 0 and the Nyquist mode zero; its callers multiply by it themselves.
`field_diagnostics` is the one place that turns a coefficient vector into
sup|u|, the slope extrema, mass and the conserved quantities Q and E; the
solver's samples, the line criterion and the quadrature scalars of initial
data all read it.  It reads u from `padded_samples`, the 3n/2-point samples
that the solver's march takes once per state, squares for the tendency and
hands to a sample, and samples u_x on a 4n grid.  `band_tail` is the one
measure of how well a grid resolves a spectrum: the grid ladders of the
march and of the Newton wave solve (which both start on `resolving_grid`),
the march's lost-front stop and the `"tail"` of a wave's summary all read
it.
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


ROUNDOFF_TAIL = 1e-13   # the largest `band_tail` at which an m-point grid
                        # still counts as resolving a field to round-off


def band_tail(coeffs: np.ndarray, m: int) -> float:
    """The largest modulus among the modes from 7m/16 up over the peak
    modulus: the top eighth of an m-point grid's modes, and on a finer grid
    also all the modes that the m-point grid drops.  coeffs are indexed by
    wavenumber.  The spectrum of an analytic field decays exponentially, so
    the top of the band is where a grid that is too coarse shows first
    (Sulem, Sulem & Frisch, J. Comput. Phys. 50:138, 1983).  A zero field
    has tail 0."""
    mags = np.abs(coeffs)
    peak = mags.max()
    return float(mags[7 * m // 16:].max() / peak) if peak > 0 else 0.0


def resolving_grid(coeffs: np.ndarray, m: int, n: int) -> int:
    """The first of m, 2m, 4m, ... that is n or more or whose `band_tail`
    of coeffs is at round-off: the start rung of a grid ladder below n."""
    while m < n and band_tail(coeffs, m) > ROUNDOFF_TAIL:
        m *= 2
    return m


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

    def evaluate(self, points) -> np.ndarray:
        """Trigonometric interpolant at arbitrary points, flattened to 1-D.

        Modes with negligible coefficients get weight zero and modes above
        the highest kept one, top, are not summed, so the cost tracks the
        effective bandwidth of the field, not the grid size.  The sum runs
        over the powers z^k, k = 0..top, of z = exp(2*pi*i*x/length): one
        exp per point and a cumulative product, O(N*top) multiplications
        for N points.  z^k carries a relative error of order k*eps, the
        order of the rounding of the phase k*theta in a direct sum.
        """
        pts = np.asarray(points, dtype=float).ravel()
        c = self.coefficients
        active = _kept_modes(c)
        if active.size == 0:
            return np.zeros_like(pts)
        top = active[-1]
        weights = np.zeros(top + 1, dtype=complex)
        weights[active] = c[active] / self.grid.n
        weights[1:] *= 2.0  # rfft stores only k >= 0
        powers = np.empty((top + 1, pts.size), dtype=complex)
        powers[0] = 1.0
        powers[1:] = np.exp((2j * np.pi / self.grid.length) * pts)
        np.cumprod(powers[1:], axis=0, out=powers[1:])
        return (weights @ powers).real

    def __repr__(self):
        return f"PeriodicField(n={self.grid.n}, length={self.grid.length})"


def _kept_modes(c: np.ndarray) -> np.ndarray:
    """The modes whose coefficients lie above 1e-15 of the peak; the rest,
    and the Nyquist mode (zero throughout), are negligible."""
    mags = np.abs(c)
    active = np.nonzero(mags > 1e-15 * (mags.max() or 1.0))[0]
    return active[active < len(c) - 1]


def spectral_derivative(f: PeriodicField) -> PeriodicField:
    """The derivative of f over its non-negligible modes: differentiating
    the others would multiply their round-off by k and lift hundreds of
    them past `evaluate`'s drop level."""
    c = f.coefficients
    out = np.zeros_like(c)
    kept = _kept_modes(c)
    out[kept] = c[kept] * f.grid.deriv_multiplier[kept]
    return PeriodicField(f.grid, coefficients=out)


class FieldDiagnostics(NamedTuple):
    """Scalars of one field sample; extrema are polished interpolant values."""

    min_slope: float
    max_slope: float
    sup_abs: float
    mass: float
    q: float
    e: float


_REFINE = 4  # upsampling factor for the samples of the slope extrema


def padded_samples(coeffs: np.ndarray, n: int) -> np.ndarray:
    """u on the 3n/2-point grid, zero-padded from the rfft coefficients of
    an n-point grid: the samples the solver squares for its quadratic term
    (the 3/2 rule) and `field_diagnostics` reads sup|u| and E from."""
    p = 3 * n // 2
    return np.fft.irfft(coeffs * (p / n), n=p)


def field_diagnostics(coeffs: np.ndarray, grid: PeriodicGrid, gamma: float,
                      u: np.ndarray | None = None) -> FieldDiagnostics:
    """sup|u|, the slope extrema, mass, Q and E from rfft coefficients.

    u, if given, is `padded_samples(coeffs, grid.n)`, already computed (the
    solver hands in those of its tendency); otherwise it is computed here,
    so the result does not depend on who took the samples.  sup|u| is the
    larger magnitude of its extrema, each polished by `quartic_minmax`.
    The slope extrema come from u_x sampled on a 4n grid, each polished by
    `parabolic_minmax`.  Q and the gamma-part of E are Parseval sums, exact
    for band-limited fields; the cubic part of E is quadrature on the 3n/2
    samples, alias-free because u^3 reaches only mode 3n/2 - 3 when the
    Nyquist mode is zero, as the solver pins it (otherwise the error is of
    the order of that mode cubed).
    """
    n, length, r = grid.n, grid.length, _REFINE * grid.n
    if u is None:
        u = padded_samples(coeffs, n)
    ux = np.fft.irfft(coeffs * grid.deriv_multiplier * (r / n), n=r)
    umin, umax = quartic_minmax(u)
    dmin, dmax = parabolic_minmax(ux)
    mass = float(np.real(coeffs[0])) / n * length
    mags2 = np.abs(coeffs) ** 2
    q = (mags2[0] + 2.0 * mags2[1:-1].sum() + mags2[-1]) / n ** 2 * length
    g2 = np.abs(coeffs * grid.antideriv_multiplier) ** 2
    e = gamma * (2.0 * g2[1:-1].sum()) / n ** 2 * length \
        + float(np.mean(u * u * u)) * length / 3.0
    return FieldDiagnostics(dmin, dmax, max(abs(umin), abs(umax)), mass,
                            float(q), float(e))


_NEWTON_STEPS = 4  # Newton steps from the grid extremum; two reach round-off


def quartic_minmax(values: np.ndarray) -> tuple[float, float]:
    """Min and max of periodic samples, each polished by the quartic through
    the five samples around the grid extremum: its stationary point s, in
    cells from the extremum, by Newton from s = 0, or the sample itself if
    |s| > 1.

    On a resolved field this is closer to the interpolant's extremum than
    a parabola on samples 8/3 times denser; across a front only a few cells
    wide, where five samples no longer follow a quartic, it is not.
    """
    out = []
    r = len(values)
    for j in (int(np.argmin(values)), int(np.argmax(values))):
        y2m, y1m, y0, y1p, y2p = (float(values[(j + d) % r])
                                  for d in (-2, -1, 0, 1, 2))
        # p(s) = y0 + c1 s + c2 s^2 + c3 s^3 + c4 s^4 through the five
        c1 = (y2m - 8.0 * y1m + 8.0 * y1p - y2p) / 12.0
        c2 = (-y2m + 16.0 * y1m - 30.0 * y0 + 16.0 * y1p - y2p) / 24.0
        c3 = (-y2m + 2.0 * y1m - 2.0 * y1p + y2p) / 12.0
        c4 = (y2m - 4.0 * y1m + 6.0 * y0 - 4.0 * y1p + y2p) / 24.0
        s = 0.0
        for _ in range(_NEWTON_STEPS):
            curv = 2.0 * c2 + s * (6.0 * c3 + 12.0 * c4 * s)
            if curv == 0.0:
                break
            s -= (c1 + s * (2.0 * c2 + s * (3.0 * c3 + 4.0 * c4 * s))) / curv
        y = y0
        if abs(s) <= 1.0:
            y = y0 + s * (c1 + s * (c2 + s * (c3 + c4 * s)))
        out.append(y)
    return out[0], out[1]


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
