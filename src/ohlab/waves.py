"""Periodic traveling waves of (c - phi) phi'' = (phi')^2 - gamma*phi on a
2*pi period.

Scaling phi = gamma * psi reduces everything to the normalized equation
(s - psi) psi'' = (psi')^2 - psi with s = c/gamma in [1, pi^2/9]: s = 1 is
the vanishing sinusoid, s = pi^2/9 the quadratic crest wave with a corner.
The solver works in the normalized variables and scales on output.

The crest-wave coefficient: substituting psi = A(3x^2 - pi^2) gives
    x^2:    -18 A^2 = 36 A^2 - 3 A     =>  A = 1/18
    const:   6 A s  =  A pi^2 - 6 A^2 pi^2  =>  s = pi^2/9,
so the quadratic crest profile is (gamma/18)(3x^2 - pi^2), with one-sided
crest slopes +-(gamma pi)/3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as windows

from .errors import NoConvergence
from .tables import write_csv

CREST_SPEED_RATIO = math.pi ** 2 / 9.0
CORNER_COEFFICIENT = 1.0 / 18.0
_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-12, 50   # residual 2-norm, iteration cap


@dataclass(frozen=True)
class WaveProfile:
    x: np.ndarray          # uniform on [-pi, pi), right endpoint excluded
    phi: np.ndarray
    c: float
    gamma: float

    @property
    def amplitude(self) -> float:
        return float(self.phi.max() - self.phi.min())


def _grid(n: int) -> np.ndarray:
    return -math.pi + np.arange(n) * (2.0 * math.pi / n)


def corner_wave(gamma: float, n: int = 1024) -> WaveProfile:
    """The crest wave: (gamma/18)(3x^2 - pi^2) at c = pi^2 gamma / 9."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    x = _grid(n)
    phi = CORNER_COEFFICIENT * gamma * (3.0 * x * x - math.pi ** 2)
    return WaveProfile(x=x, phi=phi, c=CREST_SPEED_RATIO * gamma, gamma=gamma)


def ode_residual(w: WaveProfile, scheme: str = "spectral",
                 exclude_crest: int = 0) -> float:
    """Max-norm of (c - phi) phi'' - (phi')^2 + gamma*phi over collocation
    points, optionally excluding cells within exclude_crest of the profile
    maximum.

    scheme 'spectral' differentiates through the Fourier interpolant and is
    the right choice for smooth profiles; 'fd' uses centered differences,
    which are exact for piecewise-quadratic profiles away from the corner and
    so probe the crest wave without Gibbs contamination.
    """
    n = len(w.phi)
    h = 2.0 * math.pi / n
    if scheme == "spectral":
        coeffs = np.fft.rfft(w.phi)
        ik = 1j * np.arange(n // 2 + 1)
        ik[-1] = 0.0
        d1 = np.fft.irfft(coeffs * ik)
        d2 = np.fft.irfft(coeffs * ik * ik)
    elif scheme == "fd":
        d1 = (np.roll(w.phi, -1) - np.roll(w.phi, 1)) / (2.0 * h)
        d2 = (np.roll(w.phi, -1) - 2.0 * w.phi + np.roll(w.phi, 1)) / h ** 2
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    r = (w.c - w.phi) * d2 - d1 * d1 + w.gamma * w.phi
    if exclude_crest > 0:
        jc = int(np.argmax(w.phi))
        dist = np.abs((np.arange(n) - jc + n // 2) % n - n // 2)
        r = r[dist > exclude_crest]
        if not r.size:
            raise ValueError(f"exclude_crest = {exclude_crest} leaves no "
                             f"point of n = {n}")
    return float(np.max(np.abs(r)))


class _NormalizedSolver:
    """Newton-Fourier solver for the normalized wave equation.

    Unknowns are the cosine coefficients a_1..a_K of psi (even gauge, zero
    mean), K = n/2 - 1.  Inverse FFTs give psi, psi', psi'' on the grid of
    m = 2n points from -pi (DFT mode p carries (-1)^p), where the quadratic
    residual is alias-free; one FFT projects it onto cos jx, j = 1..K.  Its
    mode 0 vanishes ((s - psi) psi'' - psi'^2 = ((s - psi) psi')' and psi has
    zero mean), so the projected system is square.

    Column k of the Jacobian projects (G - k^2 F) cos kx + 2k H sin kx, with
    F = s - psi, G = 1 - psi'', H = psi', whose cosine, cosine and sine
    coefficients F_p = (2s, -a_p), G_p = (2, p^2 a_p), H_p = (0, -p a_p),
    p = 0..K, extend to p < 0 as even, even and odd.  Product to sum, exact
    on the m grid since every product stays below mode 3K < m, gives
        J[j,k] = (E_(k-j) + E_(k+j)) / 2,   E_p = G_p - k^2 F_p + 2k H_p:
    Toeplitz plus Hankel, O(K^2) to assemble and on no grid.
    """

    def __init__(self, n: int = 256):
        self.n = n
        self.k = np.arange(1, n // 2)         # retained modes
        self.sign = np.where(self.k % 2 == 0, 1.0, -1.0)
        self.synth = n * self.sign * np.array(   # (m/2) (-1)^k (1, ik, -k^2)
            [self.k ** 0, 1j * self.k, -self.k ** 2])

    def _fields(self, a: np.ndarray) -> np.ndarray:
        """psi, psi', psi'' on the m grid, as the rows of a (3, m) array."""
        spec = self.synth * a                  # modes 1..K; mode 0 is zero
        return np.fft.irfft(np.hstack((np.zeros((3, 1)), spec)), 2 * self.n)

    def residual(self, a: np.ndarray, s: float):
        psi, dpsi, d2psi = self._fields(a)
        r = (s - psi) * d2psi - dpsi * dpsi + psi
        proj = np.fft.rfft(r)[1:len(a) + 1].real / self.n   # 2/m = 1/n
        return self.sign * proj, float(np.max(np.abs(r)))

    def jacobian(self, a: np.ndarray, s: float) -> np.ndarray:
        k, kmax = self.k, len(self.k)
        c = np.zeros((3, 3 * kmax))            # F, G, H at p = 1-K .. 2K
        c[:, kmax:2 * kmax] = -a, k * k * a, -k * a
        c[:2, kmax - 1] = 2.0 * s, 2.0
        c[:, :kmax - 1] = c[:, 2 * kmax - 2:kmax - 1:-1] * [[1], [1], [-1]]
        f, g, h = (windows(c[:, :2 * kmax - 1], kmax, axis=1)[:, ::-1]
                   + windows(c[:, kmax + 1:], kmax, axis=1))
        return 0.5 * (g - k * k * f) + k * h

    def solve(self, a: np.ndarray, s: float):
        """Newton iteration from a on the Galerkin system, to a Galerkin
        residual 2-norm below _NEWTON_TOL within _NEWTON_MAX_ITER steps; no
        iterate is modified in place.  The returned pointwise residual also
        carries the spectral truncation tail (modes above K excited by the
        quadratic terms), which no step inside the basis can remove, so it
        is reported rather than iterated on.
        """
        r, point_norm = self.residual(a, s)
        for it in range(_NEWTON_MAX_ITER + 1):
            norm0 = np.linalg.norm(r)
            if norm0 < _NEWTON_TOL:
                return a, point_norm
            if it == _NEWTON_MAX_ITER:
                raise NoConvergence(
                    f"Newton iteration did not converge at s={s}")
            delta = np.linalg.solve(self.jacobian(a, s), -r)
            for step in 0.5 ** np.arange(20):
                trial = a + step * delta
                r_trial, pn_trial = self.residual(trial, s)
                if np.linalg.norm(r_trial) < norm0:
                    a, r, point_norm = trial, r_trial, pn_trial
                    break
            else:
                raise NoConvergence(f"step halving exhausted at s={s}")

    def profile(self, a: np.ndarray, s: float, gamma: float) -> WaveProfile:
        psi = self._fields(a)[0][::2]          # the n grid: every other point
        return WaveProfile(_grid(self.n), gamma * psi, s * gamma, gamma)


def _checked_solve(solver: _NormalizedSolver, a0: np.ndarray,
                   s: float) -> np.ndarray:
    """Newton solve that rejects collapse onto the trivial branch.

    psi = 0 satisfies the equation at every speed and attracts Newton when
    the start is too far from the wave, so a 'converged' answer with less
    than half the linear-theory amplitude is treated as a failure.
    """
    a, _ = solver.solve(a0, s)
    lin_amp = 2.0 * math.sqrt(max(6.0 * (s - 1.0), 0.0))
    if np.ptp(solver._fields(a)[0]) < 0.5 * lin_amp:
        raise NoConvergence(f"collapsed onto the zero solution at s={s}")
    return a


def _continue_to(solver: _NormalizedSolver, a: np.ndarray, s_from: float,
                 s_to: float, depth: int = 12) -> np.ndarray:
    # warm-start continuation with step bisection on failure
    try:
        return _checked_solve(solver, a, s_to)
    except NoConvergence:
        if depth == 0:
            raise
        mid = 0.5 * (s_from + s_to)
        a_mid = _continue_to(solver, a, s_from, mid, depth - 1)
        return _continue_to(solver, a_mid, mid, s_to, depth - 1)


def _expansion_modes(s: float, n: int) -> np.ndarray:
    """Cosine modes a_1..a_K, K = n/2 - 1, of the third-order small-amplitude
    expansion -eps cos x + (eps^2/3) cos 2x - (3/16) eps^3 cos 3x of the
    normalized wave at speed s = 1 + eps^2/6, crest at +-pi (n = 6 drops
    cos 3x)."""
    eps = math.sqrt(max(6.0 * (s - 1.0), 0.0))
    a = np.zeros(n // 2 + 2)
    a[:3] = -eps, eps ** 2 / 3.0, -3.0 / 16.0 * eps ** 3
    return a[:n // 2 - 1]


def _cold_solve(solver: _NormalizedSolver, s: float) -> np.ndarray:
    """The wave at s from the expansion; a start too far from the wave falls
    back to continuation from s0 = min(1 + (s - 1)/4, 1.01)."""
    try:
        return _checked_solve(solver, _expansion_modes(s, solver.n), s)
    except NoConvergence:
        s0 = min(1.0 + 0.25 * (s - 1.0), 1.01)
        a = _checked_solve(solver, _expansion_modes(s0, solver.n), s0)
        return _continue_to(solver, a, s0, s)


def _check_inputs(gamma: float, n: int, ratios: list) -> None:
    """Reject, before any Newton step, inputs that no wave exists for."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if n < 4:
        raise ValueError(f"n = {n} retains no Fourier mode; need n >= 4")
    if n % 2 or n < 6:
        raise ValueError(f"n = {n} holds no wave; need an even n >= 6")
    if not ratios:
        raise ValueError("no speed ratios given")
    for s in ratios:
        if not 1.0 < s < CREST_SPEED_RATIO:
            raise ValueError(f"c/gamma = {s} outside the open range "
                             f"(1, {CREST_SPEED_RATIO})")


def solve_periodic_wave(c: float, gamma: float,
                        n: int = 256) -> WaveProfile:
    """Newton solve at speed c on n points by `_cold_solve`: from the
    small-amplitude expansion, or by continuation from small amplitude when
    that start is too far from the wave."""
    s = c / gamma if gamma > 0 else math.nan
    _check_inputs(gamma, n, [s])
    solver = _NormalizedSolver(n)
    return solver.profile(_cold_solve(solver, s), s, gamma)


def continuation_branch(gamma: float, speed_ratios, n: int = 512):
    """Sweep of solves over increasing c/gamma; returns the list of profiles
    in input order.  The first ratio is solved like `solve_periodic_wave`,
    the rest from the previous solution, with oversized parameter steps
    bisected automatically."""
    ratios = list(speed_ratios)
    _check_inputs(gamma, n, ratios)
    solver = _NormalizedSolver(n)
    a = _cold_solve(solver, ratios[0])
    out = [solver.profile(a, ratios[0], gamma)]
    for s_prev, s in zip(ratios, ratios[1:]):
        a = _continue_to(solver, a, s_prev, s)
        out.append(solver.profile(a, s, gamma))
    return out


def write_profile_csv(w: WaveProfile, path):
    write_csv(path, "x,phi", [w.x, w.phi])


def write_branch_csv(profiles, path):
    write_csv(path, "c_over_gamma,amplitude,residual",
              [[w.c / w.gamma for w in profiles],
               [w.amplitude for w in profiles],
               [ode_residual(w) for w in profiles]])
