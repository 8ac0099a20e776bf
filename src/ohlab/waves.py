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

from .errors import NoConvergence
from .tables import write_csv

CREST_SPEED_RATIO = math.pi ** 2 / 9.0
CORNER_COEFFICIENT = 1.0 / 18.0


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
    if gamma <= 0:
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
    return float(np.max(np.abs(r)))


def perturbation_profile(s: float, n: int = 256) -> np.ndarray:
    """Third-order small-amplitude expansion of the normalized wave at speed
    s = 1 + eps^2/6, in the crest-at-+-pi gauge."""
    eps = math.sqrt(max(6.0 * (s - 1.0), 0.0))
    x = _grid(n)
    return (-eps * np.cos(x) + (eps ** 2 / 3.0) * np.cos(2 * x)
            - (3.0 / 16.0) * eps ** 3 * np.cos(3 * x))


class _NormalizedSolver:
    """Newton-Fourier solver for the normalized wave equation.

    Unknowns are the cosine coefficients a_1..a_K of psi (even gauge, zero
    mean), K = n/2 - 1.  Residual and Jacobian are evaluated on a doubled
    grid so the quadratic products are alias-free, then Galerkin-projected
    onto cosine modes 1..K.  The residual's mode 0 vanishes identically
    ((c - psi) psi'' - (psi')^2 + psi integrates to zero for any periodic
    psi), so the projected system is square.
    """

    def __init__(self, n: int = 256):
        self.n = n
        self.k = np.arange(1, n // 2)         # retained modes
        m = 2 * n
        self.m = m
        x = _grid(m)
        kx = np.outer(self.k, x)              # (K, m)
        self.cos_kx = np.cos(kx)
        self.sin_kx = np.sin(kx)
        self.project = self.cos_kx * (2.0 / m)   # Galerkin weights

    def _fields(self, a: np.ndarray):
        psi = a @ self.cos_kx
        dpsi = -(a * self.k) @ self.sin_kx
        d2psi = -(a * self.k ** 2) @ self.cos_kx
        return psi, dpsi, d2psi

    def residual(self, a: np.ndarray, s: float):
        psi, dpsi, d2psi = self._fields(a)
        r = (s - psi) * d2psi - dpsi * dpsi + psi
        return self.project @ r, float(np.max(np.abs(r)))

    def jacobian(self, a: np.ndarray, s: float) -> np.ndarray:
        psi, dpsi, d2psi = self._fields(a)
        # column for mode k: (s-psi)(-k^2 cos kx) - psi'' cos kx
        #                    + 2 psi' k sin kx + cos kx
        cols = ((s - psi) * (-(self.k ** 2)[:, None] * self.cos_kx)
                + (1.0 - d2psi) * self.cos_kx
                + 2.0 * dpsi * (self.k[:, None] * self.sin_kx))
        return self.project @ cols.T

    def solve(self, a0: np.ndarray, s: float, tol: float = 1e-12,
              max_iter: int = 50):
        """Newton iteration on the Galerkin system; tol bounds the Galerkin
        residual 2-norm.  The returned pointwise residual additionally
        carries the spectral truncation tail (modes above K excited by the
        quadratic terms), which no step inside the basis can remove, so it
        is reported rather than iterated on.
        """
        a = a0.copy()
        r, point_norm = self.residual(a, s)
        self.last_iterations = 0
        for it in range(max_iter):
            if np.linalg.norm(r) < tol:
                self.last_iterations = it
                return a, point_norm
            delta = np.linalg.solve(self.jacobian(a, s), -r)
            step = 1.0
            norm0 = np.linalg.norm(r)
            while step > 2 ** -20:
                trial = a + step * delta
                r_trial, pn_trial = self.residual(trial, s)
                if np.linalg.norm(r_trial) < norm0:
                    a, r, point_norm = trial, r_trial, pn_trial
                    break
                step *= 0.5
            else:
                raise NoConvergence(f"step halving exhausted at s={s}")
        if np.linalg.norm(r) < tol:
            self.last_iterations = max_iter
            return a, point_norm
        raise NoConvergence(f"no convergence in {max_iter} iterations at s={s}")

    def coeffs_from_values(self, values: np.ndarray) -> np.ndarray:
        # values live on _grid(n), whose first sample sits at -pi; the DFT
        # anchors phase at sample 0, so mode k picks up a factor (-1)^k.
        spec = np.fft.rfft(values)
        signs = np.where(self.k % 2 == 0, 1.0, -1.0)
        return signs * 2.0 * np.real(spec[1: self.n // 2]) / len(values)

    def profile(self, a: np.ndarray, s: float, gamma: float) -> WaveProfile:
        x = _grid(self.n)
        psi = a @ np.cos(np.outer(self.k, x))
        return WaveProfile(x=x, phi=gamma * psi, c=s * gamma, gamma=gamma)


def _checked_solve(solver: _NormalizedSolver, a0: np.ndarray,
                   s: float) -> np.ndarray:
    """Newton solve that rejects collapse onto the trivial branch.

    psi = 0 satisfies the equation at every speed and attracts Newton when
    the start is too far from the wave, so a 'converged' answer with less
    than half the linear-theory amplitude is treated as a failure.
    """
    a, _ = solver.solve(a0, s)
    psi = a @ solver.cos_kx
    lin_amp = 2.0 * math.sqrt(max(6.0 * (s - 1.0), 0.0))
    if psi.max() - psi.min() < 0.5 * lin_amp:
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


def solve_periodic_wave(c: float, gamma: float,
                        init: WaveProfile | None = None,
                        n: int = 256) -> WaveProfile:
    """Newton solve at speed c; initialized from the small-amplitude
    expansion unless a warm start is given.  If the cold start is too far
    from the wave, falls back to continuation from small amplitude."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    s = c / gamma
    if not 1.0 < s < CREST_SPEED_RATIO:
        raise ValueError(f"c/gamma = {s} outside the open range "
                         f"(1, {CREST_SPEED_RATIO})")
    solver = _NormalizedSolver(n)
    if init is not None:
        vals = init.phi / init.gamma
        if len(vals) != n:
            spec = np.fft.rfft(vals)
            out = np.zeros(n // 2 + 1, dtype=complex)
            keep = min(len(spec), n // 2 + 1)
            out[:keep] = spec[:keep]
            vals = np.fft.irfft(out * (n / len(vals)))
        a0 = solver.coeffs_from_values(vals)
    else:
        a0 = solver.coeffs_from_values(perturbation_profile(s, n))
    try:
        a = _checked_solve(solver, a0, s)
    except NoConvergence:
        if init is not None:
            raise
        s0 = min(1.0 + 0.25 * (s - 1.0), 1.01)
        a = _checked_solve(
            solver, solver.coeffs_from_values(perturbation_profile(s0, n)),
            s0)
        a = _continue_to(solver, a, s0, s)
    return solver.profile(a, s, gamma)


def continuation_branch(gamma: float, speed_ratios, n: int = 512):
    """Sweep of solves over increasing c/gamma with warm starts; returns the
    list of profiles in input order.  Oversized parameter steps are bisected
    automatically."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    ratios = list(speed_ratios)
    solver = _NormalizedSolver(n)
    out = []
    a = _checked_solve(
        solver, solver.coeffs_from_values(perturbation_profile(ratios[0], n)),
        ratios[0])
    out.append(solver.profile(a, ratios[0], gamma))
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
