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

Each Newton solve climbs a ladder of grids, as `evolution.march` does.  A
wave's cosine modes decay exponentially until the corner is near, so most
of the branch is held by far fewer modes than n/2 - 1, and a dense Newton
step costs O(K^3) in the K retained modes.  The solve starts on the first
grid m = 64, 128, ... below n whose `band_tail` of the start (the top
eighth of m's modes and all that m drops) is at round-off,
`fourier.ROUNDOFF_TAIL`.  It converges there and climbs, from the
zero-padded solution, to the next grid while the solution's own top eighth
is not at round-off.  It always finishes with Newton on n from the
zero-padded coarse solution, so every wave meets the Galerkin tolerance on
n and is judged there.  A solve that fails on any grid of its ladder
raises `NoConvergence`; the one retry is a branch's step in s, bisected
when the secant start misses (see `_continue_to`).

A Newton step costs little more than its dense solve and its FFTs: the
Jacobian is assembled in place from one strided view over the modes, a
trial step computes the Galerkin residual and nothing else, and the solver
of each grid, which keeps no state between solves, is built on demand once
(`_solver`) and shared by every solve on that grid.  A solve returns the
modes alone; how well a wave meets the equation pointwise is its profile's
`ode_residual`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NoConvergence
from .fourier import ROUNDOFF_TAIL, band_tail, resolving_grid
from .tables import write_csv

CREST_SPEED_RATIO = math.pi ** 2 / 9.0
CORNER_COEFFICIENT = 1.0 / 18.0
_NEWTON_TOL, _NEWTON_MAX_ITER = 1e-12, 50   # residual 2-norm, iteration cap
# a solve has stalled when its residual 2-norm is still above _STALL_FACTOR
# times its value _STALL_STEPS Newton steps earlier
_STALL_STEPS, _STALL_FACTOR = 4, 0.99
_BASE = 64   # the smallest grid of the Newton ladder


@dataclass(frozen=True)
class WaveProfile:
    x: np.ndarray          # uniform on [-pi, pi), right endpoint excluded
    phi: np.ndarray
    c: float
    gamma: float

    @property
    def amplitude(self) -> float:
        return float(self.phi.max() - self.phi.min())

    @property
    def tail(self) -> float:
        """The `band_tail` of phi on its own grid: how far the top eighth
        of its modes lies below the peak mode."""
        return band_tail(np.fft.rfft(self.phi), len(self.phi))

    @cached_property
    def residual(self) -> float:
        """The spectral `ode_residual` of phi, computed on first use."""
        return ode_residual(self)


def _grid(n: int) -> np.ndarray:
    return -math.pi + np.arange(n) * (2.0 * math.pi / n)


def corner_wave(gamma: float, n: int = 1024) -> WaveProfile:
    """The crest wave: (gamma/18)(3x^2 - pi^2) at c = pi^2 gamma / 9."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if n < 1:
        raise ValueError(f"n = {n} holds no grid point; need n >= 1")
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
    residual is alias-free; one FFT projects it onto cos jx, j = 1..K, and
    that Galerkin vector is all `residual` returns.  Its mode 0 vanishes
    ((s - psi) psi'' - psi'^2 = ((s - psi) psi')' and psi has zero mean),
    so the projected system is square.  The crest and collapse checks and
    `profile` read psi alone, so they transform its row alone.

    The residual is s psi'' - (psi^2)''/2 + psi, so its derivative along
    cos kx is (1 - s k^2) cos kx + (psi cos kx)'' with the sign flipped.
    Product to sum, psi cos kx = sum_p (a_p/2)(cos (p-k)x + cos (p+k)x),
    and the cos jx coefficient of minus its second derivative gives
        J[j,k] = (j^2/2)(a_|k-j| + a_(k+j)) + delta_jk (1 - s k^2),
    with a_0 = 0 and a_p = 0 for p > K: exact, because the residual's
    modes above K are dropped by the projection, not aliased into it.
    One strided view over the a_|p|, read-only, assembles it in O(K^2), on
    no grid.

    A solver keeps no state between calls, so `_solver` builds one per grid
    on demand and every solve on that grid reuses it: the leading m/2 - 1
    modes of a start on n are a start on the coarse grid m, and a solution
    on m, zero-padded, is a start on n.
    """

    def __init__(self, n: int = 256):
        self.n = n
        self.k = np.arange(1, n // 2)         # retained modes
        self.sign = np.where(self.k % 2 == 0, 1.0, -1.0)
        self.synth = n * self.sign * np.array(   # (m/2) (-1)^k (1, ik, -k^2)
            [self.k ** 0, 1j * self.k, -self.k ** 2])

    def _fields(self, a: np.ndarray, rows: int = 3) -> np.ndarray:
        """The first `rows` of psi, psi', psi'' on the m grid, as the rows
        of a (rows, m) array; psi, row 0, is bitwise the same whatever
        rows is."""
        spec = np.zeros((rows, len(a) + 1), dtype=complex)   # mode 0 is zero
        np.multiply(self.synth[:rows], a, out=spec[:, 1:])
        return np.fft.irfft(spec, 2 * self.n)

    def residual(self, a: np.ndarray, s: float) -> np.ndarray:
        """The Galerkin residual: the cos jx coefficients, j = 1..K."""
        psi, dpsi, d2psi = self._fields(a)
        r = (s - psi) * d2psi - dpsi * dpsi + psi
        return self.sign * np.fft.rfft(r)[1:len(a) + 1].real / self.n   # 2/m

    def jacobian(self, a: np.ndarray, s: float) -> np.ndarray:
        kmax, k2 = len(a), self.k * self.k
        # row i of w holds a_|p| from p = i - K: a_|k-j| at row K - j + 1,
        # a_(k+j) at row K + j + 1, column k - 1
        line = np.concatenate((a[::-1], [0.0], a, np.zeros(kmax)))
        stride = line.strides[0]
        w = as_strided(line, (2 * kmax + 2, kmax), (stride, stride),
                       writeable=False)
        jac = w[kmax:0:-1] + w[kmax + 2:]
        jac *= (0.5 * k2)[:, None]
        jac.flat[::kmax + 1] += 1.0 - s * k2
        return jac

    def solve(self, a: np.ndarray, s: float) -> np.ndarray:
        """The modes from Newton iteration from a on the Galerkin system,
        to a Galerkin residual 2-norm below _NEWTON_TOL within
        _NEWTON_MAX_ITER steps; no iterate is modified in place.  It gives
        up early once the residual has stalled, when _STALL_STEPS steps
        have cut it by less than 1 - _STALL_FACTOR of its value.
        """
        r = self.residual(a, s)
        norms = []
        for it in range(_NEWTON_MAX_ITER + 1):
            norm0 = math.sqrt(r @ r)
            if norm0 < _NEWTON_TOL:
                return a
            if it == _NEWTON_MAX_ITER:
                raise NoConvergence(
                    f"Newton iteration did not converge at s={s}")
            if it >= _STALL_STEPS and \
                    norm0 > _STALL_FACTOR * norms[it - _STALL_STEPS]:
                raise NoConvergence(f"Newton iteration stalled at s={s}")
            norms.append(norm0)
            delta = np.linalg.solve(self.jacobian(a, s), -r)
            step = 1.0
            for _ in range(20):
                trial = a + step * delta
                r_trial = self.residual(trial, s)
                if math.sqrt(r_trial @ r_trial) < norm0:
                    a, r = trial, r_trial
                    break
                step *= 0.5
            else:
                raise NoConvergence(f"step halving exhausted at s={s}")

    def profile(self, a: np.ndarray, s: float, gamma: float) -> WaveProfile:
        psi = self._fields(a, 1)[0][::2]       # the n grid: every other point
        return WaveProfile(_grid(self.n), gamma * psi, s * gamma, gamma)


@lru_cache(maxsize=16)   # a ladder to n = 2^17 visits 12 grids
def _solver(n: int) -> _NormalizedSolver:
    """The solver on n points, built on first use and then shared."""
    return _NormalizedSolver(n)


def _eps(s: float) -> float:
    """The small-amplitude parameter eps = sqrt(6 (s - 1)): the modes are
    smooth in eps, not in s, since a = O(eps) near s = 1."""
    return math.sqrt(max(6.0 * (s - 1.0), 0.0))


def _coarse_start(n: int, a: np.ndarray, s: float) -> np.ndarray:
    """The start on n from the ladder of coarse grids m = _BASE, 2 _BASE,
    ... below n: Newton from a on the first m whose `band_tail` of a is at
    round-off, then on the next m from that solution, zero-padded, until a
    solution's own tail is at round-off; a start on no coarse grid is a
    itself."""
    def by_wavenumber(a):   # a holds modes 1..K; band_tail indexes from 0
        return np.concatenate(([0.0], a))

    m = resolving_grid(by_wavenumber(a), _BASE, n)
    while m < n:
        coarse = _solver(m).solve(a[:m // 2 - 1], s)
        a = np.zeros(len(a))
        a[:len(coarse)] = coarse
        if band_tail(by_wavenumber(a), m) <= ROUNDOFF_TAIL:
            return a
        m *= 2
    return a


def _checked_solve(solver: _NormalizedSolver, a0: np.ndarray,
                   s: float) -> np.ndarray:
    """Newton solve on solver.n from `_coarse_start`, that rejects collapse
    onto the trivial branch and waves whose crest reaches the speed.

    psi = 0 satisfies the equation at every speed and attracts Newton when
    the start is too far from the wave, so a 'converged' answer with less
    than half the linear-theory amplitude is treated as a failure.  So is
    one with max psi >= s: there (s - psi) psi'' is singular, and the
    Galerkin system has spurious solutions far from the wave.  A solution
    with a_1 > 0 is the wave translated by pi, which a secant start that
    overshoots through a = 0 can reach; a_k -> (-1)^k a_k translates it
    back to the gauge with its crest at +-pi.
    """
    a = solver.solve(_coarse_start(solver.n, a0, s), s)
    if a[0] > 0.0:
        a = solver.sign * a
    psi = solver._fields(a, 1)[0]
    if np.ptp(psi) < _eps(s):           # half of the linear 2 eps
        raise NoConvergence(f"collapsed onto the zero solution at s={s}")
    if psi.max() >= s:
        raise NoConvergence(f"crest at or above the speed at s={s}")
    return a


def _predict(back, last, s: float):
    """Modes at s on the secant in eps through the solutions back and last,
    each an (s, a) pair; a repeated ratio (zero denominator) gives last's."""
    (s0, a0), (s1, a1) = back, last
    e0, e1 = _eps(s0), _eps(s1)
    if e1 == e0:
        return a1
    return a1 + (_eps(s) - e1) / (e1 - e0) * (a1 - a0)


def _continue_to(solver: _NormalizedSolver, back, last, s_to: float,
                 depth: int = 12) -> np.ndarray:
    """The wave at s_to, from the secant predictor through back and last;
    a failed solve bisects the step in s, with the same predictor.  A long
    step back toward s = 1 needs it: from 1.09 and 1.06 the secant start
    at 1.005 collapses onto psi = 0, and the halves converge."""
    try:
        return _checked_solve(solver, _predict(back, last, s_to), s_to)
    except NoConvergence:
        if depth == 0:
            raise
        mid = 0.5 * (last[0] + s_to)
        a_mid = _continue_to(solver, back, last, mid, depth - 1)
        return _continue_to(solver, last, (mid, a_mid), s_to, depth - 1)


def _expansion_modes(s: float, n: int) -> np.ndarray:
    """Cosine modes a_1..a_K, K = n/2 - 1, of the third-order small-amplitude
    expansion -eps cos x + (eps^2/3) cos 2x - (3/16) eps^3 cos 3x of the
    normalized wave at speed s = 1 + eps^2/6, crest at +-pi (n = 6 drops
    cos 3x)."""
    eps = _eps(s)
    a = np.zeros(n // 2 + 2)
    a[:3] = -eps, eps ** 2 / 3.0, -3.0 / 16.0 * eps ** 3
    return a[:n // 2 - 1]


def _cold_solve(solver: _NormalizedSolver, s: float) -> np.ndarray:
    """The wave at s from the expansion, on the ladder of `_coarse_start`."""
    return _checked_solve(solver, _expansion_modes(s, solver.n), s)


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
    """Newton solve at speed c on n points by `_cold_solve`, from the
    small-amplitude expansion; a solve that fails raises `NoConvergence`."""
    s = c / gamma if gamma > 0 else math.nan
    _check_inputs(gamma, n, [s])
    solver = _solver(n)
    return solver.profile(_cold_solve(solver, s), s, gamma)


def continuation_branch(gamma: float, speed_ratios, n: int = 512):
    """Sweep of solves over the speed ratios c/gamma; returns the list of
    profiles in input order.  The first ratio is solved like
    `solve_periodic_wave`.  Each later one starts from the secant in eps
    through the last two solutions (the bifurcation point (1, 0) stands in
    before the second), and a step whose solve fails is bisected
    (`_continue_to`)."""
    ratios = list(speed_ratios)
    _check_inputs(gamma, n, ratios)
    solver = _solver(n)
    a = _cold_solve(solver, ratios[0])
    back, last = (1.0, 0.0), (ratios[0], a)
    out = [solver.profile(a, ratios[0], gamma)]
    for s in ratios[1:]:
        a = _continue_to(solver, back, last, s)
        back, last = last, (s, a)
        out.append(solver.profile(a, s, gamma))
    return out


def write_profile_csv(w: WaveProfile, path):
    write_csv(path, "x,phi", [w.x, w.phi])


def write_branch_csv(profiles, path):
    write_csv(path, "c_over_gamma,amplitude,residual",
              [[w.c / w.gamma for w in profiles],
               [w.amplitude for w in profiles],
               [w.residual for w in profiles]])
