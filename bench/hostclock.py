"""Host speed, sampled while a workload runs, to factor it out of pass times.

On a shared host the CPU can run a workload at speeds far apart for tens of
seconds at a time, so the wall time of the same pass moves with the host and
not with the program.  HostClock runs a fixed calibration kernel of plain
numpy work (no ohlab code) from a SIGALRM handler every PERIOD_S seconds and
records how long it took.  A pass's time is its wall time minus the time the
handler spent inside it, scaled by the kernel's reference time over the mean
kernel time sampled during the pass: the seconds the pass would take on a
host where the kernel takes its reference time.  A change to ohlab moves the
pass and not the kernel, so it shows in full; a change of host speed moves
both.

The host's slow spells slow different kinds of work by different amounts,
so each workload names the kernel that followed it best on the build host.
"mixed" runs a Python loop over small-array ufuncs, real FFTs, a complex
exponential outer product with a matrix-vector product, and a dense
160x160 product and solve.  "spectral" keeps only the FFTs and the
exponential outer product.  Over ten 30 s runs, the median scaled pass of
`wave_branch` spread by 7.6% with "mixed", which slowed more than the
workload when the host did, and by 2.1% with "spectral"; `criteria_map`
spread by 2.6% with "mixed" and 8.4% with "spectral".
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1

_rng = np.random.default_rng(0)
_x = np.linspace(0.1, 1.0, 64)
_signal = _rng.standard_normal(2048)
_theta = _rng.random(64)
_modes = np.arange(48.0)
_A = _rng.standard_normal((160, 160)) + 160.0 * np.eye(160)
_B = _rng.standard_normal((160, 160))
_b = _rng.standard_normal(160)


def _ufunc_loop():
    acc = 0.0
    for i in range(40):
        y = np.sqrt(_x * 1.0001 + i)
        acc += float(np.where(y > 1.5, y, 0.0)[3]) + math.sqrt(i + 1.0)
    return acc


def _fft():
    return sum(float(np.fft.irfft(np.fft.rfft(_signal) * 1.0001)[5])
               for _ in range(6))


def _exp_matvec():
    return sum(float(np.real(np.exp(1j * np.outer(_theta, _modes))
                             @ _modes)[0]) for _ in range(3))


def _dense():
    return float((_A @ _B)[0, 0]) + float(np.linalg.solve(_A, _b)[0])


# name: (parts, a typical time of the kernel on the 2-core Xeon VM the
# benchmark was built on, where it ranged over ~0.8-1.9 ms); any fixed time
# works, as both sides of a comparison on one host use the same
KERNELS = {
    "mixed": ((_ufunc_loop, _fft, _exp_matvec, _dense), 1.2e-3),
    "spectral": ((_fft, _fft, _exp_matvec, _exp_matvec), 1.4e-3),
}


class HostClock:
    """Samples the kernel's time from a timer signal between start() and
    stop(); `timed(fn)` calls fn and returns (result, seconds, raw seconds)
    with the seconds scaled to the reference speed."""

    def __init__(self, kernel: str):
        self.parts, self.reference_s = KERNELS[kernel]
        self.durations = []
        self.handler_s = 0.0
        self._previous = None

    def kernel(self):
        for part in self.parts:
            part()

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.durations.append(t1 - t0)
        self.handler_s += t1 - t0

    def start(self):
        for _ in range(5):      # warm the kernel's FFT plans and caches
            self.kernel()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def timed(self, fn):
        first, handler0 = len(self.durations), self.handler_s
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0 - (self.handler_s - handler0)
        # the samples taken during the call, and the one before it, which
        # stands for the host's speed when the call is shorter than a period
        speed = statistics.fmean(self.durations[first - 1:])
        return result, raw * self.reference_s / speed, raw


class WallClock:
    """HostClock's interface without the sampler: raw wall seconds."""

    durations = ()

    def start(self):
        pass

    def stop(self):
        pass

    def timed(self, fn):
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return result, raw, raw
