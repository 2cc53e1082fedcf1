"""Core-speed calibration: time a pass in seconds of a reference core.

On a shared virtual machine the speed of one core drifts with its
neighbours' load, by up to 1.8x for minutes at a time, while the other
core drifts independently.  `SpeedSampler` measures that drift on the core
and in the process that runs the pass: every SAMPLE_PERIOD_S of process
CPU time a SIGPROF handler runs `kernel`, a fixed piece of work that uses
no qnls code, and records how long it took.  A pass timed under the
sampler is reported as

    (time - kernel time) * REFERENCE_KERNEL_S / mean kernel time

that is, in seconds of a core on which `kernel` takes REFERENCE_KERNEL_S;
wall time uses the kernel's wall time, CPU time its CPU time.
A change to qnls moves this number as it moves the raw time; the drift of
the machine moves it far less.
"""

from __future__ import annotations

import json
import signal
import statistics
from time import perf_counter, thread_time

import numpy as np
import scipy.special

# A typical kernel time on the machine the benchmark was defined on (Xeon,
# 2 vCPUs under KVM, Python 3.11.7, NumPy 2.4.6), where it ranged 0.5-1.5 ms.
# It only fixes the unit, so that reference seconds read close to measured ones.
REFERENCE_KERNEL_S = 1.0e-3
SAMPLE_PERIOD_S = 0.02

_X = np.linspace(0.0, 1.0, 256)
_L = [((i * 7919) % 1000) / 7.0 for i in range(400)]
_D = {str(i): [i, i * 0.5, "x" * (i % 7)] for i in range(60)}


def kernel() -> None:
    """Fixed work mixing the interpreter, small NumPy arrays and SciPy calls,
    the instruction mix of the qnls passes."""
    for _ in range(8):
        z = np.exp(1j * _X)
        w = np.concatenate([z.conj() * _X, z])
        np.unique(w.real)
        w @ w
    np.polynomial.legendre.leggauss(16)
    np.fft.fft(_X)
    scipy.special.fresnel(_X)
    np.interp(_X * 0.7, _X, _X)
    sorted(_L)
    statistics.median(_L)
    json.dumps(_D)


def kernel_mean(n: int = 50) -> float:
    """Mean kernel time over n back-to-back runs (for short phases)."""
    t0 = perf_counter()
    for _ in range(n):
        kernel()
    return (perf_counter() - t0) / n


class SpeedSampler:
    """Context manager sampling the kernel time while its body runs."""

    def __enter__(self):
        self.samples: list[float] = []      # kernel wall seconds
        self.cpu_samples: list[float] = []  # kernel CPU seconds
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _tick(self, signum, frame) -> None:
        # The thread clock: while ITIMER_PROF is armed the process CPU clock
        # advances only at scheduler ticks, too coarse for a 1 ms kernel.
        t0, c0 = perf_counter(), thread_time()
        kernel()
        self.samples.append(perf_counter() - t0)
        self.cpu_samples.append(thread_time() - c0)

    @staticmethod
    def _scale(samples: list[float]) -> float:
        if not samples:
            raise RuntimeError("pass too short to calibrate the core speed")
        return REFERENCE_KERNEL_S * len(samples) / sum(samples)

    @property
    def kernel_s(self) -> float:
        """Wall time spent in the kernel, to subtract from the pass."""
        return sum(self.samples)

    @property
    def kernel_cpu_s(self) -> float:
        """CPU time spent in the kernel, to subtract from the pass."""
        return sum(self.cpu_samples)

    @property
    def scale(self) -> float:
        """Factor from this core's wall seconds to reference seconds."""
        return self._scale(self.samples)

    @property
    def cpu_scale(self) -> float:
        """The same from CPU seconds.  Time the hypervisor gives to other
        guests (steal) lengthens wall time but not CPU time, so each clock
        is scaled by the kernel as measured on that clock."""
        return self._scale(self.cpu_samples)
