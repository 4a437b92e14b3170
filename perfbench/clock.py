"""Clocks that turn a (start, end) pair of perf_counter stamps into seconds.

``WallClock`` returns plain wall-clock seconds.

``ReferenceClock`` returns reference seconds: wall time rescaled by the
speed of the machine at that moment.  On a small shared host the speed of
the same code drifts by tens of percent over seconds to minutes as the
neighbours come and go, so the plain wall time of one run says more about
them than about finehash.  While started, a SIGALRM timer runs a fixed
calibration kernel on the benchmark's own thread every ``kernel.interval``
seconds.  A stretch of work between two samples is scaled by
``kernel.reference / kernel time`` (a running median over ``SMOOTHING``
samples), and the time spent sampling is left out.  At reference speed one
reference second is one wall second.

The kernel has to slow down with the work it stands for: ``ComputeKernel``
for interpreter-bound work on small arrays (train, serve), ``MemoryKernel``
for scans and sorts of arrays far larger than the caches (search-1m).
Reference times are the kernels' usual medians on the 2-vCPU x86-64 VM the
benchmark was built on, with numpy 2.4 and a single-threaded OpenBLAS.
"""

from __future__ import annotations

import signal
import time

import numpy as np

SMOOTHING = 25


class WallClock:
    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def seconds(self, start: float, end: float) -> float:
        return end - start


class ComputeKernel:
    """Interpreter loop and small BLAS products on data that fits in the
    first-level caches.  It runs twice per sample and the warm second call
    is timed, so what the interrupted work left in the caches does not
    change its time."""

    reference = 0.2e-3
    interval = 0.02
    warm_up = True

    def __init__(self):
        self.matrix = np.random.default_rng(20081369).standard_normal((32, 32))

    def __call__(self) -> float:
        total = 0.0
        for _ in range(16):
            total += float((self.matrix @ self.matrix)[0, 0])
        for i in range(2000):
            total += i * 0.5
        return total


class MemoryKernel:
    """One load per cache line across 32 MB, which no cache holds, so its
    time follows the memory bandwidth left over by the neighbours."""

    reference = 3.0e-3
    interval = 0.05
    warm_up = False

    def __init__(self):
        self.buffer = np.random.default_rng(20081369).standard_normal(4 << 20)

    def __call__(self) -> float:
        return float(self.buffer[::8].sum())


class ReferenceClock:
    def __init__(self, kernel):
        self._kernel = kernel
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._speed: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        if self._kernel.warm_up:
            self._kernel()
        timed = time.perf_counter()
        self._kernel()
        ended = time.perf_counter()
        self._starts.append(started)
        self._durations.append(ended - started)
        self._speed.append(ended - timed)

    def start(self) -> None:
        self._kernel()  # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        interval = self._kernel.interval
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        starts = np.array(self._starts)
        if len(starts) < SMOOTHING:
            raise RuntimeError(f"reference clock: {len(starts)} calibration samples, "
                               f"need at least {SMOOTHING}")
        padded = np.pad(np.array(self._speed), SMOOTHING // 2, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, SMOOTHING)
        self._rate = self._kernel.reference / np.median(windows, axis=1)
        self._starts_arr = starts
        self._ends = starts + np.array(self._durations)
        gaps = np.maximum(starts[1:] - self._ends[:-1], 0.0)
        self._cumulative = np.concatenate([[0.0], np.cumsum(gaps * self._rate[:-1])])

    def _reference_time(self, stamp: float) -> float:
        j = int(np.searchsorted(self._starts_arr, stamp, side="right")) - 1
        if j < 0:
            return (stamp - self._starts_arr[0]) * self._rate[0]
        return self._cumulative[j] + max(stamp - self._ends[j], 0.0) * self._rate[j]

    def seconds(self, start: float, end: float) -> float:
        return self._reference_time(end) - self._reference_time(start)

    def summary(self) -> dict:
        """Kernel, sample count and the kernel's median time, for the record."""
        return {"calibration_kernel": type(self._kernel).__name__,
                "calibration_samples": len(self._starts),
                "calibration_ms": round(1e3 * float(np.median(self._speed)), 4)}
