"""Host-speed reference for the quatnev benchmark.

The benchmark runs on shared hosts whose speed changes by tens of
percent from one minute to the next, for a fixed amount of work, and not
by the same factor for all code: interpreter-bound code on small arrays
swings more than memory-bound code on large ones.  So each workload has a
probe kernel that does the same kind of work as its hot layer but never
calls quatnev: ``small_kernel`` for the root finder, ``sample_kernel`` for
sampling and stem evaluation over many points.

``HostClock`` times its kernel every ``PERIOD_S`` of wall time, from a
timer signal, so the probes sample the host evenly, inside long ops too,
without a second thread.  ``HostClock.slowdown(start, end)`` is the factor
by which the host ran the kernel slower than nominal between two
instants.  A time divided by it is in reference seconds: the time the work
would have taken on a host that runs the kernel in its ``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import numpy.polynomial.polynomial as npoly

_COEFFS = np.random.default_rng(20260).standard_normal(25) + 0j
_Z0 = 1.3 * np.exp(2j * np.pi * (np.arange(24) + 0.353) / 24)
_SAMPLE_POINTS = 16384
_CUBIC = np.random.default_rng(20261).standard_normal((4, 4))


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def small_kernel() -> float:
    """Root iteration on a degree-24 polynomial and Python bookkeeping:
    small arrays, interpreter-bound, like the divisor layer."""
    z = _Z0.copy()
    dc = npoly.polyder(_COEFFS)
    for _ in range(6):
        w = npoly.polyval(z, _COEFFS) / npoly.polyval(z, dc)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        z = z - w / (1.0 - w * (1.0 / diff).sum(axis=1))
    tally: dict = {}
    for k in range(600):
        key = f"k{k % 13}"
        tally[key] = tally.get(key, 0.0) + k * 0.5
    return float(np.abs(z).sum()) + sum(tally.values())


def sample_kernel() -> float:
    """Philox sampling on the sphere and Horner evaluation of a cubic left
    polynomial with quaternion products over 16384 points: large arrays,
    like sampling and stem evaluation in the Monte-Carlo layers."""
    x = np.random.Generator(np.random.Philox(key=11)).standard_normal((_SAMPLE_POINTS, 4))
    x /= np.sqrt((x * x).sum(axis=1))[:, None]
    q = (1.3 * x).T
    acc = np.broadcast_to(_CUBIC[3][:, None], (4, _SAMPLE_POINTS))
    for k in (2, 1, 0):
        acc = _hamilton(q, acc) + _CUBIC[k][:, None]
    return float(np.log(np.sqrt((acc * acc).sum(axis=0))).mean())


# Median time of each kernel on the 2-core x86-64 VM where the benchmark
# was defined.  They fix the scale of reference seconds; they are
# constants so that runs of different commits, at different times, share
# the scale.
NOMINAL_S = {small_kernel: 1.1e-3, sample_kernel: 3.8e-3}
PERIOD_S = 0.25
_REPEATS = 3


def probe(kernel) -> float:
    """Median wall time of a few runs of ``kernel``, in seconds."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Probes the host with ``kernel`` every ``PERIOD_S`` while entered.

    The probes run in the main thread, from SIGALRM, between two bytecodes
    of whatever runs then.  ``spent`` is the wall time they took, which
    callers subtract from the intervals they time.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.times: list = []
        self.values: list = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def tick(self, *_signal) -> None:
        """Take one probe now (also the SIGALRM handler)."""
        if self._busy:  # a timer signal during a probe
            return
        self._busy = True
        start = time.perf_counter()
        self.times.append(start)
        self.values.append(probe(self.kernel))
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "HostClock":
        probe(self.kernel)  # the first probe pays one-time costs
        self.tick()
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe between two instants over the nominal probe; with no
        probe between them, the probes just before and just after."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        near = self.values[lo:hi] or self.values[max(lo - 1, 0):lo + 1]
        return statistics.fmean(near) / NOMINAL_S[self.kernel]
