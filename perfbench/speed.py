"""Machine-speed probes: fixed work timed between the ops of a run.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within a minute, with the same code and inputs.  A run
therefore times, between its ops, work that uses no code of the library:

* the kernel, in the benchmark's own process: an interpreter loop, a double
  `eigvalsh` and an 80-bit elimination written as a Python loop over NumPy
  rows, the three kinds of work the library ops do;
* the spawn probe: a fresh interpreter that imports numpy and scipy.special,
  as the library does, runs the kernel once and prints a line, timed from
  spawn to that line, as set-up and CLI ops are.

Each timed interval is then scaled to nominal speed: multiplied by the
probe's nominal time over the median of the probe samples nearest to it in
time.  A change in the library moves the scaled times; a slow spell of the
host moves the interval and the probe samples around it alike.  The raw
times are reported next to the scaled ones.

    python3 perfbench/speed.py     # one spawn-probe child; prints "ready"
"""

from __future__ import annotations

import bisect
import statistics
from collections.abc import Callable
from time import perf_counter

import numpy as np

#: Median time of one kernel, and of one spawn probe, on the machine the
#: bounds were set on (2 vCPUs of a shared Intel Xeon host, one BLAS thread).
#: They are only scales, so that scaled timings read as seconds there.
NOMINAL_KERNEL_S = 0.016
NOMINAL_SPAWN_S = 0.45
#: Seconds between probe samples while ops run.
KERNEL_INTERVAL_S = 0.25
SPAWN_INTERVAL_S = 1.5
#: Samples on each side of an op whose median scales it.  A set-up has one
#: spawn-probe sample on each side and is scaled by those two alone: over the
#: seconds a run spends on set-ups, spawn time swung by half.
WINDOW = 4
SETUP_WINDOW = 1
WARMUP = 3

_PY_LOOP = 60_000
_EIG_N = 320
_LU_N = 100


class Kernel:
    """The fixed work: its inputs are built once, outside the timing."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((_EIG_N, _EIG_N))
        self._sym = a + a.T
        b = rng.standard_normal((_LU_N, _LU_N)).astype(np.longdouble)
        self._lu = b + _LU_N * np.eye(_LU_N, dtype=np.longdouble)

    def timed(self) -> float:
        """Run the kernel once; return its wall time."""
        start = perf_counter()
        total = 0
        for i in range(_PY_LOOP):
            total += i * i
        np.linalg.eigvalsh(self._sym)
        x = self._lu.copy()
        for k in range(_LU_N - 1):
            x[k + 1:, k] /= x[k, k]
            x[k + 1:, k + 1:] -= np.outer(x[k + 1:, k], x[k, k + 1:])
        return perf_counter() - start


class SpeedProbe:
    """Takes samples of one probe on demand; scales intervals by nearby samples.

    take() runs the probe once and returns its time in seconds.
    """

    def __init__(self, take: Callable[[], float], nominal_s: float, interval_s: float) -> None:
        self._take = take
        self.nominal_s = nominal_s
        self.interval_s = interval_s
        self.times: list[float] = []  # start of each sample
        self.samples: list[float] = []  # its duration
        self.spent_s = 0.0
        for _ in range(WARMUP):
            take()

    def sample(self) -> None:
        start = perf_counter()
        elapsed = self._take()
        self.times.append(start)
        self.samples.append(elapsed)
        self.spent_s += perf_counter() - start

    def maybe_sample(self) -> None:
        """Sample if interval_s has passed since the last sample began."""
        if not self.times or perf_counter() - self.times[-1] >= self.interval_s:
            self.sample()

    def factor_at(self, t: float, window: int) -> float:
        """Nominal time over the median of the window samples on each side of t."""
        i = bisect.bisect(self.times, t)
        return self.nominal_s / statistics.median(self.samples[max(0, i - window):i + window])

    def scale(self, starts, durations, window: int = WINDOW) -> list[float]:
        """Durations of intervals beginning at starts, at nominal speed."""
        return [d * self.factor_at(t, window) for t, d in zip(starts, durations)]


if __name__ == "__main__":
    import scipy.special  # noqa: F401  (the library imports it too)

    Kernel().timed()
    print("ready", flush=True)
