"""Wall time scaled by the CPU speed measured during it.

On a shared host the speed of one vCPU changes in phases of seconds to
minutes, by 1.6x and more, depending on what its neighbours do. That swamps
run-to-run comparisons of raw wall time. ``Clock.timed`` therefore samples
the speed of the vCPU while the timed work runs. A timer signal interrupts
the work every SAMPLE_INTERVAL_S. The handler times four fixed probes of
well under a millisecond each, none of it glucast code:

* ``python``: an interpreter loop;
* ``numpy``: small-array numpy calls (dispatch-bound, like the tape);
* ``gemm``: a float64 matrix product (BLAS-bound);
* ``memory``: a 4 MB array copy (memory-bandwidth-bound).

Each probe's speed factor is its nominal time over the median of its samples
(taken just before, during and just after the work). The scaled time is the
wall time, less the time spent in probes, times the mean of the four
factors (``Timing.factor``). That is the time the work would have taken with
every probe at its nominal speed. ``Clock.probes`` keeps the interval of
every probe that ran inside timed work, so that a traced span can leave out
the probes that interrupted it. Equal weights fit all three workloads about equally well in
trial runs (per-workload weights fitted better only on the runs they were
fitted to). Raw wall seconds are kept next to the scaled ones.

The handler runs between bytecodes of the main thread and touches only the
probe's own arrays, so it cannot change a result of the timed work.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

SAMPLE_INTERVAL_S = 0.1
# probe times on a quiet vCPU of the 2-vCPU Xeon VM this benchmark was tuned on
NOMINAL_S = {"python": 0.00027, "numpy": 0.00013, "gemm": 0.00016, "memory": 0.00037}


class Timing:
    raw = 0.0     # wall seconds
    scaled = 0.0  # seconds at nominal probe speed, probe time excluded
    factor = 1.0  # scaled seconds per wall second outside the probes


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = np.zeros(32)
        self._a = rng.normal(size=(50, 128))
        self._b = rng.normal(size=(128, 512))
        self._c = np.empty((50, 512))
        self._src = rng.normal(size=500_000)
        self._dst = np.empty_like(self._src)
        self.probes = []  # (start ns, end ns) of each probe run inside timed work

    def _python(self):
        acc = 0
        for i in range(4_000):
            acc += i * i
        return acc

    def _numpy(self):
        x = self._x
        for _ in range(60):
            x = np.tanh(x + 0.5) * 0.9
        return x

    def _gemm(self):
        np.matmul(self._a, self._b, out=self._c)

    def _memory(self):
        np.copyto(self._dst, self._src)

    def sample(self):
        """One probe of each kind: {kind: seconds}."""
        times = {}
        for kind, probe in (("python", self._python), ("numpy", self._numpy),
                            ("gemm", self._gemm), ("memory", self._memory)):
            start = time.perf_counter()
            probe()
            times[kind] = time.perf_counter() - start
        return times

    @contextmanager
    def timed(self):
        timing = Timing()
        samples = [self.sample() for _ in range(3)]
        in_probe = [0.0]

        def on_timer(signum, frame):
            start = time.perf_counter_ns()
            samples.append(self.sample())
            end = time.perf_counter_ns()
            self.probes.append((start, end))
            in_probe[0] += (end - start) / 1e9

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.raw = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            samples += [self.sample() for _ in range(3)]
            timing.factor = statistics.mean(
                nominal / statistics.median(s[kind] for s in samples)
                for kind, nominal in NOMINAL_S.items())
            timing.scaled = (timing.raw - in_probe[0]) * timing.factor
