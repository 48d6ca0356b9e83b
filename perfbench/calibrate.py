"""A fixed calibration kernel, timed between operations.

The speed of a shared host drifts: on the 2-vCPU machine this benchmark was
written on, the same scan operation took 50 ms for tens of seconds and then
95 ms, and a pure-Python loop 19 ms and then 28 ms, with no process of ours
competing.  Sampling more operations in a 30-second run cannot average that
out.  An operation's time divided by the time of this kernel, measured just
before and just after it in the same process, cancels most of it: over
30-second windows of scan operations the median raw time spread 16%
(interquartile range over median) and the median ratio 1.5%.

An operation that runs for seconds can see the host change speed more
than once, which calibration points at its ends cannot follow.  So
``sampling()`` also runs the kernel inside an operation, from a timer
signal every ``SAMPLE_INTERVAL_S``; the kernel's time there is taken out of
the operation's time.  Over repeated 7-second ``analyze`` operations at
m = 600 this cut the coefficient of variation of the normalized time from
0.155 (end points only) to 0.027.

The kernel mixes what the workloads spend their time on: small numpy calls,
a dense LAPACK inverse and JSON encoding.  It never touches mcsum, so a
change to the package moves the ratio and a change of host speed does not.
"""
from __future__ import annotations

import json
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Kernel runs per calibration point; the median is taken.
REPEATS = 3

#: Kernel time that defines the reference host speed for set-up time, which
#: must be reported in seconds: about the kernel's time on the host this was
#: written on.  Only ratios of set-up times are ever compared.
REFERENCE_KERNEL_S = 0.005

#: Seconds between kernel runs inside an operation: about 5% of its time.
SAMPLE_INTERVAL_S = 0.1


class Calibrator:
    def __init__(self):
        g = np.random.default_rng(0)
        self._small = [g.random((10, 10)) + 10.0 * np.eye(10) for _ in range(8)]
        self._dense = g.random((150, 150)) + 150.0 * np.eye(150)
        self._floats = g.random(1500).tolist()
        self._dumps = json.dumps  # bound now: the traced run wraps json.dumps
        self._kernel()  # first LAPACK calls load code; keep that out of samples

    def _kernel(self) -> None:
        for i in range(200):
            a = self._small[i % 8]
            np.linalg.solve(a, a.sum(axis=1))
        self._dumps(self._floats, indent=2)
        np.linalg.inv(self._dense)

    def measure(self) -> float:
        """Median wall time of REPEATS kernel runs, in seconds."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    @contextmanager
    def sampling(self):
        """Run the kernel every SAMPLE_INTERVAL_S of the enclosed block, from
        a SIGALRM handler in the main thread.  Yields a list that collects
        the (start, end) perf_counter times of each kernel run; the block did
        no work of its own between them."""
        samples: list[tuple[float, float]] = []

        def handler(signum, frame):
            t0 = time.perf_counter()
            self._kernel()
            samples.append((t0, time.perf_counter()))
            # Re-armed only now, so a slow kernel run cannot queue another.
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
