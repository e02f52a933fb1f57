"""Host-speed calibration: a fixed kernel timed all along a run.

The benchmark runs on shared hosts whose speed drifts by tens of percent over
seconds and by up to 2x over minutes, for every process alike.  So a run
times, every EVERY_S seconds, a fixed kernel of the benchmark's own:
fraction-free Gaussian elimination on fixed seeded 20x20 integer matrices,
the mix of big-integer arithmetic and list indexing that the program's Smith
and Bareiss routines do.  The kernel never changes and imports nothing from
critgroup, so a change to the program cannot move it.

The samples are taken from a SIGALRM handler, in the benchmark's one thread,
so that they also fall inside ops that last seconds.  The time they take is
counted in ``Calibrator.spent`` and taken out of the op times.

A time ``t`` measured while the kernel takes ``c`` seconds on average is
reported as ``t * REFERENCE_S / c``: the seconds ``t`` would have taken at
the host speed at which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import workloads

# The kernel's time on the 2-vCPU Xeon VM that the first numbers came from,
# in a fast phase.  Only ratios of reported times matter; this constant just
# keeps them near the seconds that such a host shows.
REFERENCE_S = 0.0025
# Seconds between two kernel samples.
EVERY_S = 0.5
# Kernel passes per sample; the sample is their median, so that one pass
# slowed by a cold cache or an interrupt does not count.
PASSES = 5

_rng = random.Random(20170729)
_MATRICES = [workloads.dense_matrix(_rng, 20) for _ in range(4)]


def kernel_seconds() -> float:
    """Time one pass of the fixed kernel."""
    t0 = perf_counter()
    for rows in _MATRICES:
        workloads.bareiss_determinant(rows)
    return perf_counter() - t0


class Calibrator:
    """Kernel samples taken along a run, to scale the times measured meanwhile."""

    def __init__(self, every: float = EVERY_S):
        self.every = every
        self.samples: list[float] = []  # kernel seconds, in the order taken
        self.spent = 0.0  # seconds spent taking samples
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a timer signal that arrived during a sample
            return
        self._busy = True
        t0 = perf_counter()
        self.samples.append(statistics.median(kernel_seconds() for _ in range(PASSES)))
        self.spent += perf_counter() - t0
        self._busy = False

    @contextmanager
    def running(self):
        """Take a sample every ``every`` seconds until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def since(self, start: int) -> float:
        """Reference seconds per measured second, from the samples taken since
        index ``start``; takes one now if there are none."""
        if len(self.samples) <= start:
            self.sample()
        return REFERENCE_S / statistics.fmean(self.samples[start:])
