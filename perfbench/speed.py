"""A speed probe for a shared machine, and a sampler that runs it while a
block of code runs.  `run.py` divides times by the mean probe time, so
that a change in the machine's speed moves both parts of the ratio.

This module imports only the standard library modules it needs, so that
the set-up probe can start sampling early in a fresh interpreter.
"""

import signal
import statistics
import time

# Four products of a 6 x 6 integer matrix, about 0.3 ms.
SPEED_MATRIX = [[(i * 7 + j * 3) % 11 - 5 for j in range(6)] for i in range(6)]
SPEED_REPS = 4
# Sampling period: the probe adds about 1 % to the sampled time.
SPEED_PERIOD = 0.025
# The probe time of the machine that `setup_s` is scaled to (see run.py).
SPEED_REFERENCE = 0.0003


def speed_probe():
    """Wall time of a fixed pure-Python job that does not touch dgforge:
    small integer matrix products and tuple building, the operations the
    library spends its time on."""
    a = SPEED_MATRIX
    t0 = time.perf_counter()
    for _ in range(SPEED_REPS):
        b = [tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*a)) for row in a]
    t1 = time.perf_counter()
    if len(b) != len(a):
        raise AssertionError("speed probe lost rows")
    return t1 - t0


class SpeedSampler:
    """Runs `speed_probe` every SPEED_PERIOD seconds of wall time, from a
    SIGALRM handler, while the block runs.  The speed of a shared machine
    drifts by up to a factor of two within seconds; the mean probe time
    over a block follows the speed the block ran at."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(speed_probe())

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD, SPEED_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def mean(self):
        return statistics.fmean(self.samples or [speed_probe()])
