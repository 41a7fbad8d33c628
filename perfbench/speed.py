"""Machine-speed normalisation of measured intervals.

On a shared machine the speed of a process drifts by tens of percent over
seconds (on a 2-core x86-64 VM one loop took 13 ms, then 25 ms, then 18 ms
within half a minute, with CPU time equal to wall time), far more than the
medians over the epochs and commands of one run can average out. So the benchmark
times a fixed reference loop at points along each command (its start, its
end and every epoch boundary) and scales the command's intervals by
``REF_LOOP_S`` over the median loop time of those samples. The result
reads as seconds on a machine where the loop takes ``REF_LOOP_S``; the time
spent timing the loop is left out of every interval.
"""

import statistics
import time

import numpy as np

# one reference loop, fastest of SAMPLE_REPS, on the 2-core x86-64 VM
# (numpy 2.4, OpenBLAS) where the benchmark was defined
REF_LOOP_S = 3.0e-4
SAMPLE_REPS = 5

_A = np.random.default_rng(0).standard_normal((32, 32)) * 0.1


def reference_loop():
    """Interpreter work plus small numpy calls, the mix emdiff runs."""
    acc = 0
    for i in range(2000):
        acc += i * i
    b = _A
    for _ in range(20):
        b = np.tanh(b @ _A)
    return acc


def loop_seconds(reps=SAMPLE_REPS, clock=time.perf_counter):
    """Seconds taken by the fastest of ``reps`` reference loops."""
    best = float("inf")
    for _ in range(reps):
        t0 = clock()
        reference_loop()
        best = min(best, clock() - t0)
    return best


class Timeline:
    """Speed samples taken at labelled points of one command."""

    def __init__(self, clock=time.perf_counter, sampler=loop_seconds):
        self.points = []        # (label, time, loop seconds, pause)
        self._clock, self._sampler = clock, sampler

    def mark(self, label=""):
        t = self._clock()
        loop = self._sampler()
        self.points.append((label, t, loop, self._clock() - t))

    def intervals(self):
        """(label of the closing point, raw seconds, normalised seconds) of
        each interval between consecutive points, without the sampling
        pause at its start. All intervals of one timeline share one scale,
        from the median loop time, so one disturbed sample cannot distort
        the interval next to it."""
        if len(self.points) < 2:
            return []
        scale = REF_LOOP_S / statistics.median(p[2] for p in self.points)
        out = []
        for (_, t0, _, p0), (label, t1, _, _) in zip(self.points,
                                                     self.points[1:]):
            raw = t1 - t0 - p0
            out.append((label, raw, raw * scale))
        return out

    def total(self):
        """(raw, normalised) seconds from the first point to the last."""
        iv = self.intervals()
        return sum(r for _, r, _ in iv), sum(n for _, _, n in iv)

    def closing(self, labels):
        """Normalised seconds of the intervals that end at a point with one
        of ``labels``, except one that starts at the first point."""
        return [norm for i, (lab, _, norm) in enumerate(self.intervals())
                if lab in labels and i > 0]
