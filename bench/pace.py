"""The machine's current speed, and wall times scaled to a fixed reference speed.

A shared machine changes speed by up to 1.5 times within seconds: a fixed
pure-Python loop has run anywhere from 55 to 95 ms, and repeated 20-second
runs of the same inputs have spread by 29 and 38 percent of their median
(interquartile range).  A program change smaller than that would not show
through it.  So the closed loop times a fixed reference loop of
big-integer arithmetic every 25 ms, between operations, and each latency
is scaled by REFERENCE_MS over the median of the reference timings
nearest to it.  The result is the operation's time at the speed at which
the reference loop takes REFERENCE_MS: a program change moves it, the
machine's speed much less.
Of the loops tried (small-integer arithmetic, tuple and dict building,
big-integer multiply and reduce), the last tracked the slowdowns of every
workload best.  The raw wall times are reported beside the scaled ones.
"""

from bisect import bisect_left
from statistics import median
from time import perf_counter_ns

REFERENCE_MS = 1.0  # the reference loop's time at reference speed
ITERATIONS = 4500  # about REFERENCE_MS on a 2.1 GHz Xeon when it runs fast
EVERY_NS = 25_000_000  # at most one reference timing per 25 ms
NEIGHBOURS = 2  # reference timings on each side of a sample that set its scale


def reference_loop() -> int:
    """Nanoseconds taken by a fixed loop of 400-bit multiply-and-reduce."""
    modulus = 1 << 400
    t0 = perf_counter_ns()
    x = 1
    for i in range(1, ITERATIONS):
        x = x * i % modulus + i
    return perf_counter_ns() - t0


class Pace:
    """Reference timings taken in the course of a run, and scaling by them."""

    def __init__(self):
        self.starts = []  # perf_counter_ns at each reference timing
        self.timings = []  # its duration in nanoseconds

    def tick(self, force=False):
        """Time the reference loop if EVERY_NS have passed since the last timing, or if forced."""
        now = perf_counter_ns()
        if force or not self.starts or now - self.starts[-1] >= EVERY_NS:
            self.starts.append(now)
            self.timings.append(reference_loop())

    def scale(self, start_ns: int, elapsed_ns: int) -> float:
        """``elapsed_ns``, measured from ``start_ns``, in nanoseconds at reference speed."""
        i = bisect_left(self.starts, start_ns)
        near = self.timings[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return elapsed_ns * REFERENCE_MS * 1e6 / median(near)

    def reference_ms(self) -> float:
        """Median reference timing of the run, in milliseconds."""
        return median(self.timings) / 1e6
