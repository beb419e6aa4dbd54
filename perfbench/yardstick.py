"""Machine-speed yardstick: timings scaled to a reference speed.

On a host whose processor cores are shared with others (the 2-vCPU Xeon
the bounds were sized on), speed drifts by up to 1.6x over tens of
seconds and jumps within tens of milliseconds: a fixed CPU loop slows down
as much in thread CPU time as in wall time, so the drift is in the
processor, not in scheduling.  Raw wall times then spread more from run
to run than any bound a regression check can use.

The yardstick is a fixed pure-Python kernel made of the kinds of work
cycone does (``Fraction`` arithmetic, tuple-keyed dicts, string formatting
and splitting, ``json``); it imports nothing from cycone, so a change to
cycone does not move it.  It is timed between requests, at most
``EVERY_S`` apart, and the wall time of the requests between two samples
is multiplied by ``REF_S`` over the mean of those two kernel times.  A
reported time is therefore the time the work would take on a machine,
running at a steady speed, on which the kernel takes ``REF_S``.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.0005  # the kernel's time at the reference speed: near its fastest on that host
EVERY_S = 0.005  # the longest gap between samples, when requests are shorter than it


def kernel(n: int = 60):
    acc = Fraction(0)
    table = {}
    for i in range(1, n + 1):
        acc += Fraction(i % 13 - 6, i % 7 + 1) * Fraction(i % 5 + 1, 3)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + i * i % 97
        text = "O(%d)+SymT(%d,%d)" % (i, i % 4, -i)
        text.replace("+", " ").split()
    json.dumps(sorted(table.items()))
    return acc


class Yardstick:
    """Samples of the kernel's time; the scale from wall time to reference time."""

    def __init__(self):
        self.times = []
        for _ in range(3):  # the first calls are slower
            self.sample()

    def sample(self) -> float:
        t0 = perf_counter()
        kernel()
        self.last = perf_counter()
        self.times.append(self.last - t0)
        return self.times[-1]

    def due(self) -> bool:
        return perf_counter() - self.last >= EVERY_S

    def scale(self) -> float:
        """The scale for the work done since the last sample; takes the closing sample."""
        before = self.times[-1]
        return 2 * REF_S / (before + self.sample())

    def speed(self, first: int = 0) -> float:
        """Median machine speed from sample ``first`` on, relative to the reference speed."""
        return REF_S / statistics.median(self.times[first:] or self.times)
