"""A fixed reference kernel, interleaved with the timed work.

This box is a few cores of a shared host whose speed shifts by 10–80 %
over minutes and by 20 % from one quarter second to the next; raw wall
time of CPU-bound work cannot repeat within any bound the benchmark may
set.  The shifts hit a fixed kernel run right beside the work alike
(over ten minutes the raw median of a 0.3 s matching step spread 13 %
between 24-s windows, its ratio to the adjacent kernel runs 3 %), so
CPU-bound timings are reported *at reference speed*::

    seconds × REFERENCE_S ÷ (mean kernel time right before and after)

The kernel is pure Python plus numpy — dict updates, integer
formatting, a sort, a bincount — the same mix as the repo's own
blocking and scoring code, and touches nothing of ``repro``: a change
to the program cannot move it.
"""

from __future__ import annotations

import bisect
import time
from typing import List

import numpy

#: the kernel's time on the box ``baseline.json`` was taken on, in a
#: calm phase; only a unit: figures read as seconds on that box
REFERENCE_S = 0.1

#: samples taken on either side of an interval.  The box's fast noise
#: is correlated over ~0.5 s and gone after 2 s, its drift takes tens
#: of seconds: two samples a side average the first and follow the second
NEAR = 2

#: work seconds after which a tick samples again, so that a run of
#: tiny steps shares its samples instead of paying for each
EVERY_S = 0.25

_VALUES = numpy.random.default_rng(0).integers(0, 1 << 20, size=600_000)


def kernel() -> float:
    """Run the fixed kernel once; its wall seconds."""
    begun = time.perf_counter()
    counts: dict = {}
    digits = 0
    for i in range(300_000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
        digits += len(str(i))
    numpy.sort(_VALUES)
    numpy.bincount(_VALUES & 1023)
    numpy.unique(_VALUES[:100_000])
    return time.perf_counter() - begun


class Reference:
    """Kernel samples on the run's timeline.

    Call :meth:`tick` between timed steps; :meth:`at_reference` then
    converts a step's interval with the ``NEAR`` samples on either side.
    """

    def __init__(self, runs: int = 1) -> None:
        #: kernel runs averaged into one sample: more where steps are
        #: long and ticks therefore few
        self.runs = runs
        self._ends: List[float] = []
        self._seconds: List[float] = []

    def tick(self, force: bool = False) -> None:
        if (force or not self._ends
                or time.perf_counter() - self._ends[-1] >= EVERY_S):
            self._seconds.append(
                sum(kernel() for _ in range(self.runs)) / self.runs)
            self._ends.append(time.perf_counter())

    def speed(self, begun: float, ended: float) -> float:
        """Kernel seconds around ``[begun, ended]`` ÷ ``REFERENCE_S``."""
        after = bisect.bisect_left(self._ends, ended)
        before = bisect.bisect_right(self._ends, begun)
        near = self._seconds[max(0, before - NEAR):after + NEAR]
        return sum(near) / len(near) / REFERENCE_S

    def at_reference(self, begun: float, ended: float) -> float:
        return (ended - begun) / self.speed(begun, ended)

    @property
    def median_speed(self) -> float:
        ordered = sorted(self._seconds)
        return ordered[len(ordered) // 2] / REFERENCE_S
