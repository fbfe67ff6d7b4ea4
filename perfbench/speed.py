"""How fast the box runs while a repetition runs.

The reference box is shared with other tenants, and its speed swings by
a fifth within seconds and by up to 2x over minutes; every timing in a
repetition moves with it.  A :class:`Speedometer` times a fixed piece of
pure-Python work (object allocation, heap and dict traffic, the
simulator's own mix) at points spread through the repetition, and
:meth:`Speedometer.factor` turns the median sample into a correction:
a timing multiplied by it reads as it would on the box at its typical
speed, :data:`REFERENCE_S` per sample.  The work is this file's own, so
no change to ``repro`` moves it.  Time spent sampling is kept apart
(:attr:`Speedometer.spent`) and left out of every measured phase.

A workload's timings do not move one for one with the reference work:
they move as its time to the power of an *elasticity*.  Each elasticity
is the least-squares slope of log time on log median sample time across
the repetitions of one run (so the work is the same), pooled over 20-100
repetitions on a 2-core x86 box with Python 3.11.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

#: Items one sample pushes through the heap and index.
REFERENCE_ITEMS = 1500
#: Wall seconds of one sample on a 2-core x86 box with Python 3.11 at
#: its typical speed.
REFERENCE_S = 0.002
#: Elasticity of each workload's measured phase (wall, or CPU on
#: live-tcp-rw).
ELASTICITY = {
    "core-trace": 0.7,
    "core-plain": 0.7,
    "scale-hot": 0.65,
    # Most of a live request's CPU time is socket system calls, which
    # hardly move with the reference work: the slope within runs is 0.02,
    # so this one is fitted across 15 runs' medians instead.
    "live-tcp-rw": 0.25,
    "core-observed": 0.7,
}
#: Elasticity of set-up (interpreter start, imports, build), against
#: all of the repetition's samples.
SETUP_ELASTICITY = 0.6
#: Elasticity of scale-hot's read probe, a vectorized numpy scan, against
#: samples taken between probes.
SCAN_ELASTICITY = 0.8


class _Item:
    __slots__ = ("key", "rank", "name")

    def __init__(self, key: int, rank: int, name: str) -> None:
        self.key = key
        self.rank = rank
        self.name = name


def reference_work(items: int = REFERENCE_ITEMS) -> int:
    heap: list[tuple[int, int, _Item]] = []
    index: dict[str, _Item] = {}
    rank = 12345
    for key in range(items):
        rank = (rank * 1103515245 + 12345) & 0x7FFFFFFF
        item = _Item(key, rank, str(key))
        heapq.heappush(heap, (rank, key, item))
        index[item.name] = item
        if len(heap) > 256:
            old = heapq.heappop(heap)[2]
            del index[old.name]
    return len(index)


class Speedometer:
    def __init__(self) -> None:
        #: Wall seconds of each sample.
        self.samples: list[float] = []
        #: Wall seconds spent sampling so far.
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            reference_work()
            elapsed = perf_counter() - start
            self.samples.append(elapsed)
            self.spent += elapsed

    def factor(self, elasticity: float = 1.0) -> float:
        """(REFERENCE_S / the median sample) ** elasticity: above 1
        while the box runs fast."""
        if not self.samples:
            return 1.0
        return (REFERENCE_S / statistics.median(self.samples)) ** elasticity
