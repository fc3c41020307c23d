"""A fixed pure-Python task timed alongside the measured work.

On a shared host, neighbours slow this process by up to about 2x in bursts
that last from under a second to minutes, so raw wall-clock figures from two
runs of the same code can differ by half.  The burst slows the interpreter
as a whole, this task included.  Timing the task right before and right after
a piece of measured work and dividing by it cancels the burst; multiplying by
the task's nominal duration turns the result back into seconds "at nominal
speed".  The task imports nothing from the library, so a library change moves
the normalised figures in the same proportion as the raw ones.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

# About the duration of one task on an idle 2-vCPU Intel Xeon VM under CPython
# 3.11; it only sets the scale of the reported times.
NOMINAL_S = 3.0e-3


@dataclass(frozen=True, order=True)
class _Vec:
    x: int
    y: int


def _task() -> int:
    # The library's staple operations on a working set of similar size:
    # small frozen dataclasses, 2x2 determinants, tuple sets and sorting.
    rng = random.Random(5)
    vecs = [_Vec(rng.randrange(-99, 99), rng.randrange(-99, 99)) for _ in range(1000)]
    acc = sum(a.x * b.y - a.y * b.x for a, b in zip(vecs, vecs[1:]))
    acc += len({(v.x, v.y) for v in vecs})
    vecs.sort()
    return acc


def sample() -> float:
    """Seconds one run of the task takes now."""
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0


class Reference:
    """Reference samples around consecutive pieces of work.  Each sample is
    shared by the piece before it and the piece after it, which halves the
    time spent sampling; make one per measurement loop, right before it."""

    def __init__(self) -> None:
        self._last = sample()

    def around(self, fn, *args, **kwargs):
        """Run fn after the last sample and before a new one.  Returns (fn's
        result, slowdown), the slowdown being the reference's measured over
        its nominal duration; a raw duration divided by it is the duration at
        nominal speed."""
        before = self._last
        result = fn(*args, **kwargs)
        self._last = sample()
        return result, (before + self._last) / 2 / NOMINAL_S
