"""Host-speed reference loop for normalising host times.

On the shared 2-core host this benchmark was built on, the speed of the same
Python code drifts by up to 25% over a few seconds with no CPU steal, so raw
host seconds of identical work spread by 15-35% between 30-second runs. The
benchmark therefore times a fixed reference loop right before and after each
measurement and scales the measurement by ``REF_S / loop seconds``: the
result is host seconds at the speed at which the loop takes ``REF_S``.

The loop does the kind of interpreter work dvfsim does (small frozen
dataclasses, ``math.exp``, a list that grows, float formatting and a join),
because a plain arithmetic loop tracked the program's speed poorly. In seven
25-second windows of ``sparse_stepped`` passes, the median raw pass time
ranged over 35% of its median and the normalised one over 6%. See
bench/README.md for the spread over ten seeds per workload.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass

REF_S = 0.015  # the loop's time on the reference host (Xeon, 2.1 GHz) when it is quiet
_ITERATIONS = 8000


@dataclass(frozen=True)
class _Point:
    t: float
    v: float


def _step(p: _Point, x: float) -> _Point:
    return _Point(p.t + x, p.v * 0.5 + math.exp(-x))


def reference_loop() -> float:
    """Seconds taken by a fixed amount of dvfsim-like interpreter work.

    The cyclic garbage collector is off inside the loop: otherwise its time
    would grow with whatever the calling process keeps alive, and a program
    that retained more memory would seem to run on a slower host.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        points = []
        p = _Point(0.0, 1.0)
        for i in range(_ITERATIONS):
            p = _step(p, (i % 97) * 0.01)
            points.append(p)
        "\n".join(f"{q.t!r},{q.v!r}" for q in points)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Normaliser:
    """Scales each measurement by the host speed seen just before and after it."""

    def __init__(self):
        self._before = reference_loop()

    def scale(self, seconds: float) -> float:
        after = reference_loop()
        factor = REF_S / ((self._before + after) / 2.0)
        self._before = after
        return seconds * factor
