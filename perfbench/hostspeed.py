"""Host-speed normalisation of the benchmark's timings.

The benchmark shares its machine with other tenants, and the speed of the
same single-threaded Python code drifts by a quarter or more over tens of
seconds.  To keep runs comparable, every run interleaves a fixed
calibration with its work (outside the timed intervals) and divides each
timing by the *host factor* at the instant it was taken: the median of the
calibrations near that instant.  One calibration times four small kernels
that stress what the program's code does — interpreter arithmetic, object
and dict churn, scattered memory reads and short numpy calls — and takes
the geometric mean of each kernel's time over its time at reference speed
(:data:`REFERENCE_S`).  A timing reported in ``ms`` or ``s`` is therefore
milliseconds or seconds at reference speed; the raw wall-clock values are
printed beside the result.

The kernels use only their own data, and the cyclic garbage collector is
off while they run, so the program's state cannot change their speed.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from typing import Callable, Dict, List

import numpy

#: Calibrations within this many seconds of an instant set its host factor.
HALF_WINDOW_S = 0.5
#: Fewest calibrations behind one factor; the nearest ones are used when
#: the window holds fewer.
MIN_SAMPLES = 5

_SCATTER = bytearray(4 << 20)  # larger than a core's private caches
_WORDS = [f"w{index}" for index in range(600)]
_ROWS = numpy.random.default_rng(1).random((160, 64))


def _arithmetic() -> int:
    table = {}
    total = 0
    for step in range(2000):
        total += (step * step) % 7
        table[step & 255] = total
    return total


class _Slot:
    __slots__ = ("index", "word")

    def __init__(self, index: int, word: str) -> None:
        self.index = index
        self.word = word


def _objects() -> int:
    table = {}
    for index, word in enumerate(_WORDS):
        table[word] = _Slot(index, word)
        if index % 4 == 0:
            table.pop(_WORDS[index // 2], None)
    return len(table)


def _scatter() -> int:
    data, mask = _SCATTER, len(_SCATTER) - 1
    position = total = 0
    for _ in range(1750):
        position = (position * 1103515245 + 12345) & mask
        total += data[position]
    return total


def _vectors() -> float:
    rows = _ROWS
    total = 0.0
    for index in range(75):
        total += float(numpy.abs(rows[index] - rows[index + 1]).sum())
    return total


#: Every kernel, with its seconds at reference speed.  The references are
#: fixed constants: only ratios between runs of this benchmark matter.
REFERENCE_S: Dict[Callable, float] = {
    _arithmetic: 0.25e-3,
    _objects: 0.22e-3,
    _scatter: 0.27e-3,
    _vectors: 0.22e-3,
}


def calibrate() -> float:
    """The host factor measured now: 1.0 at reference speed, 2.0 at half."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = []
        for kernel, reference in REFERENCE_S.items():
            kernel()  # warm its data into the caches the program left cold
            start = time.perf_counter()
            kernel()
            logs.append(math.log((time.perf_counter() - start) / reference))
    finally:
        if enabled:
            gc.enable()
    return math.exp(sum(logs) / len(logs))


class HostClock:
    """Calibration samples taken through one run, on ``time.monotonic``."""

    def __init__(self) -> None:
        #: Mid-point instant and host factor of every calibration, in order.
        self.instants: List[float] = []
        self.factors: List[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Calibrate ``repeats`` times now."""
        for _ in range(repeats):
            start = time.monotonic()
            self.factors.append(calibrate())
            self.instants.append(0.5 * (start + time.monotonic()))

    def factor(self, start: float, end: float) -> float:
        """Host slowdown over ``[start, end]`` relative to reference speed:
        the median of the calibrations taken from :data:`HALF_WINDOW_S`
        before ``start`` to as long after ``end`` (at least
        :data:`MIN_SAMPLES` of them, the nearest ones)."""
        instants = self.instants
        if not instants:
            raise RuntimeError("no calibration was taken")
        low = bisect.bisect_left(instants, start - HALF_WINDOW_S)
        high = bisect.bisect_right(instants, end + HALF_WINDOW_S)
        while high - low < min(MIN_SAMPLES, len(instants)):
            # Widen towards the nearer side that still has samples.
            before = start - instants[low - 1] if low > 0 else math.inf
            after = instants[high] - end if high < len(instants) else math.inf
            if before <= after:
                low -= 1
            else:
                high += 1
        return statistics.median(self.factors[low:high])

    def normalise(self, seconds: float, end: float) -> float:
        """``seconds`` that ended at instant ``end``, at reference speed."""
        return seconds / self.factor(end - seconds, end)
