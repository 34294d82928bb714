"""Wall-clock timing utilities and the break-up cost report (Figure 6).

The paper reports, for each new timestamp, the average wall-clock time of
the whole TER-iDS step and its break-up into online CDD selection, online
imputation and online ER.  :class:`StageTimer` accumulates per-stage wall
clock time; :class:`BreakupCost` is the per-dataset summary the Figure 6
bench prints.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

#: The single wall-clock source shared by :class:`StageTimer`,
#: :class:`Stopwatch` and the engine's end-to-end ``run`` timing, so every
#: reported duration is comparable.
now = time.perf_counter

#: Stage names used by the TER-iDS engine's break-up cost (Figure 6).
STAGE_CDD_SELECTION = "cdd_selection"
STAGE_IMPUTATION = "imputation"
STAGE_ER = "entity_resolution"
ALL_STAGES = (STAGE_CDD_SELECTION, STAGE_IMPUTATION, STAGE_ER)


@dataclass
class StageTimer:
    """Accumulates wall-clock time per named stage."""

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def measure(self, stage: str) -> Iterator[None]:
        """Context manager accumulating the elapsed time into ``stage``."""
        start = now()
        try:
            yield
        finally:
            elapsed = now() - start
            self.totals[stage] = self.totals.get(stage, 0.0) + elapsed
            self.counts[stage] = self.counts.get(stage, 0) + 1

    def add(self, stage: str, seconds: float) -> None:
        """Manually add elapsed seconds to one stage."""
        self.totals[stage] = self.totals.get(stage, 0.0) + seconds
        self.counts[stage] = self.counts.get(stage, 0) + 1

    def total(self, stage: Optional[str] = None) -> float:
        """Total seconds of one stage (or of all stages)."""
        if stage is None:
            return sum(self.totals.values())
        return self.totals.get(stage, 0.0)

    def mean(self, stage: str) -> float:
        """Mean seconds per measured invocation of one stage."""
        count = self.counts.get(stage, 0)
        if count == 0:
            return 0.0
        return self.totals[stage] / count

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()

    def as_dict(self) -> Dict[str, float]:
        return dict(self.totals)


@dataclass(frozen=True)
class BreakupCost:
    """Per-timestamp average cost of the three online TER-iDS stages."""

    cdd_selection: float
    imputation: float
    entity_resolution: float

    @property
    def total(self) -> float:
        return self.cdd_selection + self.imputation + self.entity_resolution

    def as_dict(self) -> Dict[str, float]:
        return {
            STAGE_CDD_SELECTION: self.cdd_selection,
            STAGE_IMPUTATION: self.imputation,
            STAGE_ER: self.entity_resolution,
        }

    @classmethod
    def from_timer(cls, timer: StageTimer, timestamps: int) -> "BreakupCost":
        """Average the accumulated stage totals over processed timestamps."""
        denominator = max(1, timestamps)
        return cls(
            cdd_selection=timer.total(STAGE_CDD_SELECTION) / denominator,
            imputation=timer.total(STAGE_IMPUTATION) / denominator,
            entity_resolution=timer.total(STAGE_ER) / denominator,
        )


@dataclass
class Stopwatch:
    """A tiny start/stop wall-clock timer used by the experiment harness."""

    _start: Optional[float] = None
    elapsed: float = 0.0

    def start(self) -> "Stopwatch":
        self._start = now()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("stopwatch was not started")
        self.elapsed += now() - self._start
        self._start = None
        return self.elapsed

    def reset(self) -> None:
        self._start = None
        self.elapsed = 0.0

    @contextmanager
    def measure(self) -> Iterator["Stopwatch"]:
        self.start()
        try:
            yield self
        finally:
            self.stop()


def time_callable(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, elapsed_seconds)``."""
    start = now()
    result = fn(*args, **kwargs)
    return result, now() - start
