"""Adaptive micro-batch formation for the ingestion driver.

A batch is emitted when the first of three triggers fires:

* **size** — the pending buffer reached ``max_batch`` elements;
* **deadline** — the oldest pending element has waited ``max_delay``
  wall-clock seconds (bounds formation latency under a trickle);
* **watermark** — the global event-time watermark advanced at least
  ``watermark_stride`` units past the last flush (aligns batch boundaries
  with event-time progress, e.g. for watermark-driven expiry).

The batcher is deliberately synchronous and pure (wall-clock instants and
watermarks are passed in), so its trigger behaviour is directly unit- and
property-testable; the asyncio plumbing lives in
:class:`~repro.ingest.driver.IngestDriver`.  Trigger counts, batch sizes and
formation latencies are recorded on the shared
:class:`~repro.runtime.context.IngestStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.ingest.sources import StreamElement
from repro.runtime.context import IngestStats

#: Trigger labels recorded in ``IngestStats.triggers``.
TRIGGER_SIZE = "size"
TRIGGER_DEADLINE = "deadline"
TRIGGER_WATERMARK = "watermark"
TRIGGER_DRAIN = "drain"


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of adaptive batch formation.

    ``max_batch`` must be positive; ``max_delay`` (seconds) and
    ``watermark_stride`` (event-time units) are optional triggers — ``None``
    disables them, leaving pure size-triggered batching.
    """

    max_batch: int = 64
    max_delay: Optional[float] = None
    watermark_stride: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.max_delay is not None and self.max_delay <= 0:
            raise ValueError(f"max_delay must be positive, got {self.max_delay}")
        if self.watermark_stride is not None and self.watermark_stride <= 0:
            raise ValueError(
                f"watermark_stride must be positive, got {self.watermark_stride}")


class AdaptiveBatcher:
    """Size / deadline / watermark triggered micro-batch formation."""

    def __init__(self, policy: BatchPolicy, stats: IngestStats,
                 queue_depth: Optional[Callable[[], int]] = None) -> None:
        self.policy = policy
        self.stats = stats
        #: Probe for the arrival-queue depth at emit time (the driver wires
        #: its bounded queue's ``qsize`` in; standalone use reports 0).
        self.queue_depth = queue_depth or (lambda: 0)
        self._pending: List[StreamElement] = []
        self._first_enqueue: Optional[float] = None
        self._last_flush_watermark = -math.inf

    @property
    def pending(self) -> int:
        """Number of elements waiting for a trigger."""
        return len(self._pending)

    def pending_elements(self) -> List[StreamElement]:
        """Snapshot of the waiting elements (checkpoint serialisation)."""
        return list(self._pending)

    def add(self, element: StreamElement,
            now: float) -> Optional[List[StreamElement]]:
        """Buffer one released element; returns a batch on the size trigger."""
        if not self._pending:
            self._first_enqueue = now
        self._pending.append(element)
        if len(self._pending) >= self.policy.max_batch:
            return self._emit(now, TRIGGER_SIZE)
        return None

    def poll(self, now: float,
             watermark: float) -> Optional[List[StreamElement]]:
        """Check the deadline and watermark triggers (after adds/timeouts)."""
        if not self._pending:
            # Track watermark progress even while idle so a later trickle is
            # not flushed immediately by a stride crossed long ago.
            if self.policy.watermark_stride is not None:
                self._last_flush_watermark = max(self._last_flush_watermark,
                                                 watermark)
            return None
        if (self.policy.max_delay is not None
                and self._first_enqueue is not None
                and now - self._first_enqueue >= self.policy.max_delay):
            return self._emit(now, TRIGGER_DEADLINE)
        if self.policy.watermark_stride is not None:
            # The stride is measured from the last flush, but never from
            # before the pending batch started: a batch closes once the
            # watermark has advanced ``watermark_stride`` units past its
            # first event.
            baseline = max(self._last_flush_watermark,
                           self._pending[0].event_time)
            if watermark - baseline >= self.policy.watermark_stride:
                return self._emit(now, TRIGGER_WATERMARK, watermark=watermark)
        return None

    def time_until_due(self, now: float) -> Optional[float]:
        """Seconds until the deadline trigger fires (None = no deadline)."""
        if self.policy.max_delay is None or not self._pending:
            return None
        assert self._first_enqueue is not None
        return max(0.0, self._first_enqueue + self.policy.max_delay - now)

    def flush(self, now: float,
              trigger: str = TRIGGER_DRAIN) -> Optional[List[StreamElement]]:
        """Emit whatever is pending (drain path); None when empty."""
        if not self._pending:
            return None
        return self._emit(now, trigger)

    def _emit(self, now: float, trigger: str,
              watermark: Optional[float] = None) -> List[StreamElement]:
        batch = self._pending
        self._pending = []
        latency = 0.0 if self._first_enqueue is None else now - self._first_enqueue
        self._first_enqueue = None
        if watermark is not None:
            self._last_flush_watermark = watermark
        elif batch:
            self._last_flush_watermark = max(self._last_flush_watermark,
                                             batch[-1].event_time)
        self.stats.record_batch(size=len(batch), latency=latency,
                                queue_depth=self.queue_depth(),
                                trigger=trigger)
        return batch
