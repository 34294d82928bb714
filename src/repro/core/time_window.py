"""Time-based sliding windows — the extension sketched in Section 2.1.

The paper adopts the count-based sliding window model and notes that the
approach "can be easily extended to the time-based one, by assuming that
more than one tuple arrives at a new timestamp".  This module provides that
extension: a :class:`TimeBasedWindow` keeps every record whose arrival time
lies within the last ``duration`` time units, so several records may arrive
at the same timestamp and several may expire at once.

:class:`TimeBatchedStream` groups an ordinary record sequence into
per-timestamp batches, which is how the engine-facing helpers feed a
time-based workload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.tuples import Record, Schema


@dataclass
class TimeBasedWindow:
    """A sliding window keeping items whose timestamp is within ``duration``.

    ``advance_to(now)`` moves the window's right edge to ``now`` and returns
    the expired items (those with ``timestamp <= now - duration``).  Items
    must be inserted in non-decreasing timestamp order, as in a stream.
    """

    duration: int
    _items: Deque = field(default_factory=deque, repr=False)
    _by_key: Dict = field(default_factory=dict, repr=False)
    current_time: int = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"window duration must be positive, got {self.duration}")

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def insert(self, item, timestamp: Optional[int] = None) -> List:
        """Insert one item at ``timestamp`` (defaults to ``item.timestamp``).

        Returns the list of items expired by advancing time to ``timestamp``.
        """
        arrival = item.timestamp if timestamp is None else timestamp
        if arrival < self.current_time:
            raise ValueError(
                f"out-of-order arrival: {arrival} < current time {self.current_time}")
        expired = self.advance_to(arrival)
        self._items.append((arrival, item))
        self._by_key[(item.rid, item.source)] = item
        return expired

    def advance_to(self, now: int) -> List:
        """Advance the window to time ``now``, returning the expired items."""
        if now < self.current_time:
            raise ValueError(
                f"time cannot move backwards: {now} < {self.current_time}")
        self.current_time = now
        cutoff = now - self.duration
        expired = []
        while self._items and self._items[0][0] <= cutoff:
            _, item = self._items.popleft()
            self._by_key.pop((item.rid, item.source), None)
            expired.append(item)
        return expired

    def get(self, rid: str, source: str):
        """Look up an in-window item by record identity (None if absent)."""
        return self._by_key.get((rid, source))

    def items(self) -> List:
        """Snapshot of the window content, oldest first (without timestamps)."""
        return [item for _, item in self._items]

    def timestamps(self) -> List[int]:
        """Arrival timestamps of the in-window items, oldest first."""
        return [arrival for arrival, _ in self._items]


@dataclass
class TimeBatchedStream:
    """Groups records into per-timestamp batches for time-based processing.

    ``arrivals_per_tick`` records share each logical timestamp; the batches
    are what a time-based TER-iDS deployment would process per tick.
    """

    schema: Schema
    records: Sequence[Record]
    arrivals_per_tick: int = 2

    def __post_init__(self) -> None:
        if self.arrivals_per_tick <= 0:
            raise ValueError("arrivals_per_tick must be positive")

    def batches(self) -> Iterator[Tuple[int, List[Record]]]:
        """Yield ``(timestamp, records)`` batches in arrival order."""
        batch: List[Record] = []
        tick = 0
        for record in self.records:
            batch.append(record.with_timestamp(tick))
            if len(batch) == self.arrivals_per_tick:
                yield tick, batch
                batch = []
                tick += 1
        if batch:
            yield tick, batch

    def tick_count(self) -> int:
        """Number of logical timestamps the stream spans."""
        full, remainder = divmod(len(self.records), self.arrivals_per_tick)
        return full + (1 if remainder else 0)


def run_time_based(engine, stream: TimeBatchedStream, window_duration: int):
    """Drive a :class:`~repro.core.engine.TERiDSEngine` with time-based batches.

    The engine's own count-based windows still bound memory; this helper
    additionally maintains a time-based view and removes from the engine's
    result set every pair involving a time-expired tuple, so the reported
    result set follows time-based semantics.  Returns the list of all match
    pairs found (before time-based eviction), mirroring ``TERiDSEngine.run``.
    """
    window = TimeBasedWindow(duration=window_duration)
    retract = engine.pipeline.maintenance.retract
    all_matches = []
    for timestamp, batch in stream.batches():
        for record in batch:
            all_matches.extend(engine.process(record))
            retract(window.insert(record, timestamp))
    return all_matches
