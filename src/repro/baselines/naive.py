"""The straightforward (index-free) TER-iDS method of Section 2.3.

For each newly arriving tuple the straightforward method

1. collects *all* CDD rules whose dependent attribute is missing in the
   tuple (no CDD-index),
2. scans the *whole* repository for samples satisfying each rule (no
   DR-index),
3. compares the imputed tuple against *every* in-window tuple of the other
   streams and evaluates the exact TER-iDS probability (no ER-grid, no
   pruning bounds).

It is the shared skeleton of the ``CDD+ER``, ``DD+ER``, ``er+ER`` and
``con+ER`` baselines, which differ only in the imputation component plugged
into it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Protocol

from repro.core.config import TERiDSConfig
from repro.core.matching import (
    EntityResultSet,
    MatchPair,
    ter_ids_probability,
)
from repro.core.stream import SlidingWindow
from repro.core.tuples import ImputedRecord, Record


class Imputer(Protocol):
    """Anything that can impute one record."""

    def impute(self, record: Record) -> ImputedRecord:  # pragma: no cover - protocol
        ...


@dataclass
class NestedLoopMatcher:
    """Exact pairwise matcher over per-stream sliding windows (no synopsis)."""

    config: TERiDSConfig
    windows: Dict[str, SlidingWindow] = field(default_factory=dict)
    pairs_evaluated: int = 0

    def _window_for(self, source: str) -> SlidingWindow:
        window = self.windows.get(source)
        if window is None:
            window = SlidingWindow(capacity=self.config.window_size)
            self.windows[source] = window
        return window

    def expire_and_insert(self, imputed: ImputedRecord) -> Optional[ImputedRecord]:
        """Insert the tuple into its stream's window, returning the evicted one."""
        window = self._window_for(imputed.source)
        return window.insert(imputed)

    def candidates(self, imputed: ImputedRecord) -> List[ImputedRecord]:
        """Every in-window tuple of the *other* streams."""
        out: List[ImputedRecord] = []
        for source, window in self.windows.items():
            if source == imputed.source:
                continue
            out.extend(window.items())
        return out

    def match(self, imputed: ImputedRecord,
              candidates: Iterable[ImputedRecord]) -> List[MatchPair]:
        """Exact Equation (2) evaluation of the tuple against each candidate."""
        keywords: FrozenSet[str] = self.config.keywords
        gamma = self.config.gamma
        alpha = self.config.alpha
        matches: List[MatchPair] = []
        for candidate in candidates:
            self.pairs_evaluated += 1
            probability = ter_ids_probability(imputed, candidate, keywords, gamma)
            if probability > alpha:
                matches.append(MatchPair(
                    left_rid=imputed.rid,
                    left_source=imputed.source,
                    right_rid=candidate.rid,
                    right_source=candidate.source,
                    probability=probability,
                    timestamp=imputed.timestamp,
                ))
        return matches


@dataclass
class BaselineReport:
    """Result of running a baseline pipeline over a workload."""

    method: str
    matches: List[MatchPair]
    timestamps_processed: int
    total_seconds: float
    pairs_evaluated: int
    imputation_seconds: float = 0.0
    er_seconds: float = 0.0

    @property
    def mean_seconds_per_timestamp(self) -> float:
        return self.total_seconds / max(1, self.timestamps_processed)


class StraightforwardTERiDS:
    """The index-free baseline skeleton with a pluggable imputer.

    ``observe_stream`` controls whether complete stream tuples are fed to the
    imputer as donors (needed by the ``con+ER`` stream-neighbour imputer).
    """

    def __init__(self, config: TERiDSConfig, imputer: Imputer,
                 method_name: str = "straightforward",
                 observe_stream: bool = False) -> None:
        self.config = config
        self.imputer = imputer
        self.method_name = method_name
        self.observe_stream = observe_stream
        self.matcher = NestedLoopMatcher(config=config)
        self.result_set = EntityResultSet()
        self.timestamps_processed = 0
        self.imputation_seconds = 0.0
        self.er_seconds = 0.0

    def process(self, record: Record) -> List[MatchPair]:
        """Impute one arriving tuple and match it against the other windows."""
        self.timestamps_processed += 1
        if self.observe_stream and hasattr(self.imputer, "observe"):
            self.imputer.observe(record)  # type: ignore[attr-defined]

        start = time.perf_counter()
        imputed = self.imputer.impute(record)
        self.imputation_seconds += time.perf_counter() - start

        start = time.perf_counter()
        evicted = self.matcher.expire_and_insert(imputed)
        if evicted is not None:
            self.result_set.remove_record(evicted.rid, evicted.source)
        candidates = self.matcher.candidates(imputed)
        matches = self.matcher.match(imputed, candidates)
        for pair in matches:
            self.result_set.add(pair)
        self.er_seconds += time.perf_counter() - start
        return matches

    def run(self, records: Iterable[Record]) -> BaselineReport:
        """Process a whole record sequence and return a report."""
        start = time.perf_counter()
        matches: List[MatchPair] = []
        for record in records:
            matches.extend(self.process(record))
        total = time.perf_counter() - start
        return BaselineReport(
            method=self.method_name,
            matches=matches,
            timestamps_processed=self.timestamps_processed,
            total_seconds=total,
            pairs_evaluated=self.matcher.pairs_evaluated,
            imputation_seconds=self.imputation_seconds,
            er_seconds=self.er_seconds,
        )
