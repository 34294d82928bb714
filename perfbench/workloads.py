"""Workload definitions and the passes that drive the engine through them.

A *pass* generates one workload's inputs from the seed (untimed), builds
the engine (timed: ``setup_s``), streams every tuple through it and
resolves in-window entities between batches.  Around the timed calls it
calibrates the host clock (:mod:`perfbench.hostspeed`).  The engine always
runs its default configuration: ``TERiDSEngine(..., executor=
MicroBatchExecutor())`` and, on the paced workload, ``IngestDriver`` with
its default ``BatchPolicy`` and ``process_in_executor`` off.

Two loop shapes:

* **closed** — the whole stream is a backlog, due at the start of the
  pass.  The benchmark hands consecutive chunks of the executor's
  ``batch_size`` to ``engine.process_batch``, each as soon as the previous
  one returned, and resolves a few seeded in-window entities after every
  batch.  Write timings cover only the ``process_batch`` calls: a tuple's
  latency is the ``process_batch`` time spent up to the return of its
  batch.
* **paced** — an open loop: a benchmark-owned source offers tuple ``i`` at
  ``t0 + i / rate`` whatever the engine does, through ``IngestDriver``.
  After every processed batch, ``engine.resolve`` runs on a few in-window
  entities picked by a seeded RNG.
"""

from __future__ import annotations

import asyncio
import gc
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import (
    MicroBatchExecutor,
    Record,
    TERiDSConfig,
    TERiDSEngine,
    generate_dataset,
)
from repro.ingest import IngestDriver
from repro.ingest.sources import StreamElement

from perfbench.hostspeed import HostClock

#: Calibrations of the host clock before and after the engine's
#: constructor, which runs for a second or more with none inside it.
SETUP_CALIBRATIONS = 5

#: ``(source, rid)`` identity of one stream tuple.
TupleKey = Tuple[str, str]

#: Every workload draws from one entity corpus and repository, generated
#: with a fixed seed; ``--seed`` varies the missing values and the reads.
#: Corpora from different seeds swing imputation cost several-fold (the
#: mined rule set changes), which would drown every other difference.
DATASET = "citations"
CORPUS_SEED = 7


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: input shape, loop shape and reads."""

    name: str
    why: str
    loop: str
    scale: float
    repository_ratio: float
    window: int
    missing_rate: float
    #: Offered rate of the paced (open) loop, tuples per second.
    rate: Optional[float] = None
    #: ``engine.resolve`` calls after every processed batch.
    queries_per_batch: int = 2


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        WorkloadSpec(
            name="wide-window",
            why=("closed loop over a wide window: entity resolution (grid "
                 "lookup, pruning, refinement, expiry) dominates the run"),
            loop="closed", scale=4, repository_ratio=0.3, window=240,
            missing_rate=0.15, queries_per_batch=10),
        WorkloadSpec(
            name="impute-heavy",
            why=("closed loop with a large repository, a tiny window and 90% "
                 "incomplete tuples: imputation and DR-index retrieval dominate"),
            loop="closed", scale=2.5, repository_ratio=1.0, window=30,
            missing_rate=0.9, queries_per_batch=20),
        WorkloadSpec(
            name="paced-mixed",
            why=("open loop at a fixed rate through IngestDriver with resolves "
                 "between batches: ingest layer, small batches and reads"),
            loop="paced", scale=3.5, repository_ratio=0.3, window=120,
            missing_rate=0.3, rate=48.0),
    )
}

#: Smoke sizes of every workload for the benchmark's own tests: the same
#: loop shapes and layers, small enough to run in a second or two.
SMOKE: Dict[str, WorkloadSpec] = {
    "wide-window": replace(WORKLOADS["wide-window"], scale=0.5, window=30),
    "impute-heavy": replace(WORKLOADS["impute-heavy"], scale=0.4, window=8),
    "paced-mixed": replace(WORKLOADS["paced-mixed"], scale=0.4, window=20,
                           rate=400.0),
}


def generate_inputs(spec: WorkloadSpec, seed: int):
    """The workload's generated inputs (same seed, same inputs).

    The entity corpus and the repository come from ``CORPUS_SEED``;
    ``seed`` draws which tuples arrive incomplete and which attribute
    they miss.
    """
    workload = generate_dataset(DATASET, missing_rate=0.0,
                                repository_ratio=spec.repository_ratio,
                                scale=spec.scale, seed=CORPUS_SEED)
    rng = random.Random(seed)
    for stream in ("stream_a", "stream_b"):
        setattr(workload, stream, _blank_values(
            getattr(workload, stream), list(workload.schema),
            spec.missing_rate, rng))
    return workload


def _blank_values(records: Sequence[Record], attributes: List[str],
                  rate: float, rng: random.Random) -> List[Record]:
    """Blank one attribute in exactly ``round(rate * n)`` of the records,
    spread evenly along the stream.

    The stream is cut into that many equal stretches and ``rng`` picks one
    record in each; every run of ``len(attributes)`` picks loses each
    attribute once, in an order ``rng`` shuffles.  Seeds thus differ in
    where the gaps fall but not in how many of each kind (the imputation
    cost differs a lot between attributes) reach any part of the stream.
    """
    count = round(rate * len(records))
    chosen = [rng.randrange(len(records) * turn // count,
                            len(records) * (turn + 1) // count)
              for turn in range(count)]
    kinds: List[str] = []
    while len(kinds) < count:
        kinds.extend(rng.sample(attributes, len(attributes)))
    out = list(records)
    for index, attribute in zip(chosen, kinds):
        record = records[index]
        values = dict(record.values)
        values[attribute] = None
        out[index] = Record(rid=record.rid, values=values,
                            source=record.source, timestamp=record.timestamp)
    return out


def build_engine(spec: WorkloadSpec, workload, executor=None) -> TERiDSEngine:
    """The engine in its default configuration over the generated inputs."""
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          window_size=spec.window)
    return TERiDSEngine(repository=workload.repository, config=config,
                        executor=(executor if executor is not None
                                  else MicroBatchExecutor()))


@dataclass
class Resolve:
    """One ``engine.resolve`` call and the result set it must agree with."""

    rid: str
    source: str
    #: The returned cluster, or the exception the call raised.
    outcome: object
    #: ``engine.current_matches()`` at the time of the call.
    snapshot: list


@dataclass
class PassResult:
    """What one pass measured and emitted."""

    keys: List[TupleKey]
    #: Engine constructor time, and the instant it finished.
    setup_s: float
    setup_end: float
    ground_truth: set
    engine: Optional[TERiDSEngine]
    #: Time the writes took: the paced loop's whole run, or the sum of a
    #: closed loop's ``process_batch`` calls.
    wall_s: float = 0.0
    #: Closed loop: ``(return instant, seconds, tuples)`` of every
    #: ``process_batch`` call.
    batches: List[Tuple[float, float, int]] = field(default_factory=list)
    #: Paced loop: ``(return instant, seconds)`` latency of every processed
    #: tuple, from its due instant to the return of its batch.
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    #: ``(return instant, seconds)`` of every resolve.
    queries: List[Tuple[float, float]] = field(default_factory=list)
    #: First and last instant of the pass's stream.
    start_at: float = 0.0
    end_at: float = 0.0
    matches: list = field(default_factory=list)
    processed: set = field(default_factory=set)
    resolves: List[Resolve] = field(default_factory=list)
    #: Sum of ``process_batch`` wall time (closed loops always; the paced
    #: loop only when ``time_batches`` was requested).
    busy_s: float = 0.0
    ingest: Dict[str, float] = field(default_factory=dict)

    @property
    def tuples(self) -> int:
        return len(self.processed)


def in_window_keys(engine: TERiDSEngine) -> List[Tuple[str, str]]:
    """``(rid, source)`` of every in-window tuple, in a stable order."""
    keys = []
    for source in sorted(engine.windows):
        for synopsis in engine.windows[source].items():
            keys.append((synopsis.record.rid, synopsis.record.source))
    return keys


def timed_resolve(engine: TERiDSEngine, rid: str, source: str,
                  snapshot: list, result: PassResult) -> None:
    """Resolve one entity, timing only the call."""
    start = time.perf_counter()
    try:
        outcome = engine.resolve(rid, source)
    except Exception as error:  # a failed read is counted, not fatal
        outcome = error
    result.queries.append((time.monotonic(), time.perf_counter() - start))
    result.resolves.append(Resolve(rid=rid, source=source, outcome=outcome,
                                   snapshot=snapshot))


def timed_setup(spec: WorkloadSpec, workload,
                clock: HostClock) -> Tuple[TERiDSEngine, float, float]:
    """Build the engine, timed, with the host clock calibrated around it.

    Returns the engine, the constructor's seconds and the instant it
    returned.
    """
    gc.collect()  # start from a heap without the last pass's garbage
    clock.sample(SETUP_CALIBRATIONS)
    start = time.perf_counter()
    engine = build_engine(spec, workload)
    seconds = time.perf_counter() - start
    end = time.monotonic()
    clock.sample(SETUP_CALIBRATIONS)
    return engine, seconds, end


def run_pass(spec: WorkloadSpec, seed: int, clock: HostClock, index: int = 0,
             time_batches: bool = False) -> PassResult:
    """Pass number ``index`` of ``spec`` on the inputs of ``seed``.

    Every pass writes the same inputs; the entities it reads are drawn
    from ``(seed, index)``.  ``clock`` is calibrated around the engine's
    constructor and after every batch, outside the timed calls.
    ``time_batches`` sums the paced loop's ``process_batch`` time into
    ``busy_s`` (a closed loop always does).
    """
    workload = generate_inputs(spec, seed)
    records = workload.interleaved_records()
    engine, setup_s, setup_end = timed_setup(spec, workload, clock)
    result = PassResult(keys=[(r.source, r.rid) for r in records],
                        setup_s=setup_s, setup_end=setup_end,
                        ground_truth=set(workload.ground_truth),
                        engine=engine)
    rng = random.Random(seed * 1000 + index)
    result.start_at = time.monotonic()
    try:
        if spec.loop == "closed":
            _closed_loop(spec, rng, engine, records, result, clock)
        else:
            _paced_loop(spec, rng, engine, records, result, clock,
                        time_batches)
    finally:
        engine.close()
    result.end_at = time.monotonic()
    return result


def _read_after_batch(spec: WorkloadSpec, engine: TERiDSEngine,
                      rng: random.Random, result: PassResult) -> None:
    """Resolve ``spec.queries_per_batch`` seeded in-window entities."""
    keys = in_window_keys(engine)
    if not keys:
        return
    snapshot = engine.current_matches()
    for _ in range(spec.queries_per_batch):
        rid, source = rng.choice(keys)
        timed_resolve(engine, rid, source, snapshot, result)


def _closed_loop(spec: WorkloadSpec, rng: random.Random,
                 engine: TERiDSEngine, records: Sequence,
                 result: PassResult, clock: HostClock) -> None:
    size = max(1, engine.executor.batch_size)
    for offset in range(0, len(records), size):
        chunk = records[offset:offset + size]
        sent = time.perf_counter()
        result.matches.extend(engine.process_batch(chunk))
        seconds = time.perf_counter() - sent
        result.batches.append((time.monotonic(), seconds, len(chunk)))
        result.busy_s += seconds
        clock.sample()
        _read_after_batch(spec, engine, rng, result)
        clock.sample()
    result.wall_s = result.busy_s
    result.processed.update(result.keys)


class PacedSource:
    """Open-loop source: tuple ``i`` is due at ``t0 + i / rate``.

    The schedule does not slow when the engine does: tuples that fell due
    while the event loop was blocked are offered back to back.  ``due``
    holds each tuple's due instant and ``lag_s`` how late the generator
    offered it (both on the ``time.monotonic`` clock).
    """

    def __init__(self, records: Sequence, rate: float,
                 name: str = "paced") -> None:
        self.name = name
        self.records = list(records)
        self.rate = rate
        self.due: List[float] = []
        self.lag_s: List[float] = []

    async def __aiter__(self):
        clock = time.monotonic
        t0 = clock()
        interval = 1.0 / self.rate
        for index, record in enumerate(self.records):
            due = t0 + index * interval
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.due.append(due)
            self.lag_s.append(max(0.0, clock() - due))
            yield StreamElement(record=record, event_time=float(index),
                                origin=self.name)


def _paced_loop(spec: WorkloadSpec, rng: random.Random, engine: TERiDSEngine,
                records: Sequence, result: PassResult, clock: HostClock,
                time_batches: bool) -> None:
    source = PacedSource(records, spec.rate)
    index_of = {key: index for index, key in enumerate(result.keys)}

    def on_batch(driver, batch_records) -> None:
        done = time.monotonic()
        for record in batch_records:
            key = (record.source, record.rid)
            result.processed.add(key)
            result.latencies.append((done, done - source.due[index_of[key]]))
        _read_after_batch(spec, engine, rng, result)
        clock.sample()

    if time_batches:
        # Batch-level timer only (engine busy time); no layer wrappers.
        process_batch = engine.process_batch

        def timed_process_batch(batch_records):
            start = time.perf_counter()
            try:
                return process_batch(batch_records)
            finally:
                result.busy_s += time.perf_counter() - start

        engine.process_batch = timed_process_batch

    driver = IngestDriver(engine, [source], on_batch=on_batch,
                          process_in_executor=False)
    report = driver.run()
    result.wall_s = report.total_seconds
    result.matches = list(driver.matches)
    stats = engine.ctx.ingest
    depths = list(stats.queue_depths)
    half = len(depths) // 2
    first = depths[:half] or [0]
    second = depths[half:] or [0]
    lags = sorted(source.lag_s)
    result.ingest = {
        "batches": report.batches_processed,
        "mean_batch": report.tuples_processed / max(1, report.batches_processed),
        "trigger_deadline": stats.triggers.get("deadline", 0),
        "trigger_size": stats.triggers.get("size", 0),
        "queue_depth_max": stats.max_queue_depth,
        "backlog_growth": sum(second) / len(second) - sum(first) / len(first),
        "generator_lag_p99_ms": 1e3 * percentile(lags, 0.99),
    }


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]
