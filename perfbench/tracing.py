"""Layer tracing from outside the program.

:func:`traced` wraps the public entry points of each layer — class methods
and the module globals the callers look up at call time — for the duration
of a ``with`` block and restores the originals afterwards.  Each wrapper
records a span (name, duration, time covered by recorded child spans) on a
:class:`Tracer`; spans are aggregated in memory, per name.

Only spans under a *root* are recorded.  The roots are
``executors.process_batch`` (the write path), ``query`` (``engine.resolve``)
and the four ``setup.*`` constructor steps.  Layer spans are recorded only
inside ``executors.process_batch``: the read path reuses the grid, pruning
and refinement code, and its share of that work counts as ``query`` time
alone.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

import repro.core.engine as engine_module
import repro.runtime.evaluation as evaluation_module
import repro.runtime.executors as executors_module
from repro.core.engine import TERiDSEngine
from repro.core.matching import EntityResultSet
from repro.indexes.cdd_index import CDDIndex
from repro.indexes.dr_index import DRIndex
from repro.runtime.executors import MicroBatchExecutor
from repro.runtime.stages import (
    CandidateLookupStage,
    ImputationStage,
    MaintenanceStage,
    RuleSelectionStage,
    SynopsisStage,
)

WRITE_ROOT = "executors.process_batch"

#: Spans directly under ``process_batch``: their sum is the traced share
#: of ``process_batch`` time (``trace.coverage_pct``).
TOP_LAYERS = ("rule_selection", "imputation", "synopsis", "grid_lookup",
              "evaluation", "window.expire", "window.insert", "result_set")


class Tracer:
    """In-memory span aggregation: totals, child time and calls per name."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.child: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Open spans: ``[name, child seconds so far]``.
        self._stack: List[list] = []

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def call(self, name: str, root: bool, fn: Callable, args, kwargs,
             count: Optional[Callable] = None):
        stack = self._stack
        if not root and (not stack or stack[0][0] != WRITE_ROOT):
            return fn(*args, **kwargs)
        finish = count(self.counts, args) if count is not None else None
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            self.total[name] += duration
            self.child[name] += frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += duration
        if finish is not None:
            finish(result)
        return result


# Counting hooks: called before a recorded span with the call's arguments,
# they return the function that counts once the call has returned.
def _count_cdd_nodes(counts, args):
    def finish(result) -> None:
        # ``candidate_rules`` resets the index's counter on every call.
        counts["cdd_nodes_visited"] += args[0].nodes_visited
    return finish


def _count_lookup(counts, args):
    grid = args[0].ctx.grid
    before = grid.tuples_examined

    def finish(result) -> None:
        counts["grid_tuples_examined"] += grid.tuples_examined - before
        counts["grid_candidates"] += len(result)
    return finish


def _count_evictions(counts, args):
    def finish(result) -> None:
        if result is not None:
            counts["evictions"] += 1
    return finish


#: ``(owner, attribute, span name, root, counting hook)`` of every wrapper.
_ENTRY_POINTS = (
    (MicroBatchExecutor, "process_batch", WRITE_ROOT, True, None),
    (RuleSelectionStage, "run", "rule_selection", False, None),
    (CDDIndex, "candidate_rules", "rule_selection.cdd_index", False,
     _count_cdd_nodes),
    (ImputationStage, "run", "imputation", False, None),
    (DRIndex, "candidate_samples", "imputation.dr_retrieval", False, None),
    (SynopsisStage, "run", "synopsis", False, None),
    (CandidateLookupStage, "lookup", "grid_lookup", False, _count_lookup),
    (executors_module, "evaluate_task_batch", "evaluation", False, None),
    (evaluation_module, "batch_prune", "pruning", False, None),
    (evaluation_module, "refine_pair_cached", "refine", False, None),
    (MaintenanceStage, "expire", "window.expire", False, _count_evictions),
    (MaintenanceStage, "insert", "window.insert", False, None),
    (EntityResultSet, "add", "result_set", False, None),
    (EntityResultSet, "remove_record", "result_set", False, None),
    (TERiDSEngine, "resolve", "query", True, None),
    (engine_module, "select_pivots", "setup.pivots", True, None),
    (engine_module, "discover_cdd_rules", "setup.rule_mining", True, None),
    (engine_module, "build_cdd_indexes", "setup.cdd_index", True, None),
    (engine_module, "DRIndex", "setup.dr_index", True, None),
)


def _wrap(tracer: Tracer, name: str, root: bool, fn: Callable,
          count: Optional[Callable]) -> Callable:
    call = tracer.call

    def wrapper(*args, **kwargs):
        return call(name, root, fn, args, kwargs, count)

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper on ``tracer``; restore on exit."""
    originals = []
    try:
        for owner, attribute, name, root, count in _ENTRY_POINTS:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, name, root, original, count))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def layer_metrics(tracer: Tracer, engine: TERiDSEngine) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by name.

    Times are seconds per pass, which builds one engine.  Counters the
    program keeps are read from ``engine``.
    """
    total, calls, counts = tracer.total, tracer.calls, tracer.counts
    ctx = engine.ctx
    pruning = ctx.pruning.stats
    imputation = ctx.imputer.stats
    query = ctx.query
    batch_s = total[WRITE_ROOT]
    refine_calls = calls["refine"]
    attributes = imputation.attributes_imputed + imputation.attributes_unimputable
    pruned = (pruning.pruned_by_topic + pruning.pruned_by_similarity
              + pruning.pruned_by_probability)
    return {
        "setup.pivots_s": total["setup.pivots"],
        "setup.rule_mining_s": total["setup.rule_mining"],
        "setup.cdd_index_s": total["setup.cdd_index"],
        "setup.dr_index_s": total["setup.dr_index"],
        "executors.process_batch_s": batch_s,
        "executors.process_batch_calls": calls[WRITE_ROOT],
        "executors.self_s": tracer.self_time(WRITE_ROOT),
        "rule_selection.s": total["rule_selection"],
        "rule_selection.cdd_nodes_visited": counts["cdd_nodes_visited"],
        "imputation.s": total["imputation"],
        "imputation.self_s": tracer.self_time("imputation"),
        "imputation.dr_retrieval_s": total["imputation.dr_retrieval"],
        "imputation.dr_retrieval_calls": calls["imputation.dr_retrieval"],
        "imputation.dr_nodes_visited": ctx.dr_index.nodes_visited,
        "imputation.samples_scanned": imputation.samples_scanned,
        "imputation.sample_hit_ratio": _ratio(imputation.samples_matched,
                                              imputation.samples_scanned),
        "imputation.imputed_ratio": _ratio(imputation.attributes_imputed,
                                           attributes),
        "synopsis.s": total["synopsis"],
        "grid_lookup.s": total["grid_lookup"],
        "grid_lookup.calls": calls["grid_lookup"],
        "grid_lookup.tuples_examined": counts["grid_tuples_examined"],
        "grid_lookup.candidates": counts["grid_candidates"],
        "evaluation.s": total["evaluation"],
        "pruning.s": total["pruning"],
        "pruning.pairs": pruning.pairs_considered,
        "pruning.pruned_topic": pruning.pruned_by_topic,
        "pruning.pruned_similarity": pruning.pruned_by_similarity,
        "pruning.pruned_probability": pruning.pruned_by_probability,
        "pruning.pruned_ratio": _ratio(pruned, pruning.pairs_considered),
        "refine.s": total["refine"],
        "refine.calls": refine_calls,
        "refine.pruned_instance": pruning.pruned_by_instance,
        "refine.match_ratio": _ratio(pruning.refined_matches, refine_calls),
        "window.expire_s": total["window.expire"],
        "window.insert_s": total["window.insert"],
        "window.expire_calls": calls["window.expire"],
        "window.evictions": counts["evictions"],
        "result_set.s": total["result_set"],
        "query.s": total["query"],
        "query.calls": calls["query"],
        "query.cache_hit_ratio": _ratio(query.cache_hits, query.resolves),
        "query.cache_invalidations": query.cache_invalidations,
        "query.frontier_expansions": query.frontier_expansions,
        "trace.coverage_pct": 100.0 * _ratio(
            sum(total[name] for name in TOP_LAYERS), batch_s),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Every per-layer metric the traced run emits, with its unit.
LAYER_UNITS = {
    "setup.pivots_s": "s",
    "setup.rule_mining_s": "s",
    "setup.cdd_index_s": "s",
    "setup.dr_index_s": "s",
    "ingest.batches": "count",
    "ingest.mean_batch": "tuples",
    "ingest.trigger_deadline": "count",
    "ingest.trigger_size": "count",
    "ingest.queue_depth_max": "tuples",
    "ingest.backlog_growth": "tuples",
    "ingest.generator_lag_p99_ms": "ms",
    "engine.busy_ratio": "ratio",
    "executors.process_batch_s": "s",
    "executors.process_batch_calls": "count",
    "executors.self_s": "s",
    "rule_selection.s": "s",
    "rule_selection.cdd_nodes_visited": "count",
    "imputation.s": "s",
    "imputation.self_s": "s",
    "imputation.dr_retrieval_s": "s",
    "imputation.dr_retrieval_calls": "count",
    "imputation.dr_nodes_visited": "count",
    "imputation.samples_scanned": "count",
    "imputation.sample_hit_ratio": "ratio",
    "imputation.imputed_ratio": "ratio",
    "synopsis.s": "s",
    "grid_lookup.s": "s",
    "grid_lookup.calls": "count",
    "grid_lookup.tuples_examined": "count",
    "grid_lookup.candidates": "count",
    "evaluation.s": "s",
    "pruning.s": "s",
    "pruning.pairs": "count",
    "pruning.pruned_topic": "count",
    "pruning.pruned_similarity": "count",
    "pruning.pruned_probability": "count",
    "pruning.pruned_ratio": "ratio",
    "refine.s": "s",
    "refine.calls": "count",
    "refine.pruned_instance": "count",
    "refine.match_ratio": "ratio",
    "window.expire_s": "s",
    "window.insert_s": "s",
    "window.expire_calls": "count",
    "window.evictions": "count",
    "result_set.s": "s",
    "query.s": "s",
    "query.calls": "count",
    "query.cache_hit_ratio": "ratio",
    "query.cache_invalidations": "count",
    "query.frontier_expansions": "count",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}
