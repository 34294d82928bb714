"""Correctness gate: every pass is checked against the serial reference.

The reference is the ``SerialExecutor`` run over the same generated inputs,
computed once per workload and seed and never timed.  An operation is a
tuple or a resolve:

* a tuple fails when its matches (right-hand rids and probabilities)
  differ from the reference's for that tuple, or when no returned batch
  carried it (shed or never processed);
* a resolve fails when it raised, or when its cluster differs from the
  transitive closure of ``engine.current_matches()`` at the time of the
  call, restricted to the queried record's component.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.metrics.accuracy import evaluate_matches
from repro.runtime.executors import SerialExecutor

from perfbench.workloads import (
    PassResult,
    TupleKey,
    WorkloadSpec,
    build_engine,
    generate_inputs,
)

#: One tuple's matches: sorted ``(right source, right rid, probability)``.
TupleMatches = Tuple[Tuple[str, str, float], ...]


def group_by_tuple(pairs: Iterable) -> Dict[TupleKey, TupleMatches]:
    """Emitted pairs grouped by the arriving tuple that produced them."""
    grouped: Dict[TupleKey, List[Tuple[str, str, float]]] = {}
    for pair in pairs:
        grouped.setdefault((pair.left_source, pair.left_rid), []).append(
            (pair.right_source, pair.right_rid, pair.probability))
    return {key: tuple(sorted(rows)) for key, rows in grouped.items()}


def serial_reference(spec: WorkloadSpec, seed: int) -> Dict[TupleKey, TupleMatches]:
    """Per-tuple matches of the ``SerialExecutor`` on the same inputs."""
    workload = generate_inputs(spec, seed)
    engine = build_engine(spec, workload, executor=SerialExecutor())
    pairs = []
    for record in workload.interleaved_records():
        pairs.extend(engine.process(record))
    engine.close()
    return group_by_tuple(pairs)


def tuple_failures(result: PassResult,
                   reference: Dict[TupleKey, TupleMatches]) -> int:
    """Tuples whose matches differ from the reference or that were lost."""
    emitted = group_by_tuple(result.matches)
    failed = 0
    for key in result.keys:
        if key not in result.processed:
            failed += 1
        elif emitted.get(key, ()) != reference.get(key, ()):
            failed += 1
    # Matches for tuples that were never offered are failures too.
    failed += len(set(emitted) - set(result.keys))
    return failed


def closure_cluster(snapshot: list, rid: str, source: str):
    """Members and ``(key, probability)`` edges of the record's component
    in the transitive closure of the snapshot's match pairs."""
    parent: Dict[TupleKey, TupleKey] = {}

    def find(node: TupleKey) -> TupleKey:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for pair in snapshot:
        left = find((pair.left_source, pair.left_rid))
        right = find((pair.right_source, pair.right_rid))
        if left != right:
            parent[left] = right
    root = find((source, rid))
    members = {node for node in list(parent) if find(node) == root}
    edges = {(pair.key(), pair.probability) for pair in snapshot
             if find((pair.left_source, pair.left_rid)) == root}
    return members, edges


def resolve_failures(result: PassResult) -> int:
    """Resolves that raised or disagree with the closure of the result set."""
    failed = 0
    for call in result.resolves:
        cluster = call.outcome
        if isinstance(cluster, Exception):
            failed += 1
            continue
        members, edges = closure_cluster(call.snapshot, call.rid, call.source)
        got_edges = {(pair.key(), pair.probability) for pair in cluster.pairs}
        if set(cluster.members) != members or got_edges != edges:
            failed += 1
    return failed


def check_pass(result: PassResult,
               reference: Dict[TupleKey, TupleMatches]) -> Tuple[int, int]:
    """``(attempted, failed)`` operations of one pass."""
    attempted = len(result.keys) + len(result.resolves)
    failed = tuple_failures(result, reference) + resolve_failures(result)
    return attempted, failed


def f1(result: PassResult) -> float:
    """F-score of the pass's emitted pairs against the topical ground truth."""
    return evaluate_matches(result.matches, result.ground_truth).f_score
