"""Differential tests: the vectorized pruning kernel against the scalar cascade.

The contract under test is *identity*, not just safety: the columnar
:func:`~repro.core.pruning.batch_prune` kernel and the batch evaluator
:func:`~repro.runtime.evaluation.evaluate_task_batch` must reproduce the
scalar cascade's (``PruningPipeline.evaluate_pair``) survivor mask,
per-strategy pruned counts, verdicts and probabilities bit-for-bit, for
arbitrary synopses (hypothesis) and on the golden workloads (both
executors).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from golden_utils import (
    GOLDEN_WORKLOADS,
    build_config,
    build_workload,
    golden_path,
    run_reference,
)
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.core.pruning import (
    PackedStore,
    PruningPipeline,
    PruningStats,
    RecordSynopsis,
    batch_prune,
    ensure_packed,
    probability_prune,
    similarity_prune,
    topic_keyword_prune,
)
from repro.core.tuples import ImputedRecord, Record, Schema
from repro.imputation.repository import DataRepository
from repro.indexes.pivots import PivotSelectionConfig, select_pivots
from repro.runtime import MicroBatchExecutor, SerialExecutor, evaluate_task_batch

SCHEMA = Schema(attributes=("symptom", "diagnosis"))
KEYWORDS = frozenset({"diabetes"})


def _pivots():
    samples = [
        Record(rid="p0", values={"symptom": "fever cough chills",
                                 "diagnosis": "flu"}),
        Record(rid="p1", values={"symptom": "weight loss blurred vision",
                                 "diagnosis": "diabetes"}),
        Record(rid="p2", values={"symptom": "red eye itchy",
                                 "diagnosis": "conjunctivitis"}),
        Record(rid="p3", values={"symptom": "chest pain palpitation",
                                 "diagnosis": "cardio issue"}),
    ]
    repository = DataRepository(schema=SCHEMA, samples=samples)
    return select_pivots(repository, PivotSelectionConfig(buckets=5,
                                                          min_entropy=0.3,
                                                          max_pivots=2))


PIVOTS = _pivots()

#: Token pool for the hypothesis-generated records (overlaps the pivots so
#: every similarity/probability branch is reachable).
WORDS = ("fever", "cough", "chills", "weight", "loss", "blurred", "vision",
         "diabetes", "flu", "red", "eye", "pain", "itchy", "thirst", "")


def _make_synopsis(index, symptom, diagnosis, candidates):
    record = Record(rid=f"r{index}", values={"symptom": symptom or None,
                                             "diagnosis": diagnosis or None},
                    source=f"s{index % 2}")
    imputed = ImputedRecord(base=record, schema=SCHEMA,
                            candidates=candidates or {})
    return RecordSynopsis.build(imputed, PIVOTS, KEYWORDS)


def _scalar_cascade(query, candidates, keywords, gamma, alpha,
                    use_topic=True, use_similarity=True,
                    use_probability=True):
    """The three bound strategies applied per pair, with attribution."""
    mask = []
    counts = [0, 0, 0]
    for candidate in candidates:
        if use_topic and topic_keyword_prune(query, candidate, keywords):
            counts[0] += 1
            mask.append(False)
            continue
        if use_similarity and similarity_prune(query, candidate, gamma):
            counts[1] += 1
            mask.append(False)
            continue
        if use_probability and probability_prune(query, candidate, gamma,
                                                 alpha):
            counts[2] += 1
            mask.append(False)
            continue
        mask.append(True)
    return mask, tuple(counts)


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary synopses, arbitrary thresholds
# ---------------------------------------------------------------------------
value_strategy = st.lists(st.sampled_from(WORDS), min_size=0, max_size=4).map(
    " ".join)
candidates_strategy = st.dictionaries(
    st.sampled_from(WORDS[:8]).filter(bool),
    st.floats(min_value=0.05, max_value=0.33),
    min_size=1, max_size=3)
record_strategy = st.tuples(
    value_strategy,
    value_strategy,
    st.one_of(st.none(), candidates_strategy),
)


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(record_strategy, min_size=2, max_size=8),
    gamma=st.floats(min_value=0.1, max_value=1.9),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    use_keywords=st.booleans(),
)
def test_vectorized_kernel_identical_to_scalar_cascade(records, gamma, alpha,
                                                       use_keywords):
    keywords = KEYWORDS if use_keywords else frozenset()
    synopses = []
    for index, (symptom, diagnosis, extra) in enumerate(records):
        candidates = {"diagnosis": extra} if (extra and not diagnosis) else None
        synopses.append(_make_synopsis(index, symptom, diagnosis, candidates))
    query, candidates = synopses[0], synopses[1:]

    alive, topic, similarity, probability = batch_prune(
        query, candidates, keywords=keywords, gamma=gamma, alpha=alpha)
    mask, counts = _scalar_cascade(query, candidates, keywords, gamma, alpha)
    assert list(alive) == mask
    assert (topic, similarity, probability) == counts

    # Full verdicts (bounds + instance-level refinement) and counters.
    vector_stats = PruningStats()
    reference = PruningPipeline(keywords=keywords, gamma=gamma, alpha=alpha)
    [vectorized] = evaluate_task_batch(
        [(query, candidates)], keywords=keywords, gamma=gamma, alpha=alpha,
        use_topic=True, use_similarity=True, use_probability=True,
        use_instance=True, stats=vector_stats)
    scalar = [reference.evaluate_pair(query, candidate)
              for candidate in candidates]
    assert vectorized == scalar
    assert vector_stats == reference.stats


@settings(max_examples=25, deadline=None)
@given(
    records=st.lists(record_strategy, min_size=2, max_size=6),
    gamma=st.floats(min_value=0.1, max_value=1.9),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    toggles=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_vectorized_kernel_respects_strategy_toggles(records, gamma, alpha,
                                                     toggles):
    use_topic, use_similarity, use_probability = toggles
    synopses = [
        _make_synopsis(index, symptom, diagnosis,
                       {"diagnosis": extra} if (extra and not diagnosis)
                       else None)
        for index, (symptom, diagnosis, extra) in enumerate(records)
    ]
    query, candidates = synopses[0], synopses[1:]
    alive, topic, similarity, probability = batch_prune(
        query, candidates, keywords=KEYWORDS, gamma=gamma, alpha=alpha,
        use_topic=use_topic, use_similarity=use_similarity,
        use_probability=use_probability)
    mask, counts = _scalar_cascade(query, candidates, KEYWORDS, gamma, alpha,
                                   use_topic=use_topic,
                                   use_similarity=use_similarity,
                                   use_probability=use_probability)
    assert list(alive) == mask
    assert (topic, similarity, probability) == counts


# ---------------------------------------------------------------------------
# Engine-populated window: kernel + store vs scalar, pair for pair
# ---------------------------------------------------------------------------
def _populated_engine():
    workload = build_workload("citations", 0.4, 7)
    config = build_config(workload, 40)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    engine.run(list(workload.interleaved_records())[:120])
    return engine, config


def test_kernel_with_resident_store_matches_scalar_on_window():
    engine, config = _populated_engine()
    synopses = engine.grid.synopses()
    assert len(synopses) > 30
    store = PackedStore()
    for synopsis in synopses:
        store.insert(synopsis)
    for query in synopses[:25]:
        candidates = [s for s in synopses if s is not query]
        alive, topic, similarity, probability = batch_prune(
            query, candidates, keywords=config.keywords, gamma=config.gamma,
            alpha=config.alpha, store=store)
        mask, counts = _scalar_cascade(query, candidates, config.keywords,
                                       config.gamma, config.alpha)
        assert list(alive) == mask
        assert (topic, similarity, probability) == counts


def test_evaluate_candidates_verdicts_and_stats_match_scalar():
    engine, config = _populated_engine()
    synopses = engine.grid.synopses()
    vector_stats = PruningStats()
    reference = PruningPipeline(keywords=config.keywords, gamma=config.gamma,
                                alpha=config.alpha)
    for query in synopses[:20]:
        candidates = [s for s in synopses if s is not query]
        [vectorized] = evaluate_task_batch(
            [(query, candidates)], keywords=config.keywords,
            gamma=config.gamma, alpha=config.alpha, use_topic=True,
            use_similarity=True, use_probability=True, use_instance=True,
            stats=vector_stats)
        scalar = [reference.evaluate_pair(query, candidate)
                  for candidate in candidates]
        assert vectorized == scalar
    assert vector_stats == reference.stats


# ---------------------------------------------------------------------------
# Golden regression: vectorized kernel on
# ---------------------------------------------------------------------------
def _golden(dataset):
    return json.loads(golden_path(dataset).read_text())["reference"]


@pytest.mark.parametrize("dataset,scale,seed,window", GOLDEN_WORKLOADS)
def test_vectorized_in_process_matches_seed_goldens(dataset, scale, seed,
                                                    window):
    workload = build_workload(dataset, scale, seed)
    config = build_config(workload, window)
    got = run_reference(
        lambda **kwargs: TERiDSEngine(
            executor=MicroBatchExecutor(batch_size=16),
            **kwargs),
        workload, config)
    assert got == _golden(dataset)


# ---------------------------------------------------------------------------
# PackedStore mechanics
# ---------------------------------------------------------------------------
class TestPackedStore:
    def _synopses(self, count=5):
        return [_make_synopsis(index, "fever cough", "flu", None)
                for index in range(count)]

    def test_insert_gather_roundtrip(self):
        store = PackedStore()
        synopses = self._synopses()
        rows = [store.insert(s) for s in synopses]
        assert len(store) == len(synopses)
        for synopsis, row in zip(synopses, rows):
            assert store.row_for(synopsis) == row
            packed = ensure_packed(synopsis)
            assert np.array_equal(store.dist_lb[row], packed.dist_lb)
            assert np.array_equal(store.tok_max[row], packed.tok_max)

    def test_remove_recycles_rows(self):
        store = PackedStore()
        synopses = self._synopses()
        rows = [store.insert(s) for s in synopses]
        assert store.remove(synopses[2].rid, synopses[2].source)
        assert store.row_for(synopses[2]) is None
        replacement = _make_synopsis(99, "red eye", "conjunctivitis", None)
        assert store.insert(replacement) == rows[2]
        assert store.row_for(replacement) == rows[2]

    def test_row_for_requires_identity(self):
        """A re-built synopsis with the same key must not hit a stale row."""
        store = PackedStore()
        original = self._synopses(1)[0]
        store.insert(original)
        rebuilt = _make_synopsis(0, "fever cough", "flu", None)
        assert rebuilt.rid == original.rid
        assert store.row_for(original) is not None
        assert store.row_for(rebuilt) is None

    def test_growth_beyond_initial_capacity(self):
        store = PackedStore()
        synopses = [_make_synopsis(index, "fever", "flu", None)
                    for index in range(130)]
        for synopsis in synopses:
            store.insert(synopsis)
        assert len(store) == 130
        assert store.row_for(synopses[-1]) is not None



# ---------------------------------------------------------------------------
# Executor argument surface
# ---------------------------------------------------------------------------
def test_micro_batch_executor_validates_new_arguments():
    """``batch_size`` is the only argument: bad values are rejected, and so
    is the removed scalar-path switch rather than being silently ignored."""
    with pytest.raises(ValueError):
        MicroBatchExecutor(batch_size=0)
    with pytest.raises(TypeError):
        MicroBatchExecutor(batch_size=4, vectorized=False)
    assert MicroBatchExecutor(batch_size=4).batch_size == 4
