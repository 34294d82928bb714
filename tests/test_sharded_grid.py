"""Tests for the columnar ER-grid cell store.

The heavyweight guarantee is **cell-scan identity**: the vectorized
``batch_cell_scan`` lookup (columnar :class:`CellStore`) returns
bit-identical candidate lists and examination counters to the scalar cell
walk, and the store tracks exactly the live cells.  A checkpoint restored
mid-stream (into a fresh engine, or into the same engine whose columnar
stores hold tuples from past the snapshot) converges to the uninterrupted
run's final state.
"""

from golden_utils import canonical_matches
from repro.core.config import TERiDSConfig
from repro.core.engine import TERiDSEngine
from repro.datasets.synthetic import generate_dataset
from repro.indexes.er_grid import ERGrid
from repro.runtime import MicroBatchExecutor, SerialExecutor


def _small_workload():
    return generate_dataset("citations", missing_rate=0.3, scale=0.3, seed=11)


def _small_config(workload, window=20):
    return TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                        alpha=0.5, similarity_ratio=0.5, window_size=window)


def _observables(engine, matches):
    stats = engine.pruning.stats
    return {
        "timestamps": engine.timestamps_processed,
        "matches": canonical_matches(matches),
        "result_set": canonical_matches(engine.current_matches()),
        "pruning": {
            "pairs_considered": stats.pairs_considered,
            "pruned_by_topic": stats.pruned_by_topic,
            "pruned_by_similarity": stats.pruned_by_similarity,
            "pruned_by_probability": stats.pruned_by_probability,
            "pruned_by_instance": stats.pruned_by_instance,
            "refined_matches": stats.refined_matches,
            "refined_non_matches": stats.refined_non_matches,
        },
        "grid": (engine.grid.cells_examined, engine.grid.tuples_examined),
    }


def _run(workload, config, executor):
    engine = TERiDSEngine(repository=workload.repository, config=config,
                          executor=executor)
    try:
        report = engine.run(workload.interleaved_records())
        return _observables(engine, report.matches)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Vectorized cell scan == scalar walk, bit for bit
# ---------------------------------------------------------------------------
def test_cell_store_scan_identical_to_scalar_walk():
    workload = _small_workload()
    config = _small_config(workload)
    records = list(workload.interleaved_records())

    scalar = TERiDSEngine(repository=workload.repository, config=config)
    vectorized = TERiDSEngine(repository=workload.repository, config=config)
    assert vectorized.grid.enable_cell_store() is not None
    scalar_report = scalar.run(records)
    vectorized_report = vectorized.run(records)

    assert (_observables(scalar, scalar_report.matches)
            == _observables(vectorized, vectorized_report.matches))
    # The store tracked every live cell and no more.
    assert len(vectorized.grid.cell_store) == vectorized.grid.cell_count


def test_cell_store_enabled_mid_stream_backfills():
    """Enabling the store on a populated grid back-fills every cell."""
    workload = _small_workload()
    config = _small_config(workload)
    records = list(workload.interleaved_records())
    engine = TERiDSEngine(repository=workload.repository, config=config)
    engine.run(records[: len(records) // 2])
    store = engine.grid.enable_cell_store()
    assert len(store) == engine.grid.cell_count
    # Same object on re-enable, still in sync after more maintenance.
    assert engine.grid.enable_cell_store() is store
    engine.run(records[len(records) // 2:])
    assert len(store) == engine.grid.cell_count


def test_cell_store_recycles_rows_on_cell_eviction(health_pivots,
                                                   health_schema):
    grid = ERGrid(health_schema, cells_per_dim=3)
    store = grid.enable_cell_store()
    assert store is not None and len(store) == 0

    from repro.core.pruning import RecordSynopsis
    from repro.core.tuples import ImputedRecord, Record

    def synopsis(rid, symptom):
        record = Record(rid=rid,
                        values={"gender": "male", "symptom": symptom,
                                "diagnosis": "diabetes",
                                "treatment": "drug therapy"},
                        source="stream-a")
        imputed = ImputedRecord.from_complete(record, health_schema)
        return RecordSynopsis.build(imputed, health_pivots, frozenset())

    first = synopsis("r1", "weight loss blurred vision")
    grid.insert(first)
    rows_with_one = len(store)
    assert rows_with_one == grid.cell_count
    grid.remove("r1", "stream-a")
    assert len(store) == 0 == grid.cell_count
    # Rows are recycled, not leaked: re-inserting reuses the free list.
    grid.insert(first)
    assert len(store) == rows_with_one


# ---------------------------------------------------------------------------
# Checkpoint / restore with the columnar stores live
# ---------------------------------------------------------------------------
def _columnar_engine(workload, config):
    return TERiDSEngine(repository=workload.repository, config=config,
                        executor=MicroBatchExecutor(batch_size=8))


def test_sharded_checkpoint_restore_mid_stream():
    """A mid-stream snapshot restored into a fresh micro-batch engine
    resumes to the uninterrupted run's exact final state."""
    workload = _small_workload()
    config = _small_config(workload)
    records = list(workload.interleaved_records())
    half = len(records) // 2

    uninterrupted = _run(workload, config, SerialExecutor())

    first = _columnar_engine(workload, config)
    try:
        matches = list(first.process_batch(records[:half]))
        state = first.checkpoint()
    finally:
        first.close()

    resumed = _columnar_engine(workload, config)
    try:
        resumed.restore_checkpoint(state)
        matches.extend(resumed.process_batch(records[half:]))
        got = _observables(resumed, matches)
    finally:
        resumed.close()
    assert got == uninterrupted


def test_sharded_pool_self_heals_after_restore_into_same_engine():
    """Restoring into the *same* engine, whose cell and packed stores hold
    tuples the restored grid does not, must still resume exactly."""
    workload = _small_workload()
    config = _small_config(workload)
    records = list(workload.interleaved_records())
    half = len(records) // 2

    uninterrupted = _run(workload, config, SerialExecutor())

    engine = _columnar_engine(workload, config)
    try:
        matches = list(engine.process_batch(records[:half]))
        state = engine.checkpoint()
        # Keep running past the snapshot, then rewind the SAME engine.
        engine.process_batch(records[half:])
        engine.restore_checkpoint(state)
        matches.extend(engine.process_batch(records[half:]))
        got = _observables(engine, matches)
    finally:
        engine.close()
    assert got == uninterrupted
