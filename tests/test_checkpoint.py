"""Checkpoint / restore tests: pause a stream, resume, identical answers."""

import json

import pytest

from golden_utils import build_config, build_workload, canonical_matches
from repro.core.engine import TERiDSEngine
from repro.core.tuples import Record
from repro.persistence import load_checkpoint, save_checkpoint
from repro.runtime import MicroBatchExecutor, SerialExecutor


def _fresh(workload, window, executor=None):
    return TERiDSEngine(repository=workload.repository,
                        config=build_config(workload, window),
                        executor=executor)


@pytest.mark.parametrize("resume_executor_factory", [
    lambda: SerialExecutor(),
    lambda: MicroBatchExecutor(batch_size=16),
], ids=["resume-serial", "resume-micro-batch"])
def test_checkpoint_restore_resume_equals_uninterrupted(tmp_path,
                                                        resume_executor_factory):
    """Run N tuples, checkpoint, restore into a fresh engine, run M more."""
    dataset, scale, seed, window = "citations", 0.5, 7, 40
    split = 50

    # Uninterrupted reference run.
    reference_workload = build_workload(dataset, scale, seed)
    reference = _fresh(reference_workload, window)
    reference_report = reference.run(reference_workload.interleaved_records())

    # Interrupted run: N tuples, checkpoint to disk, restore, M more tuples.
    workload = build_workload(dataset, scale, seed)
    records = list(workload.interleaved_records())
    first = _fresh(workload, window)
    first_matches = []
    for record in records[:split]:
        first_matches.extend(first.process(record))
    path = tmp_path / "engine.ckpt.json"
    first.save_checkpoint(path)

    resumed = _fresh(workload, window, executor=resume_executor_factory())
    resumed.load_checkpoint(path)
    assert resumed.timestamps_processed == split
    resumed_matches = list(first_matches)
    resumed_matches.extend(resumed.process_batch(records[split:]))
    resumed.close()

    assert (canonical_matches(resumed_matches)
            == canonical_matches(reference_report.matches))
    assert (canonical_matches(resumed.current_matches())
            == canonical_matches(reference.current_matches()))
    assert resumed.timestamps_processed == reference.timestamps_processed
    assert (resumed.imputer.stats.as_dict()
            == reference.imputer.stats.as_dict())
    assert (resumed.pruning.stats.pairs_considered
            == reference.pruning.stats.pairs_considered)
    assert resumed.pruning.stats.total_pruned == reference.pruning.stats.total_pruned


def test_checkpoint_roundtrip_preserves_state(health_repository, health_config):
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    posts = [
        Record(rid="a1", values={"gender": "male",
                                 "symptom": "loss of weight blurred vision",
                                 "diagnosis": "diabetes",
                                 "treatment": "drug therapy"},
               source="stream-a", timestamp=0),
        Record(rid="b1", values={"gender": "male",
                                 "symptom": "loss of weight blurred vision",
                                 "diagnosis": None,
                                 "treatment": "drug therapy"},
               source="stream-b", timestamp=0),
    ]
    for post in posts:
        engine.process(post)
    assert len(engine.result_set) == 1

    state = engine.checkpoint()
    clone = TERiDSEngine(repository=health_repository, config=health_config)
    clone.restore_checkpoint(state)

    assert clone.timestamps_processed == engine.timestamps_processed
    assert clone.result_set.pair_keys() == engine.result_set.pair_keys()
    assert len(clone.grid) == len(engine.grid)
    for synopsis in engine.grid.synopses():
        restored = clone.grid.get_synopsis(synopsis.record.rid,
                                           synopsis.record.source)
        assert restored is not None
        assert restored.distance_bounds == synopsis.distance_bounds
        assert restored.token_size_bounds == synopsis.token_size_bounds
        assert restored.may_have_keyword == synopsis.may_have_keyword
        assert restored.record.candidates == synopsis.record.candidates
    assert clone.imputer.stats.as_dict() == engine.imputer.stats.as_dict()
    assert clone.timer.totals == engine.timer.totals


def test_checkpoint_file_roundtrip_and_validation(tmp_path, health_repository,
                                                  health_config):
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    engine.process(Record(rid="a1",
                          values={"gender": "male", "symptom": "thirst",
                                  "diagnosis": "diabetes",
                                  "treatment": "insulin"},
                          source="stream-a"))
    path = tmp_path / "state.json"
    engine.save_checkpoint(path)

    # The file is a versioned envelope around the state dict.
    payload = json.loads(path.read_text())
    assert payload["format"] == "ter-ids-checkpoint"
    assert payload["version"] == 1
    assert load_checkpoint(path) == engine.checkpoint()

    # Tampered envelopes are rejected.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else", "state": {}}))
    with pytest.raises(ValueError):
        load_checkpoint(bad)
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"format": "ter-ids-checkpoint",
                                 "version": 999, "state": {}}))
    with pytest.raises(ValueError):
        load_checkpoint(stale)

    # save_checkpoint accepts any state dict (runtime owns the schema).
    save_checkpoint({"timestamps_processed": 0}, tmp_path / "minimal.json")
    assert load_checkpoint(tmp_path / "minimal.json") == {
        "timestamps_processed": 0}


def test_restore_into_smaller_window_keeps_grid_consistent(tmp_path):
    """Shrinking the window across a restore must not desync grid/windows."""
    workload = build_workload("citations", 0.4, 2)
    config = build_config(workload, 20)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    records = list(workload.interleaved_records())
    for record in records[:30]:
        engine.process(record)
    path = tmp_path / "wide.json"
    engine.save_checkpoint(path)

    shrunk = TERiDSEngine(repository=workload.repository,
                          config=config.replace(window_size=3))
    shrunk.load_checkpoint(path)
    window_total = sum(len(window) for window in shrunk.windows.values())
    assert all(len(window) <= 3 for window in shrunk.windows.values())
    assert len(shrunk.grid) == window_total
    for pair in shrunk.result_set.pairs():
        assert shrunk.grid.contains(pair.left_rid, pair.left_source)
        assert shrunk.grid.contains(pair.right_rid, pair.right_source)


def test_restore_clears_previous_online_state(health_repository, health_config):
    engine = TERiDSEngine(repository=health_repository, config=health_config)
    empty_state = engine.checkpoint()
    engine.process(Record(rid="a1",
                          values={"gender": "male", "symptom": "thirst",
                                  "diagnosis": "diabetes",
                                  "treatment": "insulin"},
                          source="stream-a"))
    assert len(engine.grid) == 1
    engine.restore_checkpoint(empty_state)
    assert len(engine.grid) == 0
    assert engine.timestamps_processed == 0
    assert len(engine.result_set) == 0
    assert all(len(window) == 0 for window in engine.windows.values())


def test_restore_accepts_legacy_transport_and_controller_keys(tmp_path):
    """Checkpoints written by older versions carry ``transport_stats`` and
    ``controller`` sections; restore ignores them and resumes exactly."""
    dataset, scale, seed, window = "citations", 0.5, 7, 40
    split = 60

    reference_workload = build_workload(dataset, scale, seed)
    reference = _fresh(reference_workload, window,
                       executor=MicroBatchExecutor(batch_size=16))
    reference_report = reference.run(reference_workload.interleaved_records())

    workload = build_workload(dataset, scale, seed)
    records = list(workload.interleaved_records())
    first = _fresh(workload, window, executor=MicroBatchExecutor(batch_size=16))
    first_matches = []
    for start in range(0, split, 16):
        first_matches.extend(first.process_batch(records[start:min(start + 16,
                                                                   split)]))
    state = first.checkpoint()
    assert "transport_stats" not in state
    assert "controller" not in state
    state["transport_stats"] = {
        "batches": 4, "bytes_shipped": 52431, "synopses_shipped": 310,
        "orders_shipped": 60, "evictions_shipped": 12, "deltas_routed": 41,
        "backfills": 3, "shm_bytes_mapped": 98304}
    state["controller"] = {
        "mode": "active", "evaluations": 4, "target_workers": 2,
        "target_max_batch": 64, "cooldown_remaining": 1,
        "last_p95_seconds": 0.012, "decisions": {"retarget_up": 2}}
    path = tmp_path / "legacy.ckpt.json"
    save_checkpoint(state, path)

    resumed = _fresh(workload, window,
                     executor=MicroBatchExecutor(batch_size=16))
    resumed.load_checkpoint(path)
    assert resumed.timestamps_processed == split
    resumed_matches = list(first_matches)
    for start in range(split, len(records), 16):
        resumed_matches.extend(resumed.process_batch(records[start:start + 16]))
    resumed.close()

    assert (canonical_matches(resumed_matches)
            == canonical_matches(reference_report.matches))
    assert (canonical_matches(resumed.current_matches())
            == canonical_matches(reference.current_matches()))
