"""Tests for reconfiguring the micro-batch executor at batch boundaries.

The executor's one settable value is ``batch_size``; it may change between
batches, and the executor may be closed and reused.  The guarantee is
**bit-identity under any such schedule**: the match set, the result set and
every pruning / grid counter equal the serial reference exactly (a
hypothesis property drives random schedules through the same assertion).
Alongside it: metric re-binding when telemetry is enabled twice.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from test_sharded_grid import _observables, _run, _small_config, _small_workload
from repro.core.engine import TERiDSEngine
from repro.obs.registry import MetricsRegistry
from repro.runtime import MicroBatchExecutor, SerialExecutor

_WORKLOAD = _small_workload()
_SERIAL = _run(_WORKLOAD, _small_config(_WORKLOAD), SerialExecutor())


def _run_with_schedule(executor, schedule):
    """Feed the workload in batches of the executor's current ``batch_size``.

    ``schedule`` maps batch index → a step applied *before* that batch is
    processed (a quiescent point): ``{"batch_size": n}`` retargets the batch
    size, ``{"close": True}`` tears the executor down before it is reused.
    """
    config = _small_config(_WORKLOAD)
    engine = TERiDSEngine(repository=_WORKLOAD.repository, config=config,
                          executor=executor)
    records = list(_WORKLOAD.interleaved_records())
    matches = []
    start = 0
    batch_index = 0
    try:
        while start < len(records):
            step = schedule.get(batch_index, {})
            if step.get("close"):
                engine.executor.close()
            if "batch_size" in step:
                engine.executor.batch_size = step["batch_size"]
            stop = start + engine.executor.batch_size
            matches.extend(engine.process_batch(records[start:stop]))
            start = stop
            batch_index += 1
        return _observables(engine, matches)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Bit-identity under forced reconfiguration schedules
# ---------------------------------------------------------------------------
def test_batch_size_retarget_schedule_is_bit_identical():
    executor = MicroBatchExecutor(batch_size=16)
    schedule = {1: {"batch_size": 4}, 3: {"batch_size": 64},
                5: {"batch_size": 1}}
    assert _run_with_schedule(executor, schedule) == _SERIAL


def test_combined_schedule_is_bit_identical():
    executor = MicroBatchExecutor(batch_size=8)
    schedule = {
        1: {"batch_size": 4, "close": True},
        3: {"batch_size": 32},
        4: {"close": True},
    }
    assert _run_with_schedule(executor, schedule) == _SERIAL


_ACTIONS = st.sampled_from([
    {"batch_size": 1}, {"batch_size": 4}, {"batch_size": 16},
    {"batch_size": 64}, {"close": True},
    {"batch_size": 8, "close": True},
])


@given(schedule=st.dictionaries(st.integers(min_value=0, max_value=8),
                                _ACTIONS, max_size=4))
@settings(max_examples=8, deadline=None)
def test_random_reconfiguration_schedules_are_bit_identical(schedule):
    executor = MicroBatchExecutor(batch_size=8)
    assert _run_with_schedule(executor, schedule) == _SERIAL


# ---------------------------------------------------------------------------
# Regression: teardown and re-binding seams
# ---------------------------------------------------------------------------
def test_executor_is_reusable_after_close():
    """close() is idempotent and not a tombstone: the executor keeps
    processing the stream afterwards."""
    config = _small_config(_WORKLOAD)
    engine = TERiDSEngine(repository=_WORKLOAD.repository, config=config,
                          executor=MicroBatchExecutor(batch_size=16))
    records = list(_WORKLOAD.interleaved_records())
    half = len(records) // 2
    matches = []
    try:
        matches.extend(engine.process_batch(records[:half]))
        engine.executor.close()
        engine.executor.close()  # idempotent
        matches.extend(engine.process_batch(records[half:]))
        assert _observables(engine, matches) == _SERIAL
    finally:
        engine.close()


def test_reenabling_telemetry_does_not_duplicate_bound_metrics():
    """Re-binding the same registry (a telemetry toggle) must replace the
    bound getters, not stack duplicates."""
    config = _small_config(_WORKLOAD)
    engine = TERiDSEngine(repository=_WORKLOAD.repository, config=config)
    try:
        registry = MetricsRegistry()
        engine.enable_telemetry(registry=registry)
        engine.enable_telemetry(registry=registry)
        text = engine.render_metrics()
        sample_lines = [line for line in text.splitlines()
                        if line.startswith("terids_batch_seq ")]
        assert len(sample_lines) == 1
        multi_lines = [line for line in text.splitlines()
                       if line.startswith("terids_ingest_batches_total")]
        assert len(multi_lines) == len(set(multi_lines))
    finally:
        engine.close()
