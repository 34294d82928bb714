"""Smoke tests of the benchmark: every named metric is emitted with its
unit, the correctness gate runs and catches a wrong answer, and the
command line keeps its output contract."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.core.matching import MatchPair

from perfbench.gate import check_pass, resolve_failures, serial_reference
from perfbench.hostspeed import HostClock
from perfbench.run import run
from perfbench.workloads import SMOKE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def _units(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_benchmark_json_names_the_workloads():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (spec.name, spec.why) for spec in WORKLOADS.values()]
    assert set(SMOKE) == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_end_to_end_metrics_emitted_and_gate_passes(workload):
    result = run(SMOKE[workload], seed=3, seconds=0.01, trace=False)
    for metrics in (result.metrics, result.raw):
        assert {name: unit for name, (_, unit) in metrics.items()} == \
            _units("end_to_end")
        assert all(value > 0 for value, _ in metrics.values()), metrics
    assert result.attempted >= len(result.passes[0].keys)
    assert result.failed == 0
    assert result.passes[0].resolves, "every workload resolves entities"
    assert result.host_factor > 0


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_per_layer_metrics_emitted(workload):
    result = run(SMOKE[workload], seed=3, seconds=0.01, trace=True)
    metrics = result.metrics
    assert {name: unit for name, (_, unit) in metrics.items()} == \
        _units("per_layer")
    assert len(result.passes) >= 2 and result.failed == 0
    assert metrics["executors.process_batch_calls"][0] > 0
    assert 90 <= metrics["trace.coverage_pct"][0] <= 100
    if SMOKE[workload].loop == "paced":
        assert metrics["ingest.batches"][0] > 0


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "layer_map.json")) as handle:
        layers = json.load(handle)["layers"]
    mapped = [name for layer in layers for name in layer["metrics"]]
    assert sorted(mapped) == sorted(_units("per_layer"))
    workloads = set(WORKLOADS) | {"*"}
    end_to_end = set(_units("end_to_end")) | {"*"}
    for layer in layers:
        for claim in layer["should_move"] + layer["should_not_move"]:
            assert claim["workload"] in workloads, claim
            assert claim["metric"] in end_to_end, claim


def test_gate_counts_an_altered_reference_pair():
    spec = SMOKE["wide-window"]
    reference = serial_reference(spec, seed=3)
    key = next(key for key, rows in sorted(reference.items()) if rows)
    right_source, right_rid, probability = reference[key][0]
    reference[key] = ((right_source, right_rid, probability * 0.5),) + \
        reference[key][1:]
    result = run(spec, seed=3, seconds=0.01, trace=False, reference=reference)
    assert result.failed >= 1 and result.failed / result.attempted > 0


def test_gate_counts_a_cluster_that_differs_from_the_closure():
    spec = SMOKE["paced-mixed"]
    reference = serial_reference(spec, seed=3)
    measured = run(spec, seed=3, seconds=0.01, trace=False, reference=reference)
    assert measured.failed == 0
    result = measured.passes[0]
    call = result.resolves[0]
    call.snapshot = list(call.snapshot) + [MatchPair(
        left_rid=call.rid, left_source=call.source, right_rid="ghost",
        right_source="elsewhere", probability=0.9)]
    assert resolve_failures(result) == 1
    assert check_pass(result, reference)[1] == 1


def test_host_clock_divides_each_timing_by_the_calibrations_around_it():
    clock = HostClock()
    # Reference speed for the first two seconds, then twice as slow.
    clock.instants = [0.1 * step for step in range(40)]
    clock.factors = [1.0 if at < 2.0 else 2.0 for at in clock.instants]
    assert clock.normalise(0.3, end=1.0) == pytest.approx(0.3)
    assert clock.normalise(0.3, end=3.5) == pytest.approx(0.15)
    # Past the last calibration the nearest ones still set the factor.
    assert clock.factor(10.0, 10.5) == 2.0
    measured = HostClock()
    measured.sample(2)
    assert len(measured.instants) == len(measured.factors) == 2
    assert all(factor > 0 for factor in measured.factors)


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120)


def test_command_line_prints_the_result_last():
    out = _cli(ROOT, "--workload", "impute-heavy", "--seed", "2",
               "--seconds", "0.01", "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert lines[0].startswith("# env ")
    env = json.loads(lines[0][len("# env "):])
    assert env["seed"] == 2 and env["effective_cpus"] > 0


def test_command_line_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli(tmp_path, "--workload", "wide-window", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
