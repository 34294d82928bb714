"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wide-window --seed 1 --seconds 30 --trace 0

Run from the repository root (the program is imported from ``src/``).
``--trace 0`` runs passes with no tracing and prints the end-to-end
metrics; ``--trace 1`` alternates passes timed at the batch level only
with fully traced passes and prints the per-layer metrics.  Passes repeat
while another one fits in ``--seconds``; at least one always runs (two in
trace mode).  Every pass is checked against the serial reference after
the timed part of the run.  Timings are at reference host speed
(:mod:`perfbench.hostspeed`).

Output: one ``# env`` line (hardware and run details), the error rate and
the raw wall-clock end-to-end values as ``#`` lines, one line per metric
(``name value unit``), then the result as the last line, a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: numpy's BLAS pool would start a thread per CPU; the benchmark runs on one.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")


#: Fewest engine constructions behind ``setup_s``: runs with fewer passes
#: build extra engines after the passes.
MIN_SETUPS = 3


def effective_cpus() -> float:
    """CPUs this process may use: affinity, capped by a cgroup CPU quota."""
    cpus = float(len(os.sched_getaffinity(0)))
    quota = None
    try:
        with open("/sys/fs/cgroup/cpu.max") as handle:
            limit, period = handle.read().split()
            if limit != "max":
                quota = int(limit) / int(period)
    except (OSError, ValueError):
        try:
            with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as handle:
                limit = int(handle.read())
            with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as handle:
                period = int(handle.read())
            if limit > 0:
                quota = limit / period
        except (OSError, ValueError):
            pass
    return min(cpus, quota) if quota else cpus


def environment(spec, args, result) -> dict:
    import numpy

    return {
        "effective_cpus": effective_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": len(os.listdir("/proc/self/task"))
        if os.path.isdir("/proc/self/task") else None,
        "workload": spec.name,
        "seed": args.seed,
        "offered_rate_tps": spec.rate,
        "loop": spec.loop,
        "run_seconds": args.seconds,
        "measured_s": round(result.elapsed_s, 3),
        "passes": len(result.passes),
        "host_factor": round(result.host_factor, 3),
        "trace": args.trace,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(passes, setups, normalise) -> dict:
    """The end-to-end metrics of a run's passes, by name.

    ``normalise(seconds, end)`` converts every timing (the host clock's
    :meth:`~perfbench.hostspeed.HostClock.normalise`, or the identity for
    raw wall-clock values).  ``setups`` holds ``(seconds, end instant)`` of
    every timed engine constructor.  Set-up time, throughput and a closed
    loop's latencies are medians over the passes; the paced loop's
    latencies and the resolve latencies are percentiles of the samples of
    all passes.
    A closed loop's tuple latency is the ``process_batch`` time spent in
    its pass up to the return of its batch; the paced loop's throughput is
    measured over its whole wall time.
    """
    from perfbench.gate import f1
    from perfbench.workloads import percentile

    throughputs, p50s, p99s, latencies, queries = [], [], [], [], []
    for p in passes:
        queries.extend(normalise(seconds, at) for at, seconds in p.queries)
        if p.batches:
            elapsed, backlog = 0.0, []
            for at, seconds, count in p.batches:
                elapsed += normalise(seconds, at)
                backlog.extend([elapsed] * count)
            throughputs.append(p.tuples / elapsed)
            p50s.append(percentile(backlog, 0.50))
            p99s.append(percentile(backlog, 0.99))
        else:
            throughputs.append(p.tuples / p.wall_s)
            latencies.extend(normalise(seconds, at)
                             for at, seconds in p.latencies)
    if latencies:
        latencies.sort()
        p50s, p99s = [percentile(latencies, 0.50)], [percentile(latencies, 0.99)]
    queries.sort()
    return {
        "setup_s": (median([normalise(*setup) for setup in setups]), "s"),
        "throughput_tps": (median(throughputs), "tuples/s"),
        "latency_p50_ms": (1e3 * median(p50s), "ms"),
        "latency_p99_ms": (1e3 * median(p99s), "ms"),
        "query_p50_ms": (1e3 * percentile(queries, 0.50), "ms"),
        "query_p95_ms": (1e3 * percentile(queries, 0.95), "ms"),
        "f1": (median([f1(p) for p in passes]), "ratio"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer_metrics(timed, traced, clock) -> dict:
    """Medians over the traced passes, times (unit ``s``) at reference
    host speed.

    ``traced`` holds ``(layer metrics, pass)`` of every traced pass.
    ``trace.overhead_pct`` compares ``process_batch`` time per tuple of the
    traced and the batch-timed passes.
    """
    from perfbench.tracing import LAYER_UNITS

    samples = []
    for metrics, p in traced:
        stream = clock.factor(p.start_at, p.end_at)
        setup = clock.factor(p.setup_end - p.setup_s, p.setup_end)
        samples.append({
            name: value / (setup if name.startswith("setup.") else stream)
            if LAYER_UNITS[name] == "s" else value
            for name, value in metrics.items()})
    values = {name: median([sample[name] for sample in samples])
              for name in samples[0]}
    busy = median([p.busy_s / p.tuples / clock.factor(p.start_at, p.end_at)
                   for p in timed])
    traced_busy = median([sample["executors.process_batch_s"] / p.tuples
                          for sample, (_, p) in zip(samples, traced)])
    values["trace.overhead_pct"] = 100.0 * (traced_busy / busy - 1.0)
    values["engine.busy_ratio"] = median([p.busy_s / p.wall_s for p in timed])
    for name in LAYER_UNITS:
        if name.startswith("ingest."):
            # Closed loops bypass the ingest layer: their counters are 0.
            values[name] = median([p.ingest.get(name[len("ingest."):], 0)
                                   for p in timed])
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


@dataclass
class Run:
    """One measured run: ``metrics`` (and, untraced, the same metrics from
    raw wall-clock times) map each name to ``(value, unit)``."""

    metrics: dict
    raw: dict
    attempted: int
    failed: int
    passes: list
    elapsed_s: float
    host_factor: float


def run(spec, seed: int, seconds: float, trace: bool, reference=None) -> Run:
    """Measure ``spec`` for about ``seconds``.

    ``reference`` overrides the serial reference (the gate's self-test).
    """
    # Imported here: ``main`` puts the program's sources on ``sys.path``.
    from perfbench.gate import check_pass, serial_reference
    from perfbench.hostspeed import HostClock
    from perfbench.tracing import Tracer, layer_metrics, traced
    from perfbench.workloads import generate_inputs, run_pass, timed_setup

    clock = HostClock()
    timed, traced_metrics, passes = [], [], []
    start = time.perf_counter()
    while True:
        if trace and len(passes) % 2 == 1:
            tracer = Tracer()
            with traced(tracer):
                result = run_pass(spec, seed, clock, len(passes))
            traced_metrics.append((layer_metrics(tracer, result.engine),
                                   result))
        else:
            result = run_pass(spec, seed, clock, len(passes),
                              time_batches=trace)
            timed.append(result)
        result.engine = None
        passes.append(result)
        elapsed = time.perf_counter() - start
        if trace and len(passes) < 2:
            continue
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    elapsed = time.perf_counter() - start
    if trace:
        metrics = per_layer_metrics(timed, traced_metrics, clock)
        raw = {}
    else:
        setups = [(p.setup_s, p.setup_end) for p in passes]
        while len(setups) < MIN_SETUPS:
            engine, setup_s, setup_end = timed_setup(
                spec, generate_inputs(spec, seed), clock)
            engine.close()
            setups.append((setup_s, setup_end))
        metrics = end_to_end_metrics(passes, setups, clock.normalise)
        raw = end_to_end_metrics(passes, setups, lambda seconds, _: seconds)

    if reference is None:
        reference = serial_reference(spec, seed)
    attempted = failed = 0
    for result in passes:
        pass_attempted, pass_failed = check_pass(result, reference)
        attempted += pass_attempted
        failed += pass_failed
    return Run(metrics=metrics, raw=raw, attempted=attempted, failed=failed,
               passes=passes, elapsed_s=elapsed,
               host_factor=statistics.median(clock.factors))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's smoke size")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import SMOKE, WORKLOADS

    table = SMOKE if args.smoke else WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(table)}", file=sys.stderr)
        return 2
    spec = table[args.workload]
    result = run(spec, args.seed, args.seconds, bool(args.trace))

    print("# env " + json.dumps(environment(spec, args, result),
                                sort_keys=True))
    print(f"# error_rate {result.failed / max(1, result.attempted)!r} ratio "
          f"({result.failed} of {result.attempted} operations)")
    if result.raw:
        print("# raw wall-clock " + json.dumps(
            {name: value for name, (value, _) in result.raw.items()}))
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
