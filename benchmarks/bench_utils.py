"""Shared helpers for the per-figure benchmark scripts.

Every benchmark regenerates one table or figure of the paper at reduced
scale: it calls the corresponding runner from
:mod:`repro.experiments.figures`, prints the resulting rows (the same
dataset × method × parameter series the paper plots) and registers one
representative measurement with ``pytest-benchmark`` so that
``pytest benchmarks/ --benchmark-only`` also produces machine-readable
timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

# Allow running the benches without an installed package (offline setups).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.harness import format_rows  # noqa: E402

#: Scale / window used by every bench.  Chosen so the suite finishes in a few
#: minutes while remaining large enough for the paper's relative method
#: orderings (TER-iDS fastest among repository-based methods, DD+ER slowest)
#: to emerge from the noise.
BENCH_SCALE = 0.5
BENCH_WINDOW = 40
BENCH_SEED = 7

#: Dataset subsets: the quick set keeps sweeps cheap, the full set is used by
#: the per-dataset figures (4, 5, 6, 12) that the paper reports on all five.
QUICK_DATASETS = ("citations", "anime")
FULL_DATASETS = ("citations", "anime", "bikes", "ebooks", "songs")


def run_figure(benchmark, runner: Callable[..., List[Dict[str, object]]],
               title: str, **kwargs) -> List[Dict[str, object]]:
    """Execute a figure runner once under pytest-benchmark and print its rows."""
    rows = benchmark.pedantic(lambda: runner(**kwargs), rounds=1, iterations=1)
    print(f"\n=== {title} ===")
    print(format_rows(rows))
    return rows


def effective_cpus() -> int:
    """Schedulable CPUs of this process (cgroup/affinity aware).

    ``os.cpu_count()`` reports the host's cores; a containerised bench can
    be pinned to far fewer.  Every ``BENCH_*.json`` stamps this number so
    its rows state the hardware they were measured on.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Machine-readable benchmark output (--json)
# ---------------------------------------------------------------------------
def bench_argument_parser(description: str) -> argparse.ArgumentParser:
    """The shared CLI of the standalone runtime benches.

    ``--json`` writes a ``BENCH_<name>.json`` next to the working directory
    (or to an explicit path) so that the perf trajectory can be tracked
    across PRs; ``--smoke`` shrinks the workload to a CI-sized smoke run
    that exercises the same code paths without the wall-clock cost.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help="write machine-readable results to BENCH_<name>.json "
             "(or to PATH when given)")
    parser.add_argument(
        "--smoke", action="store_true",
        help="run a tiny CI smoke workload instead of the full bench")
    return parser


def write_bench_json(name: str, payload: Dict[str, object],
                     path: Optional[str] = None) -> Path:
    """Write one bench's results as ``BENCH_<name>.json`` and return the path."""
    target = Path(path) if path else Path.cwd() / f"BENCH_{name}.json"
    document = {
        "bench": name,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **payload,
    }
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return target
