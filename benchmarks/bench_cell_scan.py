"""Columnar ER-grid cell scan: vectorized kernel vs the scalar cell walk.

The cell-level aggregate test of ``candidate_synopses`` (min converted-space
L1 distance of the query rectangle to every cell) evaluated per cell in
Python — the walk the ``SerialExecutor`` takes — vs one
:func:`~repro.core.pruning.batch_cell_scan` kernel call over the columnar
:class:`~repro.indexes.er_grid.CellStore` — the scan the
``MicroBatchExecutor`` takes.  Masks are asserted identical; the
acceptance bar is >= 3x (median over repeats) at >= 100 cells.

Run directly::

    PYTHONPATH=src python benchmarks/bench_cell_scan.py [--json] [--smoke]
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_utils import (  # noqa: E402
    bench_argument_parser,
    effective_cpus,
    write_bench_json,
)
from repro.core.config import TERiDSConfig  # noqa: E402
from repro.core.engine import TERiDSEngine  # noqa: E402
from repro.datasets.synthetic import generate_dataset  # noqa: E402
from repro.experiments.harness import format_rows  # noqa: E402
from repro.metrics.timing import now  # noqa: E402

BENCH_NAME = "cell_scan"
BENCH_DATASET = "citations"
BENCH_SEED = 7
SCAN_TARGET_SPEEDUP = 3.0
SCAN_TARGET_CELLS = 100


def run_scan_bench(smoke: bool = False,
                   params_out: Optional[Dict[str, object]] = None,
                   ) -> Dict[str, object]:
    tuples, window, cells_per_dim = (120, 60, 8) if smoke else (600, 300, 24)
    queries, repeats = (10, 2) if smoke else (50, 5)
    scale = 0.5 if smoke else 3.0
    if params_out is not None:
        params_out.update({"tuples": tuples, "window": window,
                           "cells_per_dim": cells_per_dim, "scale": scale,
                           "queries": queries, "repeats": repeats})
    workload = generate_dataset(BENCH_DATASET, missing_rate=0.3, scale=scale,
                                seed=BENCH_SEED)
    config = TERiDSConfig(schema=workload.schema, keywords=workload.keywords,
                          alpha=0.5, similarity_ratio=0.5,
                          window_size=window, grid_cells_per_dim=cells_per_dim)
    engine = TERiDSEngine(repository=workload.repository, config=config)
    engine.run(workload.interleaved_records()[:tuples])
    grid = engine.grid
    store = grid.enable_cell_store()
    query_synopses = grid.synopses()[:queries]
    margin = len(config.schema) - config.gamma

    def scalar_masks() -> List[List[bool]]:
        masks = []
        for query in query_synopses:
            rectangle = query.coordinate_rectangle()
            masks.append([
                grid._cell_min_distance(cell, rectangle) < margin
                for cell in grid._cells.values()
            ])
        return masks

    def vectorized_masks() -> List[List[bool]]:
        masks = []
        for query in query_synopses:
            alive = store.scan(query.coordinate_rectangle(), margin,
                               require_keyword=False)
            masks.append([bool(alive[store.row_of(coordinates)])
                          for coordinates in grid._cells])
        return masks

    def vectorized_scans() -> None:
        for query in query_synopses:
            store.scan(query.coordinate_rectangle(), margin,
                       require_keyword=False)

    identical = scalar_masks() == vectorized_masks()  # also warms both paths
    scalar_rates: List[float] = []
    vector_rates: List[float] = []
    speedups: List[float] = []
    for _ in range(repeats):
        start = now()
        scalar_masks()
        scalar_seconds = now() - start
        start = now()
        vectorized_scans()
        vector_seconds = now() - start
        scalar_rates.append(queries / scalar_seconds)
        vector_rates.append(queries / vector_seconds)
        speedups.append(scalar_seconds / vector_seconds)

    return {
        "cells": grid.cell_count,
        "scans_timed": queries * repeats,
        "scalar_scans_per_sec": round(statistics.median(scalar_rates), 1),
        "vectorized_scans_per_sec": round(statistics.median(vector_rates), 1),
        "speedup": round(statistics.median(speedups), 2),
        "speedup_min": round(min(speedups), 2),
        "speedup_max": round(max(speedups), 2),
        "masks_identical": identical,
    }


def main(argv=None) -> int:
    parser = bench_argument_parser(
        "Columnar ER-grid: vectorized cell scan vs the scalar cell walk")
    args = parser.parse_args(argv)
    scan_params: Dict[str, object] = {}
    scan_row = run_scan_bench(smoke=args.smoke, params_out=scan_params)
    cpus = effective_cpus()
    print(f"=== vectorized cell scan vs scalar walk "
          f"({scan_row['cells']} cells, {cpus} effective cpu(s)) ===")
    print(format_rows([scan_row]))
    if not scan_row["masks_identical"]:
        print("FAIL: the vectorized cell scan changed a cell mask")
        return 1
    print(f"\ncell-scan speedup at {scan_row['cells']} cells: "
          f"{scan_row['speedup']:.2f}x median "
          f"[{scan_row['speedup_min']:.2f}x, {scan_row['speedup_max']:.2f}x] "
          f"(target: >= {SCAN_TARGET_SPEEDUP}x at >= {SCAN_TARGET_CELLS} "
          f"cells)")

    if args.json is not None:
        write_bench_json(BENCH_NAME, {
            "cell_scan": {"row": scan_row, "params": scan_params,
                          "target_speedup": SCAN_TARGET_SPEEDUP,
                          "target_cells": SCAN_TARGET_CELLS},
            "cpus": os.cpu_count(),
            "effective_cpus": cpus,
            "smoke": args.smoke,
        }, path=args.json or None)
    if args.smoke:
        return 0
    ok = (scan_row["speedup"] >= SCAN_TARGET_SPEEDUP
          and scan_row["cells"] >= SCAN_TARGET_CELLS)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
