"""The repository's benchmark: TER-iDS workloads measured end to end and
layer by layer.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run; both check every answer against the serial reference.
"""
