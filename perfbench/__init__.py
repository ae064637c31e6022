"""Repository benchmark: end-to-end and per-layer metrics for ``repro``.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload.  See ``perfbench/README.md`` for the workloads, the
metrics and the layer-to-metric predictions.
"""
