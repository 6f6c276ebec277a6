"""The benchmark harness: one module per reproduced table/figure.

A package, so the figure tests import their shared helpers as
``benchmarks.common`` and the fleet-charging micro-benchmark runs as
``python -m benchmarks.bench_fleet``.
"""
