"""The elasticity benchmark, runnable from the repo root::

    PYTHONPATH=src python -m benchmarks.bench_elastic [--jobs N] [-o FILE]

Runs the tiny rescale grid (one system per Table 1 recovery mechanism,
scale-out and scale-in at two superstep timings), gates on bit-equal
answers, and writes the record to ``BENCH_elastic.json`` — the same
entry point as ``repro bench-elastic`` (see :mod:`repro.chaos.bench`).
"""

import sys

from repro.chaos.bench import main

if __name__ == "__main__":
    sys.exit(main())
