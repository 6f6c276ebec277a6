"""Figure 11: GraphX's uneven partition placement on a 128-machine cluster.

A balanced distribution of UK0705's 1200 partitions over 128 machines
would put ~9.4 on each; the paper observed one machine holding 54.
"""

import numpy as np

from benchmarks.common import once, write_output

from repro.analysis import histogram
from repro.engines.spark import partition_placement


def measure():
    return partition_placement("uk0705", 1200, 127)


def test_fig11_partition_imbalance(benchmark):
    counts = once(benchmark, measure)
    text = histogram(
        counts.tolist(), bins=10,
        title=("Figure 11: partitions per machine, UK0705 (1200 partitions, "
               f"128 machines; fair share = {1200 / 127:.1f})"),
    )
    text += f"\nmax = {counts.max()} partitions on one machine"
    write_output("fig11_partition_balance", text)

    fair = 1200 / 127
    assert counts.sum() == 1200
    # the most loaded machine holds several times the fair share
    # (the paper observed 54 vs 9.4)
    assert counts.max() > 3 * fair
    # while the median machine sits near or below the fair share
    assert np.median(counts) <= fair * 1.5
