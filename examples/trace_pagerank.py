#!/usr/bin/env python
"""Trace one PageRank run: spans, metrics, journal, and the exporters.

The paper's evaluation was log-driven (§4.2): per-second resource
series on every machine, analysed offline. `repro.obs` gives each
simulated run the same story as one deterministic journal — a tree of
spans on the simulated clock plus a typed metrics registry. This
example records a Blogel-V PageRank cell, prints the terminal timeline,
compares the superstep shape against a block-centric engine, and writes
the Chrome trace + per-superstep CSV next to this script's output dir.

Run:  python examples/trace_pagerank.py
"""

from pathlib import Path

from repro import load_dataset, run_cell
from repro.obs.export import (render_summary, superstep_rows, write_chrome,
                              write_superstep_csv)

OUT_DIR = Path("trace_pagerank_out")


def main() -> None:
    dataset = load_dataset("twitter", "small")

    # Every run records spans and metrics; nothing to switch on.
    result = run_cell("BV", "pagerank", dataset, cluster_size=16)
    journal = result.observation

    print(render_summary(journal, top=5))

    # The registry behind result.extras: typed counters and histograms.
    print(f"\nmessages sent : {result.metrics.value('messages_sent'):,.0f}")
    print(f"bytes shuffled: {result.metrics.value('bytes_shuffled') / 1e9:.1f} GB")
    seconds = result.metrics.histogram("superstep_seconds")
    print(f"superstep time: mean {seconds.mean:.2f} s over {seconds.count} steps")

    # Per-superstep series — the rows behind Table 6 / Figure 10.
    rows = superstep_rows(journal)
    print("\nfirst three supersteps:")
    for row in rows[:3]:
        print(f"  iter {row['iteration']:>2}: {row['duration_s']:6.2f} s, "
              f"{row['messages']:>8,} messages, "
              f"{row['bytes_shuffled'] / 1e9:6.2f} GB shuffled")

    # A block-centric engine shows a different span shape: WCC on
    # Blogel-B nests an in-block fixpoint inside every outer round
    # (PageRank stays vertex-centric in its step 2, §3.1.2).
    block = run_cell("BB", "wcc", dataset, cluster_size=16)
    block_journal = block.observation
    locals_per_round = [
        span["args"].get("local_steps", 0)
        for span in block_journal.supersteps()
    ]
    print(f"\nBlogel-B WCC runs {len(locals_per_round)} block-centric "
          f"rounds, each an in-block fixpoint of up to "
          f"{max(locals_per_round)} local steps")

    OUT_DIR.mkdir(exist_ok=True)
    journal.write(OUT_DIR / "pagerank_bv.jsonl")
    events = write_chrome(journal, OUT_DIR / "pagerank_bv_chrome.json")
    steps = write_superstep_csv(journal, OUT_DIR / "pagerank_bv_steps.csv")
    print(f"\nwrote {OUT_DIR}/: journal, Chrome trace ({events} events — "
          f"load it in Perfetto), CSV ({steps} rows)")


if __name__ == "__main__":
    main()
