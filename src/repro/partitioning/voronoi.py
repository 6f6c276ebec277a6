"""Blogel's Graph Voronoi Diagram (GVD) block partitioner (§2.3).

Blogel-B groups vertices into connected *blocks* and runs a serial
algorithm inside each block, synchronizing blocks with BSP. Blocks come
from a Graph Voronoi Diagram: sample seed vertices, grow regions by
multi-source BFS, re-sample (with a higher rate) for vertices left
unassigned or swallowed by oversized blocks, and finally sweep leftover
vertices into their own small blocks.

The partitioner also surfaces the quantity behind the paper's MPI
failure (§5.1): after each sampling round the master aggregates block
assignment counts from every worker; on WRN the byte offsets overflow a
32-bit int inside MPI and Blogel-B crashes. :attr:`BlockPartition.
aggregate_items_per_round` is what the Blogel engine checks against
INT32 at paper scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..graph.structures import Graph
from .memo import memoised

__all__ = ["BlockPartition", "voronoi_partition"]

INT32_MAX = 2 ** 31 - 1


@dataclass(frozen=True)
class BlockPartition:
    """Vertices grouped into blocks, blocks packed onto machines."""

    graph: Graph
    num_parts: int
    block_of: np.ndarray          # int64[num_vertices]
    machine_of_block: np.ndarray  # int64[num_blocks]
    rounds: int                   # sampling rounds the GVD needed
    aggregate_items_per_round: int  # items the master gathers each round

    @property
    def num_blocks(self) -> int:
        """Number of blocks."""
        return int(self.machine_of_block.shape[0])

    @memoised
    def machine_of_vertex(self) -> np.ndarray:
        """Machine of each vertex, via its block."""
        return self.machine_of_block[self.block_of]

    def block_sizes(self) -> np.ndarray:
        """Vertices per block."""
        return np.bincount(self.block_of, minlength=self.num_blocks)

    def machine_loads(self) -> np.ndarray:
        """Vertices per machine."""
        return np.bincount(self.machine_of_vertex(), minlength=self.num_parts)

    @memoised
    def balance_skew(self) -> float:
        """Heaviest machine's extra vertex load over an even split."""
        loads = self.machine_loads()
        total = loads.sum()
        if total == 0:
            return 0.0
        mean = total / self.num_parts
        return float(loads.max() / mean - 1.0)

    @memoised
    def cut_fraction(self) -> float:
        """Fraction of edges crossing *machines* (the network-visible cut)."""
        if self.graph.num_edges == 0:
            return 0.0
        machine = self.machine_of_vertex()
        src_m = machine[self.graph.edge_sources()]
        dst_m = machine[self.graph.edge_targets()]
        return float(np.count_nonzero(src_m != dst_m) / self.graph.num_edges)

    @memoised
    def block_cut_fraction(self) -> float:
        """Fraction of edges crossing blocks (drives Blogel-B messaging)."""
        if self.graph.num_edges == 0:
            return 0.0
        src_b = self.block_of[self.graph.edge_sources()]
        dst_b = self.block_of[self.graph.edge_targets()]
        return float(np.count_nonzero(src_b != dst_b) / self.graph.num_edges)

    def block_graph_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """The graph-of-blocks: unique (block, block) pairs and edge counts.

        Blogel-B's PageRank step 1 runs vertex-centric PageRank on this
        graph, with edge weights equal to the cross-edge counts (§3.1.2).
        """
        src_b = self.block_of[self.graph.edge_sources()]
        dst_b = self.block_of[self.graph.edge_targets()]
        cross = src_b != dst_b
        if not cross.any():
            return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
        # One int64 code per (src, dst) block pair sorts in the same
        # (src, dst) lexicographic order as a row-wise unique, without
        # np.unique(axis=0)'s void-view sort.
        num_blocks = self.num_blocks
        codes = src_b[cross].astype(np.int64) * num_blocks + dst_b[cross]
        unique_codes, counts = np.unique(codes, return_counts=True)
        unique = np.column_stack(
            [unique_codes // num_blocks, unique_codes % num_blocks]
        ).astype(src_b.dtype, copy=False)
        return unique, counts


def _multi_source_bfs(
    graph: Graph, seeds: np.ndarray, block_of: np.ndarray, max_block_size: int
) -> None:
    """Grow Voronoi cells from seeds over the undirected adjacency."""
    sizes = np.bincount(block_of[block_of >= 0], minlength=int(block_of.max() + 1)) \
        if (block_of >= 0).any() else np.zeros(0, dtype=np.int64)
    sizes = sizes.tolist()
    frontier = deque()
    for s in seeds:
        if block_of[s] >= 0:
            continue
        block = len(sizes)
        sizes.append(1)
        block_of[s] = block
        frontier.append(int(s))
    while frontier:
        v = frontier.popleft()
        b = int(block_of[v])
        if sizes[b] >= max_block_size:
            continue
        for u in np.concatenate([graph.out_neighbors(v), graph.in_neighbors(v)]):
            if block_of[u] < 0 and sizes[b] < max_block_size:
                block_of[u] = b
                sizes[b] += 1
                frontier.append(int(u))


def voronoi_partition(
    graph: Graph,
    num_parts: int,
    sample_fraction: float = 0.005,
    max_rounds: int = 5,
    max_block_fraction: float = 0.1,
    seed: int = 0,
) -> BlockPartition:
    """Blogel's default GVD partitioning.

    ``sample_fraction`` doubles each round, as Blogel does, until every
    vertex is in a block or ``max_rounds`` is exhausted; stragglers get
    swept into small per-component blocks.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    block_of = np.full(n, -1, dtype=np.int64)
    max_block_size = max(1, int(n * max_block_fraction))

    rounds = 0
    fraction = sample_fraction
    while rounds < max_rounds and (block_of < 0).any():
        unassigned = np.flatnonzero(block_of < 0)
        k = max(1, int(round(len(unassigned) * fraction)))
        seeds = rng.choice(unassigned, size=min(k, len(unassigned)), replace=False)
        _multi_source_bfs(graph, seeds, block_of, max_block_size)
        fraction = min(1.0, fraction * 2.0)
        rounds += 1

    # Sweep: any vertex still unassigned becomes a block with its
    # still-unassigned connected neighbourhood.
    next_block = int(block_of.max()) + 1
    for v in range(n):
        if block_of[v] >= 0:
            continue
        block_of[v] = next_block
        stack = [v]
        size = 1
        while stack and size < max_block_size:
            w = stack.pop()
            for u in np.concatenate([graph.out_neighbors(w), graph.in_neighbors(w)]):
                if block_of[u] < 0:
                    block_of[u] = next_block
                    size += 1
                    stack.append(int(u))
        next_block += 1

    num_blocks = int(block_of.max()) + 1 if n else 0
    # Greedy bin packing: largest blocks first onto the least-loaded machine.
    sizes = np.bincount(block_of, minlength=num_blocks)
    machine_of_block = np.zeros(num_blocks, dtype=np.int64)
    loads = np.zeros(num_parts, dtype=np.int64)
    for b in np.argsort(sizes)[::-1]:
        m = int(loads.argmin())
        machine_of_block[b] = m
        loads[m] += sizes[b]

    return BlockPartition(
        graph=graph,
        num_parts=num_parts,
        block_of=block_of,
        machine_of_block=machine_of_block,
        rounds=rounds,
        aggregate_items_per_round=n,
    )
