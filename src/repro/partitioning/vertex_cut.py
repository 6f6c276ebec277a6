"""Vertex-cut (edge-disjoint) partitioning: GraphLab's four schemes.

GraphLab/PowerGraph assigns *edges* to machines and replicates vertices
wherever their edges land (§2.1.2). The quality metric is the
*replication factor*: the average number of machines holding a replica
of each vertex (Table 4). Four placement schemes from §4.4.1:

* **Random** — hash each edge to a machine.
* **Grid** — machines form an X x Y rectangle with |X - Y| <= 2; a vertex's
  replicas are confined to one row + column cross, so an edge goes to a
  machine in the intersection of two crosses (replication <= 2 sqrt(M)).
* **PDS** — needs M = p^2 + p + 1 for prime p; constraint sets built from
  a perfect difference set intersect in exactly one machine
  (replication <= p + 1 ~= sqrt(M)).
* **Oblivious** — greedy per-edge placement that extends existing
  replica sets only when it must.

The **Auto** mode picks PDS, then Grid, then Oblivious — the first
whose machine-count requirement holds (§5.4) — which is why GraphLab's
load time zig-zags with cluster size: 16 and 64 admit a Grid, 32 and
128 fall back to Oblivious.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..graph.structures import Graph
from .memo import memoised

__all__ = [
    "EdgePartition",
    "random_edge_partition",
    "grid_partition",
    "pds_partition",
    "oblivious_partition",
    "auto_partition",
    "auto_method_for",
    "grid_dimensions",
    "pds_prime_for",
    "perfect_difference_set",
]


def _hash_ids(ids: np.ndarray, seed: int) -> np.ndarray:
    salt = np.uint64(0x9E3779B97F4A7C15 + seed)
    mixed = (ids.astype(np.uint64) + salt) * np.uint64(0xBF58476D1CE4E5B9)
    mixed ^= mixed >> np.uint64(31)
    return mixed


@dataclass(frozen=True)
class EdgePartition:
    """An assignment of every edge to one of ``num_parts`` machines."""

    graph: Graph
    num_parts: int
    part_of_edge: np.ndarray     # int64[num_edges]
    method: str

    def __post_init__(self) -> None:
        if self.part_of_edge.shape != (self.graph.num_edges,):
            raise ValueError("part_of_edge must have one entry per edge")

    @memoised
    def edge_counts(self) -> np.ndarray:
        """Edges stored per machine."""
        return np.bincount(self.part_of_edge, minlength=self.num_parts)

    def balance_skew(self) -> float:
        """Heaviest machine's extra edge load over an even split."""
        counts = self.edge_counts()
        total = counts.sum()
        if total == 0:
            return 0.0
        mean = total / self.num_parts
        return float(counts.max() / mean - 1.0)

    @memoised
    def replica_counts(self) -> np.ndarray:
        """Number of machines each vertex is replicated on (0 if isolated).

        One pass over the edges marks a (vertex, machine) bitmap at both
        endpoints of every edge; a vertex's row sum is its replica count.
        """
        parts = self.num_parts
        held = np.zeros(self.graph.num_vertices * parts, dtype=bool)
        held[self.graph.edge_sources() * parts + self.part_of_edge] = True
        held[self.graph.edge_targets() * parts + self.part_of_edge] = True
        return held.reshape(-1, parts).sum(axis=1, dtype=np.int64)

    def replication_factor(self) -> float:
        """Average replicas per non-isolated vertex (Table 4's metric)."""
        counts = self.replica_counts()
        active = counts[counts > 0]
        return float(active.mean()) if active.size else 0.0

    def vertex_master(self) -> np.ndarray:
        """The machine owning each vertex's master copy (hash-assigned)."""
        ids = np.arange(self.graph.num_vertices, dtype=np.uint64)
        return (_hash_ids(ids, 17) % np.uint64(self.num_parts)).astype(np.int64)


# -- random --------------------------------------------------------------


def random_edge_partition(graph: Graph, num_parts: int, seed: int = 0) -> EdgePartition:
    """Hash each edge to a machine."""
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    ids = np.arange(graph.num_edges, dtype=np.uint64)
    part = (_hash_ids(ids, seed) % np.uint64(num_parts)).astype(np.int64)
    return EdgePartition(graph, num_parts, part, method="random")


# -- grid ---------------------------------------------------------------


def grid_dimensions(num_parts: int, tolerance: int = 2) -> Optional[Tuple[int, int]]:
    """The most-square X x Y factorization with |X - Y| <= tolerance, if any."""
    best: Optional[Tuple[int, int]] = None
    for x in range(1, int(math.isqrt(num_parts)) + 1):
        if num_parts % x == 0:
            y = num_parts // x
            if abs(x - y) <= tolerance:
                best = (x, y)
    return best


def grid_partition(graph: Graph, num_parts: int, seed: int = 0) -> EdgePartition:
    """Grid constrained placement; requires a near-square factorization."""
    dims = grid_dimensions(num_parts)
    if dims is None:
        raise ValueError(
            f"grid partitioning needs X*Y={num_parts} with |X-Y|<=2"
        )
    rows, cols = dims
    vid = np.arange(graph.num_vertices, dtype=np.uint64)
    home = (_hash_ids(vid, seed) % np.uint64(num_parts)).astype(np.int64)
    v_row, v_col = home // cols, home % cols

    src = graph.edge_sources()
    dst = graph.edge_targets()
    # The two crosses intersect in (row_u, col_v) and (row_v, col_u);
    # pick per-edge by hash so load spreads evenly.
    cand_a = v_row[src] * cols + v_col[dst]
    cand_b = v_row[dst] * cols + v_col[src]
    eid = np.arange(graph.num_edges, dtype=np.uint64)
    pick_b = (_hash_ids(eid, seed + 1) & np.uint64(1)).astype(bool)
    part = np.where(pick_b, cand_b, cand_a).astype(np.int64)
    return EdgePartition(graph, num_parts, part, method="grid")


# -- PDS ----------------------------------------------------------------


def pds_prime_for(num_parts: int) -> Optional[int]:
    """The prime p with p^2 + p + 1 == num_parts, if one exists."""
    for p in range(2, int(math.isqrt(num_parts)) + 1):
        if p * p + p + 1 == num_parts and all(p % q for q in range(2, p)):
            return p
    return None


def perfect_difference_set(p: int) -> List[int]:
    """A perfect difference set of size p + 1 modulo p^2 + p + 1.

    Backtracking search: every non-zero residue must arise exactly once
    as a difference of two set elements (Singer difference sets exist
    for every prime p, so the search always succeeds).
    """
    modulus = p * p + p + 1
    target = [0, 1]
    used = {1, modulus - 1}

    def extend(chosen: List[int], used_diffs: set) -> Optional[List[int]]:
        if len(chosen) == p + 1:
            return chosen
        for cand in range(chosen[-1] + 1, modulus):
            diffs = set()
            ok = True
            for c in chosen:
                d1, d2 = (cand - c) % modulus, (c - cand) % modulus
                if d1 in used_diffs or d2 in used_diffs or d1 in diffs or d2 in diffs:
                    ok = False
                    break
                diffs.add(d1)
                diffs.add(d2)
            if ok:
                result = extend(chosen + [cand], used_diffs | diffs)
                if result is not None:
                    return result
        return None

    result = extend(target, set(used))
    if result is None:
        raise ValueError(f"no perfect difference set found for p={p}")
    return result


def pds_partition(graph: Graph, num_parts: int, seed: int = 0) -> EdgePartition:
    """PDS constrained placement; requires num_parts = p^2 + p + 1."""
    p = pds_prime_for(num_parts)
    if p is None:
        raise ValueError(f"PDS needs num_parts = p^2+p+1 for prime p, got {num_parts}")
    pds = perfect_difference_set(p)
    modulus = num_parts

    # For each non-zero difference d there is exactly one ordered pair
    # (s_i, s_j) in the PDS with s_i - s_j = d; the unique intersection of
    # S_u and S_v is then (s_i + u) for d = v - u.
    diff_to_si = np.zeros(modulus, dtype=np.int64)
    for si in pds:
        for sj in pds:
            if si != sj:
                diff_to_si[(si - sj) % modulus] = si
    diff_to_si[0] = pds[0]

    vid = np.arange(graph.num_vertices, dtype=np.uint64)
    home = (_hash_ids(vid, seed) % np.uint64(modulus)).astype(np.int64)
    src_home = home[graph.edge_sources()]
    dst_home = home[graph.edge_targets()]
    d = (dst_home - src_home) % modulus
    part = (diff_to_si[d] + src_home) % modulus
    return EdgePartition(graph, num_parts, part.astype(np.int64), method="pds")


# -- oblivious -----------------------------------------------------------


def oblivious_partition(
    graph: Graph, num_parts: int, seed: int = 0, imbalance_limit: float = 1.15
) -> EdgePartition:
    """Greedy heuristic placement (§4.4.1's case analysis).

    For edge (u, v) with current replica sets Su, Sv: pick the
    least-loaded machine in Su ∩ Sv, else in the non-empty one of Su/Sv,
    else in Su ∪ Sv, else anywhere. Like PowerGraph's implementation,
    a load guard overrides locality when the chosen machine would exceed
    ``imbalance_limit`` x the average load — without it a sequential
    greedy collapses the whole graph onto a handful of machines (the
    real system avoids that because each machine places its own edge
    stream concurrently).
    """
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    replicas: List[set] = [set() for _ in range(graph.num_vertices)]
    loads = np.zeros(num_parts, dtype=np.int64)
    part = np.empty(graph.num_edges, dtype=np.int64)
    src = graph.edge_sources().tolist()
    dst = graph.edge_targets().tolist()
    for e, (u, v) in enumerate(zip(src, dst)):
        su, sv = replicas[u], replicas[v]
        both = su & sv
        if both:
            candidates = both
        elif su and not sv:
            candidates = su
        elif sv and not su:
            candidates = sv
        elif su or sv:
            candidates = su | sv
        else:
            candidates = None
        if candidates is None:
            choice = int(loads.argmin())
        else:
            choice = min(candidates, key=lambda m: (loads[m], m))
            capacity = imbalance_limit * (e + 1) / num_parts
            if loads[choice] + 1 > capacity:
                choice = int(loads.argmin())
        part[e] = choice
        loads[choice] += 1
        su.add(choice)
        sv.add(choice)
    return EdgePartition(graph, num_parts, part, method="oblivious")


# -- auto ----------------------------------------------------------------


def auto_method_for(num_parts: int) -> str:
    """Which scheme Auto mode picks for a machine count (PDS > Grid > Oblivious)."""
    if pds_prime_for(num_parts) is not None:
        return "pds"
    if grid_dimensions(num_parts) is not None:
        return "grid"
    return "oblivious"


def auto_partition(graph: Graph, num_parts: int, seed: int = 0) -> EdgePartition:
    """GraphLab's Auto mode: the first applicable constrained scheme."""
    method = auto_method_for(num_parts)
    if method == "pds":
        return pds_partition(graph, num_parts, seed=seed)
    if method == "grid":
        return grid_partition(graph, num_parts, seed=seed)
    return oblivious_partition(graph, num_parts, seed=seed)
