"""Degrees and component structure of a directed multigraph.

Degree conventions: d_in and d_out count non-loop arcs only; loops are
reported separately and contribute once (not twice) to the total degree.
Reachability is reflexive, so v always belongs to its own forward and
backward clusters and every strong class is nonempty.  Multiplicities are
irrelevant to reachability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .digraph import MultiDigraph

__all__ = [
    "degree_arrays",
    "forward_cluster_sizes",
    "forward_cluster_size",
    "backward_cluster_size",
    "ComponentSummary",
    "strong_components",
    "weak_components",
    "component_summary",
]


@dataclass(frozen=True)
class DegreeArrays:
    """Columnar degrees for vertices 1..n (index i holds vertex i + 1)."""

    d_in: np.ndarray
    d_out: np.ndarray
    loops: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.d_in + self.d_out + self.loops


def degree_arrays(g: MultiDigraph) -> DegreeArrays:
    """Loop-excluded in/out degrees plus per-vertex loop counts."""
    off = ~g.loop_mask
    minlength = g.n + 1
    d_out = np.bincount(g.src[off], weights=g.mult[off], minlength=minlength)[1:]
    d_in = np.bincount(g.dst[off], weights=g.mult[off], minlength=minlength)[1:]
    loops = np.bincount(
        g.src[g.loop_mask], weights=g.mult[g.loop_mask], minlength=minlength
    )[1:]
    return DegreeArrays(
        d_in=d_in.astype(np.int64),
        d_out=d_out.astype(np.int64),
        loops=loops.astype(np.int64),
    )


# -- reachability -------------------------------------------------------------

# roots per traversal: one bit of a uint64 mask per root
_BLOCK = 64
_BITS = np.left_shift(np.uint64(1), np.arange(_BLOCK, dtype=np.uint64))


def _roots0(g: MultiDigraph, roots) -> np.ndarray:
    """0-based ids of 1-based ``roots``; ValueError on an id outside 1..n."""
    roots = np.asarray(roots, dtype=np.int64).reshape(-1)
    bad = roots[(roots < 1) | (roots > g.n)]
    if bad.size:
        raise ValueError(f"vertex {bad[0]} out of range 1..{g.n}")
    return roots - 1


def _cluster_sizes(indptr: np.ndarray, nbrs: np.ndarray, roots0: np.ndarray, n: int) -> np.ndarray:
    """Number of vertices reachable from each 0-based root over a CSR, itself included.

    Multi-source BFS (Then et al., PVLDB 8(4), 2014), one block of up to
    64 roots per traversal: bit j of a vertex's uint64 mask means
    "reachable from root j".  Each level ORs the frontier's newly gained
    bits into its out-neighbours, and the next frontier is the vertices
    whose mask changed, so a vertex gains each bit exactly once.
    """
    sizes = np.zeros(roots0.size, dtype=np.int64)
    for lo in range(0, roots0.size, _BLOCK):
        # a repeated root is one frontier entry per copy, each with its own bit
        frontier = roots0[lo : lo + _BLOCK]
        k = frontier.size
        gained = _BITS[:k]
        mask = np.zeros(n, dtype=np.uint64)
        np.bitwise_or.at(mask, frontier, gained)
        levels = [gained]
        while frontier.size:
            starts = indptr[frontier]
            lengths = indptr[frontier + 1] - starts
            ends = np.cumsum(lengths)
            if ends[-1] == 0:
                break
            # gather the ragged adjacency slices of the whole frontier at once
            targets = nbrs[np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)]
            carried = np.repeat(gained, lengths)
            # OR the bits arriving at each distinct target in one pass
            order = np.argsort(targets)
            targets, carried = targets[order], carried[order]
            first = np.empty(targets.size, dtype=bool)
            first[0] = True
            np.not_equal(targets[1:], targets[:-1], out=first[1:])
            first = np.flatnonzero(first)
            targets = targets[first]
            gained = np.bitwise_or.reduceat(carried, first) & ~mask[targets]
            changed = gained != 0
            frontier, gained = targets[changed], gained[changed]
            mask[frontier] |= gained
            levels.append(gained)
        # per-bit counts of the gained bits; the little-endian byte view puts
        # bit j in column j whatever the host byte order
        reached = np.concatenate(levels).astype("<u8").view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(reached, axis=1, count=k, bitorder="little")
        sizes[lo : lo + k] = bits.sum(axis=0)
    return sizes


def forward_cluster_sizes(g: MultiDigraph, roots) -> np.ndarray:
    """Forward-cluster size of every root (1-based ids), in the order given.

    Exact; one bit-parallel traversal serves up to 64 roots, and working
    memory is O(n) whatever the number of roots.
    """
    return _cluster_sizes(*g._out_csr, _roots0(g, roots), g.n)


def forward_cluster_size(g: MultiDigraph, v: int) -> int:
    """Size of the forward cluster of v without materializing the set."""
    return int(forward_cluster_sizes(g, [v])[0])


def backward_cluster_size(g: MultiDigraph, v: int) -> int:
    """Size of the backward cluster of v without materializing the set."""
    return int(_cluster_sizes(*g._in_csr, _roots0(g, [v]), g.n)[0])


# -- components ---------------------------------------------------------------


@dataclass(frozen=True)
class ComponentSummary:
    """Partition labels (0-based arrays over vertices 1..n) and sizes.

    Either partition may be absent (None) when only one was requested.
    """

    n: int
    strong_labels: np.ndarray | None = None
    weak_labels: np.ndarray | None = None

    @staticmethod
    def _sizes(labels: np.ndarray) -> np.ndarray:
        return np.sort(np.bincount(labels))[::-1]

    @property
    def strong_sizes(self) -> np.ndarray:
        if self.strong_labels is None:
            raise ValueError("strong partition not computed")
        return self._sizes(self.strong_labels)

    @property
    def weak_sizes(self) -> np.ndarray:
        if self.weak_labels is None:
            raise ValueError("weak partition not computed")
        return self._sizes(self.weak_labels)

    @property
    def largest_strong(self) -> int:
        return int(self.strong_sizes[0])

    @property
    def largest_weak(self) -> int:
        return int(self.weak_sizes[0])

    def to_json(self, topk: int = 5) -> str:
        obj = {
            "n": self.n,
            "largest_weak": self.largest_weak if self.weak_labels is not None else None,
            "largest_strong": self.largest_strong if self.strong_labels is not None else None,
            "weak_sizes_topk": (
                self.weak_sizes[:topk].tolist() if self.weak_labels is not None else None
            ),
            "strong_sizes_topk": (
                self.strong_sizes[:topk].tolist() if self.strong_labels is not None else None
            ),
        }
        return json.dumps(obj, sort_keys=True)


def _adjacency(g: MultiDigraph) -> csr_matrix:
    data = np.ones(g.src.size, dtype=np.int8)
    return csr_matrix((data, (g.src - 1, g.dst - 1)), shape=(g.n, g.n))


def strong_components(g: MultiDigraph) -> ComponentSummary:
    """Partition into strongly connected classes (linear time)."""
    _, labels = connected_components(_adjacency(g), directed=True, connection="strong")
    return ComponentSummary(n=g.n, strong_labels=labels)


def weak_components(g: MultiDigraph) -> ComponentSummary:
    """Partition into components of the direction-blind graph."""
    _, labels = connected_components(_adjacency(g), directed=True, connection="weak")
    return ComponentSummary(n=g.n, weak_labels=labels)


def component_summary(g: MultiDigraph) -> ComponentSummary:
    """Both partitions in one summary."""
    adj = _adjacency(g)
    _, strong = connected_components(adj, directed=True, connection="strong")
    _, weak = connected_components(adj, directed=True, connection="weak")
    return ComponentSummary(n=g.n, strong_labels=strong, weak_labels=weak)
