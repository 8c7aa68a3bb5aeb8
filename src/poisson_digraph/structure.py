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


def _check_vertex(g: MultiDigraph, v: int) -> None:
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} out of range 1..{g.n}")


def _reach_mask(indptr: np.ndarray, nbrs: np.ndarray, start: int, n: int) -> np.ndarray:
    """Boolean mask of vertices reachable from 0-based ``start``."""
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            break
        # gather the ragged adjacency slices of the whole frontier at once
        offsets = np.repeat(starts, lengths)
        within = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        nxt = nbrs[offsets + within]
        nxt = nxt[~visited[nxt]]
        if nxt.size == 0:
            break
        frontier = np.unique(nxt)
        visited[frontier] = True
    return visited


def forward_cluster_size(g: MultiDigraph, v: int) -> int:
    """Size of the forward cluster of v without materializing the set."""
    _check_vertex(g, v)
    indptr, nbrs = g._out_csr
    return int(_reach_mask(indptr, nbrs, v - 1, g.n).sum())


def backward_cluster_size(g: MultiDigraph, v: int) -> int:
    """Size of the backward cluster of v without materializing the set."""
    _check_vertex(g, v)
    indptr, nbrs = g._in_csr
    return int(_reach_mask(indptr, nbrs, v - 1, g.n).sum())


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
