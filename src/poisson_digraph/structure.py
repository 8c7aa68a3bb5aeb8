"""Degrees and component structure of a directed multigraph.

Degree conventions: d_in and d_out count non-loop arcs only; loops are
reported separately and contribute once (not twice) to the total degree.
Reachability is reflexive, so v always belongs to its own forward and
backward clusters and every strong class is nonempty.  Multiplicities are
irrelevant to reachability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .digraph import _CHUNK_ROWS, MultiDigraph

__all__ = [
    "DegreeArrays",
    "degree_arrays",
    "forward_cluster_sizes",
    "forward_cluster_size",
    "backward_cluster_sizes",
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

    def max_total(self) -> int:
        """The largest entry of ``total``, summed a vertex chunk at a time."""
        best = 0
        for lo in range(0, self.d_in.size, _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            best = max(best, int((self.d_in[rows] + self.d_out[rows] + self.loops[rows]).max()))
        return best


def degree_arrays(g: MultiDigraph) -> DegreeArrays:
    """Loop-excluded in/out degrees plus per-vertex loop counts, exact int64 sums.

    The arrays are read-only and computed once per graph.
    """
    d_in, d_out, loops = g._degrees
    return DegreeArrays(d_in=d_in, d_out=d_out, loops=loops)


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
    return _cluster_sizes(g._indptr, g.dst - 1, _roots0(g, roots), g.n)


def forward_cluster_size(g: MultiDigraph, v: int) -> int:
    """Size of the forward cluster of v without materializing the set."""
    return int(forward_cluster_sizes(g, [v])[0])


def backward_cluster_sizes(g: MultiDigraph, roots) -> np.ndarray:
    """Backward-cluster size of every root (1-based ids), in the order given.

    Forward clusters over the reversed arcs: one sort by target builds
    the reversed CSR once per call, whatever the number of roots.
    """
    roots0 = _roots0(g, roots)
    order = np.argsort(g.dst)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(g.dst - 1, minlength=g.n))))
    return _cluster_sizes(indptr, g.src[order] - 1, roots0, g.n)


# -- components ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComponentSummary:
    """Strong and weak partitions of one graph, each computed on first read.

    Labels are 0-based arrays over vertices 1..n, numbered as scipy's
    ``connected_components`` numbers them.  Weak labels read after the
    strong ones come from the smaller strong condensation.
    """

    n: int
    adjacency: csr_matrix = field(repr=False)

    @cached_property
    def strong_labels(self) -> np.ndarray:
        return connected_components(self.adjacency, directed=True, connection="strong")[1]

    @cached_property
    def weak_labels(self) -> np.ndarray:
        if "strong_labels" not in self.__dict__:
            return connected_components(self.adjacency, directed=True, connection="weak")[1]
        # weak classes are unions of strong ones: label the condensation, one
        # node per strong class and the arcs between classes, not the graph
        strong = self.strong_labels
        tails = np.repeat(strong, np.diff(self.adjacency.indptr))
        heads = strong[self.adjacency.indices]
        cross = tails != heads
        tails, heads = tails[cross], heads[cross]
        del cross
        k = int(strong.max()) + 1
        condensation = csr_matrix((np.ones(tails.size), (tails, heads)), shape=(k, k))
        del tails, heads
        labels = connected_components(condensation, directed=False)[1][strong]
        # scipy numbers weak classes in the order of their smallest vertex
        first = np.full(int(labels.max()) + 1, self.n)
        np.minimum.at(first, labels, np.arange(self.n))
        rank = np.empty(first.size, dtype=labels.dtype)
        rank[np.argsort(first)] = np.arange(first.size)
        return rank[labels]

    @staticmethod
    def _sizes(labels: np.ndarray) -> np.ndarray:
        return np.sort(np.bincount(labels))[::-1]

    @property
    def strong_sizes(self) -> np.ndarray:
        return self._sizes(self.strong_labels)

    @property
    def weak_sizes(self) -> np.ndarray:
        return self._sizes(self.weak_labels)

    # the largest class count, without sorting every class size
    @property
    def largest_strong(self) -> int:
        return int(np.bincount(self.strong_labels).max())

    @property
    def largest_weak(self) -> int:
        return int(np.bincount(self.weak_labels).max())

    def to_json(self, topk: int = 5) -> str:
        # strong first, so the weak labels come from its condensation
        strong, weak = self.strong_sizes, self.weak_sizes
        obj = {
            "n": self.n,
            "largest_weak": int(weak[0]),
            "largest_strong": int(strong[0]),
            "weak_sizes_topk": weak[:topk].tolist(),
            "strong_sizes_topk": strong[:topk].tolist(),
        }
        return json.dumps(obj, sort_keys=True)


def component_summary(g: MultiDigraph) -> ComponentSummary:
    """Strong and weak partitions of g (linear time each), computed on first read.

    The adjacency's offsets and column ids are int32, the index type
    scipy's graph routines take without a copy, up to 2**31 - 1 vertices
    and arcs, and int64 above.  A caller that hands over its only
    reference to g frees each graph array once it has been read.
    """
    n = g.n
    index = np.int32 if max(n, g.src.size) <= np.iinfo(np.int32).max else np.int64
    src, dst = g.src, g.dst
    del g
    indptr = np.cumsum(np.bincount(src, minlength=n + 1), dtype=index)
    del src
    indices = dst.astype(index)
    del dst
    indices -= 1
    # the routines read no weight, but take float64 data without a copy: one
    # value, broadcast, serves every arc
    ones = np.broadcast_to(np.float64(1.0), indices.shape)
    return ComponentSummary(n, csr_matrix((ones, indices, indptr), shape=(n, n)))


# names for callers that read one partition; the other is never computed
strong_components = component_summary
weak_components = component_summary
