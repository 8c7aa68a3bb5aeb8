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

from . import digraph
from .digraph import (
    MultiDigraph, _arc_codes, _chunks, _code_rows, _Columns, _fold_blocks, _last_increasing_code,
    _run_starts,
)

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
        for rows in _chunks(self.d_in.size):
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


def _cluster_sizes(adjacency: csr_matrix, roots) -> np.ndarray:
    """Number of vertices reachable from each 1-based root over a CSR, itself included.

    Multi-source BFS (Then et al., PVLDB 8(4), 2014), one block of up to
    64 roots per traversal: bit j of a vertex's uint64 mask means
    "reachable from root j".  Each level ORs the frontier's newly gained
    bits into its out-neighbours, and the next frontier is the vertices
    whose mask changed, so a vertex gains each bit exactly once.  Raises
    ValueError on a root outside 1..n.
    """
    n, nbrs = adjacency.shape[0], adjacency.indices
    roots = np.asarray(roots, dtype=np.int64).reshape(-1)
    bad = roots[(roots < 1) | (roots > n)]
    if bad.size:
        raise ValueError(f"vertex {bad[0]} out of range 1..{n}")
    # int32 offsets and targets widened once, not in every index operation
    indptr = adjacency.indptr.astype(np.intp, copy=False)
    sizes = np.zeros(roots.size, dtype=np.int64)
    for block in _chunks(roots.size, _BLOCK):
        # a repeated root is one frontier entry per copy, each with its own bit
        frontier = roots[block] - 1
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
            targets = targets.astype(np.intp, copy=False)
            carried = np.repeat(gained, lengths)
            # OR the bits arriving at each distinct target in one pass
            order = np.argsort(targets)
            targets, carried = targets[order], carried[order]
            first = _run_starts(targets)
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
        sizes[block] = bits.sum(axis=0)
    return sizes


def forward_cluster_sizes(g: MultiDigraph, roots) -> np.ndarray:
    """``component_summary(g).forward_cluster_sizes(roots)``, with a new summary per call.

    Each call builds the O(n + arcs) summary, 110 us of one root's 131 us at
    n = 16,384; a caller who repeats the call should hold ``component_summary(g)``.
    """
    return component_summary(g).forward_cluster_sizes(roots)


def forward_cluster_size(g: MultiDigraph, v: int) -> int:
    """Size of the forward cluster of v without materializing the set.

    Each call builds an O(n + arcs) summary; hold ``component_summary(g)`` to repeat it.
    """
    return int(forward_cluster_sizes(g, [v])[0])


def backward_cluster_sizes(g: MultiDigraph, roots) -> np.ndarray:
    """``component_summary(g).backward_cluster_sizes(roots)``, with a new summary per call.

    Each call builds an O(n + arcs) summary; hold ``component_summary(g)`` to repeat it.
    """
    return component_summary(g).backward_cluster_sizes(roots)


# -- components ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComponentSummary:
    """Strong and weak partitions of one graph, each computed on first read.

    Labels are 0-based arrays over vertices 1..n, numbered as scipy's
    ``connected_components`` numbers them.  Weak labels read after the
    strong ones are the strong classes joined along the arcs between them.
    The adjacency must be a canonical (n, n) CSR matrix, as scipy's strong
    routine loops forever on a row that repeats a column.  Forward and
    backward cluster sizes traverse the adjacency and its reverse.
    """

    n: int
    adjacency: csr_matrix = field(repr=False)

    def __post_init__(self):
        if self.adjacency.shape != (self.n, self.n) or not self.adjacency.has_canonical_format:
            raise ValueError(f"adjacency must be a canonical {self.n} x {self.n} CSR matrix")

    def forward_cluster_sizes(self, roots) -> np.ndarray:
        """Forward-cluster size of every root (1-based ids), in the order given.

        Exact; one bit-parallel traversal serves up to 64 roots, and working
        memory is O(n) whatever the number of roots.
        """
        return _cluster_sizes(self.adjacency, roots)

    def backward_cluster_sizes(self, roots) -> np.ndarray:
        """Backward-cluster size of every root (1-based ids), in the order given.

        Forward clusters over the reversed adjacency, built on first use.
        """
        return _cluster_sizes(self._reversed, roots)

    @cached_property
    def _reversed(self) -> csr_matrix:
        """The adjacency of the reversed arcs; a stable sort by target keeps it canonical."""
        indptr, indices = self.adjacency.indptr, self.adjacency.indices
        order = np.argsort(indices, kind="stable")
        sources = np.repeat(np.arange(self.n, dtype=indices.dtype), np.diff(indptr))[order]
        return _adjacency(self.n, indices[order] + 1, sources)

    @cached_property
    def strong_labels(self) -> np.ndarray:
        return connected_components(self.adjacency, directed=True, connection="strong")[1]

    @cached_property
    def weak_labels(self) -> np.ndarray:
        if "strong_labels" not in self.__dict__:
            return connected_components(self.adjacency, directed=True, connection="weak")[1]
        # weak classes are unions of strong ones: join the strong classes
        # along the arcs between them, a chunk of arcs at a time, in a
        # union-find forest over the classes.  No condensation is stored; a
        # symmetric one would not do for scipy's strong routine, which loops
        # forever on a row that repeats a column.
        strong = self.strong_labels
        parent = np.arange(int(strong.max()) + 1, dtype=strong.dtype)
        # union by rank: a tree of rank r holds at least 2**r classes and is
        # no deeper than r, so a root is found in at most log2 passes
        rank = np.zeros(parent.size, dtype=np.uint8)
        for tails, heads in self._cross_arcs(strong):
            _join(parent, rank, tails, heads)
        del rank
        roots = _roots(parent, parent)
        del parent
        # scipy numbers weak classes in the order of their smallest vertex
        first = np.full(roots.size, self.n, dtype=_index_type(self.n, 0))
        for rows in _chunks(self.n):
            np.minimum.at(first, roots[strong[rows]], np.arange(rows.start, rows.stop, dtype=first.dtype))
        top = np.flatnonzero(first < self.n)
        rank = np.empty(roots.size, dtype=strong.dtype)
        rank[top[np.argsort(first[top])]] = np.arange(top.size)
        del first, top
        weak = rank[roots]
        del rank, roots
        return weak[strong]

    def _cross_arcs(self, strong: np.ndarray):
        """The arcs between strong classes as (tail class, head class) chunks.

        A chunk is the arcs out of consecutive vertices, about
        ``digraph._CHUNK_ROWS`` of them (more only where one vertex has more).
        """
        indptr, indices = self.adjacency.indptr, self.adjacency.indices
        lo = 0
        while lo < self.n:
            # the target in the offsets' own type, as a Python int would have
            # searchsorted copy them to int64; past the last offset, any
            # target finds what the last one does
            end = min(int(indptr[lo]) + digraph._CHUNK_ROWS, int(indptr[-1]))
            cut = np.searchsorted(indptr, indptr.dtype.type(end), side="right")
            hi = max(lo + 1, int(cut) - 1)
            tails = np.repeat(strong[lo:hi], np.diff(indptr[lo : hi + 1]))
            heads = strong[indices[indptr[lo] : indptr[hi]]]
            cross = tails != heads
            # the frame keeps only what it yields while the caller works
            tails, heads = tails[cross], heads[cross]
            del cross
            yield tails, heads
            lo = hi

    @staticmethod
    def _sizes(labels: np.ndarray) -> np.ndarray:
        sizes = _class_sizes(labels)
        sizes.sort()
        return sizes[::-1]

    @property
    def strong_sizes(self) -> np.ndarray:
        return self._sizes(self.strong_labels)

    @property
    def weak_sizes(self) -> np.ndarray:
        return self._sizes(self.weak_labels)

    # the largest class count, without sorting every class size
    @property
    def largest_strong(self) -> int:
        return int(_class_sizes(self.strong_labels).max())

    @property
    def largest_weak(self) -> int:
        return int(_class_sizes(self.weak_labels).max())

    def to_json(self, topk: int = 5) -> str:
        # strong first, so the weak labels are joined from its classes
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
    """Strong and weak partitions of g, computed on first read.

    Strong labels, and weak labels read first, take linear time.  Weak
    labels read after the strong ones join the C strong classes in a
    union-find forest no deeper than log2 C.
    """
    indices = g.dst.astype(_index_type(g.n, g.src.size))
    indices -= 1
    return ComponentSummary(g.n, _adjacency(g.n, g.src, indices))


def _adjacency(n: int, src: np.ndarray, indices: np.ndarray) -> csr_matrix:
    """The CSR adjacency on n vertices of arcs sorted by 1-based ``src``, 0-based ``indices``.

    The offsets take the type of ``indices``: int32, the index type
    scipy's graph routines take without a copy, up to 2**31 - 1 vertices
    and arcs, and int64 above.  They are counted a chunk of sorted
    sources at a time, so no arc-length array is made.
    """
    indptr = np.zeros(n + 1, dtype=indices.dtype)
    for rows in _chunks(src.size):
        ids = src[rows]
        low = int(ids[0])
        indptr[low : int(ids[-1]) + 1] += np.bincount(ids - low)
    np.cumsum(indptr, out=indptr)
    # the routines read no weight, but take float64 data without a copy: one
    # value, broadcast, serves every arc
    ones = np.broadcast_to(np.float64(1.0), indices.shape)
    adjacency = csr_matrix((ones, indices, indptr), shape=(n, n))
    # sorted and merged arcs: ComponentSummary need not scan them to know it
    adjacency.has_canonical_format = True
    return adjacency


def _class_sizes(labels: np.ndarray) -> np.ndarray:
    """The number of vertices with each label, counted a chunk at a time.

    ``np.bincount`` would first copy int32 labels to int64.
    """
    sizes = np.zeros(int(labels.max()) + 1, dtype=np.int64)
    for rows in _chunks(labels.size):
        np.add.at(sizes, labels[rows], 1)
    return sizes


def _roots(parent: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The root of each of ``nodes`` in the union-find forest ``parent``."""
    roots = parent[nodes]
    while True:
        up = parent[roots]
        if np.array_equal(up, roots):
            return roots
        roots = up


def _join(parent: np.ndarray, rank: np.ndarray, tails: np.ndarray, heads: np.ndarray) -> None:
    """Join the trees of ``tails[i]`` and ``heads[i]`` for every i, by rank.

    Each round hooks the root of lower (rank, id) of each arc's ends under
    the other; where a root has several such arcs one hook lands and the
    rest are tried again.  A root hooked under one hooked in the same round
    is then pointed at the end of that chain, so every hooked root sits
    right under a root of rank at least its own, and a root that takes one
    of equal rank goes up by one.
    """
    while tails.size:
        a, b = _roots(parent, tails), _roots(parent, heads)
        apart = a != b
        tails, heads, a, b = tails[apart], heads[apart], a[apart], b[apart]
        rank_a, rank_b = rank[a], rank[b]
        swap = (rank_a > rank_b) | ((rank_a == rank_b) & (a > b))
        low, high = np.where(swap, b, a), np.where(swap, a, b)
        del a, b, rank_a, rank_b, swap
        # the keys strictly increase up each hook, so no cycle is made
        parent[low] = high
        up = parent[low]
        lost = up != high
        tails, heads = tails[lost], heads[lost]
        del high, lost
        # pointer jumping: the hooked roots are every link of such a chain
        # but its end, so each pass halves the chains
        while True:
            top = parent[up]
            if np.array_equal(top, up):
                break
            parent[low] = up = top
        np.maximum.at(rank, top, rank[low] + 1)


def _index_type(n: int, rows: int) -> type:
    """int32 where n vertices and ``rows`` arcs fit it, else int64."""
    return np.int32 if max(n, rows) <= np.iinfo(np.int32).max else np.int64


def _read_summary(path, n: int | None = None) -> ComponentSummary:
    """``component_summary(read_edge_list(path, n)[0])``, from the reader's blocks.

    The blocks go straight into the adjacency (``_fold_blocks``, with its
    checks, errors and blocks held until n is known), two narrow id columns
    of the rows with a nonzero count; no graph is built.  A file whose arc
    codes strictly increase, as the writer's do, is already the adjacency's
    order; any other is sorted and merged from those columns.
    """
    return _fold_blocks(path, n, {}, _AdjacencyRows, _AdjacencyRows.add)[2].summary()


class _AdjacencyRows:
    """The rows of one graph's adjacency as ``_read_summary`` gathers them.

    Keeps the 1-based source and 0-based target of each row with a nonzero
    count, in the type that holds the ids, and the last arc code while the
    codes strictly increase (None once they do not).
    """

    def __init__(self, n: int):
        self.n = n
        self.columns = _Columns(2, _index_type(n, 0))
        self.last = -1

    def add(self, columns: np.ndarray, share: float | None) -> None:
        src, dst, mult = columns
        if mult.min() == 0:
            keep = mult > 0
            src, dst = src[keep], dst[keep]
        if self.last is not None:
            self.last = _last_increasing_code(self.n, src, dst, self.last)
        self.columns.append((src, dst - 1), share)

    def summary(self) -> ComponentSummary:
        """The component summary of the rows added, which it takes over."""
        n, columns = self.n, self.columns
        del self.columns
        if self.last is None:
            # each run of equal rows goes back as one row, in code order; the
            # 0-based targets decode as they were encoded, and the merged rows
            # are no more than the columns hold
            rows = _code_rows(n, _arc_codes(n, *(column[: columns.used] for column in columns.arrays)))
            columns.used = 0
            for src, dst, _ in rows:
                columns.append((src, dst), 1.0)
        src, indices = columns.take()
        if indices.dtype != _index_type(n, src.size):
            indices = indices.astype(np.int64)
        return ComponentSummary(n, _adjacency(n, src, indices))


# names for callers that read one partition; the other is never computed
strong_components = component_summary
weak_components = component_summary
