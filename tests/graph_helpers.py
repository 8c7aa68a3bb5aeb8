"""Dict and set views of multigraphs for building small graphs and comparing arcs.

The cluster helpers are a plain breadth-first search over ``arc_dict``,
independent of the package's traversal, so tests can use them as an oracle.
The batch helpers read per-block counts of a sampler's block graph through
``verify._decode_blocks`` and combine independent chi-square statistics into
one p-value.  ``traced_peak`` measures a call's peak memory for the
peak-memory tests.  ``assert_same_text`` compares multi-MB outputs exactly
without pytest's diff of the whole strings, which can run for minutes.
"""

import tracemalloc
from collections import deque

import numpy as np
from scipy.stats import chi2

from poisson_digraph.digraph import MultiDigraph
from poisson_digraph.verify import _decode_blocks


def graph_from_arcs(n, arcs):
    """The graph with multiplicity map {(src, dst): mult}."""
    keys = list(arcs)
    return MultiDigraph(
        n,
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([arcs[k] for k in keys], dtype=np.int64),
    )


def arc_dict(g):
    """Sparse multiplicity map {(src, dst): mult} of a graph."""
    return {
        (int(s), int(d)): int(m) for s, d, m in zip(g.src, g.dst, g.mult)
    }


def _reachable(g, v, reverse):
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} out of range 1..{g.n}")
    nbrs = {}
    for s, d in arc_dict(g):
        if reverse:
            s, d = d, s
        nbrs.setdefault(s, []).append(d)
    seen = {v}
    queue = deque([v])
    while queue:
        for u in nbrs.get(queue.popleft(), ()):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def forward_cluster(g, v):
    """Vertices reachable from v along arc directions, v included."""
    return _reachable(g, v, reverse=False)


def backward_cluster(g, v):
    """Vertices from which v is reachable, v included."""
    return _reachable(g, v, reverse=True)


def block_pairs(g, reps):
    """(reps, n * n) arc counts of a batch graph: row r is block r, columns the row-major pairs."""
    n = g.n // reps
    block, src, dst, mult = _decode_blocks(g, reps)
    cells = (block * n + src - 1) * n + dst - 1
    return np.bincount(cells, mult, reps * n * n).astype(np.int64).reshape(reps, n * n)


def summed_pvalue(results):
    """p-value of independent Pearson statistics summed, against chi-square on the summed dof."""
    return float(chi2.sf(sum(r.statistic for r in results), sum(r.dof for r in results)))


def traced_peak(unit_bytes, call, *args, **kwargs):
    """Peak memory tracemalloc traces while ``call(*args, **kwargs)`` runs, in units of ``unit_bytes``.

    Graph tests pass 8 K for a graph of K arcs, so the peak reads as a count
    of int64 arrays of the K arcs.  Memory the call keeps, such as a module
    it imports on first use, counts too, so callers warm it up first.
    """
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / unit_bytes
    finally:
        tracemalloc.stop()


def assert_same_text(got, expected, window=40):
    """Exact equality of two long strings (or bytes), reported in a few lines.

    On a mismatch the message gives both lengths and the first differing
    offset, with ``window`` characters of each side around it.
    """
    if got == expected:
        return
    # the first differing block of 4096, then the offset inside it
    size, step = min(len(got), len(expected)), 4096
    lo = next((i for i in range(0, size, step) if got[i : i + step] != expected[i : i + step]), size)
    at = next((i for i in range(lo, min(lo + step, size)) if got[i] != expected[i]), size)
    a, b = max(0, at - window), at + window
    raise AssertionError(
        f"lengths {len(got)} and {len(expected)}, first difference at offset {at}:"
        f" {got[a:b]!r} != {expected[a:b]!r}"
    )
