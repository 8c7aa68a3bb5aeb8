"""Dict and set views of multigraphs for building small graphs and comparing arcs.

The cluster helpers are a plain breadth-first search over ``arc_dict``,
independent of the package's traversal, so tests can use them as an oracle.
"""

from collections import deque

import numpy as np

from poisson_digraph.digraph import MultiDigraph


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
