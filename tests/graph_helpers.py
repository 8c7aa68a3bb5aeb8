"""Dict views of multigraphs for building small graphs and comparing arcs."""

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
