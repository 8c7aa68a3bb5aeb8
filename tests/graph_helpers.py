"""Dict and set views of multigraphs for building small graphs and comparing arcs."""

import numpy as np

from poisson_digraph.digraph import MultiDigraph
from poisson_digraph.structure import _check_vertex, _reach_mask


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


def forward_cluster(g, v):
    """Vertices reachable from v along arc directions, v included."""
    _check_vertex(g, v)
    indptr, nbrs = g._out_csr
    return set((np.flatnonzero(_reach_mask(indptr, nbrs, v - 1, g.n)) + 1).tolist())


def backward_cluster(g, v):
    """Vertices from which v is reachable, v included."""
    _check_vertex(g, v)
    indptr, nbrs = g._in_csr
    return set((np.flatnonzero(_reach_mask(indptr, nbrs, v - 1, g.n)) + 1).tolist())
