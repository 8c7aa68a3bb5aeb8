"""Reachability and component tests against a brute-force oracle.

The oracle computes the reflexive-transitive closure of small random graphs
by boolean matrix powering, then clusters and components are read off from
that closure directly.
"""

import json
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from poisson_digraph.sampler import sample_graph_fast
from poisson_digraph.structure import (
    ComponentSummary,
    backward_cluster_sizes,
    component_summary,
    degree_arrays,
    forward_cluster_size,
    forward_cluster_sizes,
    strong_components,
    weak_components,
)
from poisson_digraph import digraph, structure
from poisson_digraph.weights import ParetoMirrored, moments, sample_weights
from poisson_digraph.digraph import MultiDigraph, write_edge_list
from graph_helpers import arc_dict, backward_cluster, forward_cluster, graph_from_arcs, traced_peak


def _closure(g):
    """Boolean reachability matrix including each vertex itself."""
    adj = np.eye(g.n, dtype=bool)
    adj[g.src - 1, g.dst - 1] = True
    reach = adj.copy()
    while True:
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def _random_graph(n, seed):
    w = sample_weights(ParetoMirrored(3.5, 1.0), n, seed)
    return sample_graph_fast(w, float(w.sum_in), seed)


@pytest.mark.parametrize("seed", range(8))
def test_clusters_match_closure_oracle(seed):
    g = _random_graph(25, seed)
    reach = _closure(g)
    strong = strong_components(g).strong_labels
    for v in (1, 7, 25):
        fwd = {u + 1 for u in np.nonzero(reach[v - 1])[0]}
        bwd = {u + 1 for u in np.nonzero(reach[:, v - 1])[0]}
        assert forward_cluster(g, v) == fwd
        assert backward_cluster(g, v) == bwd
        assert forward_cluster_size(g, v) == len(fwd)
        assert backward_cluster_sizes(g, [v])[0] == len(bwd)
        assert set((np.flatnonzero(strong == strong[v - 1]) + 1).tolist()) == fwd & bwd


@pytest.mark.parametrize("n, seed", [(25, s) for s in range(8)] + [(30, 100 + s) for s in range(5)])
def test_forward_cluster_sizes_match_closure_oracle(n, seed):
    g = _random_graph(n, seed)
    reach = _closure(g)
    roots = np.arange(1, n + 1)
    np.testing.assert_array_equal(forward_cluster_sizes(g, roots), reach.sum(axis=1))
    assert forward_cluster_sizes(g, roots[::-1]).tolist() == reach.sum(axis=1)[::-1].tolist()
    np.testing.assert_array_equal(backward_cluster_sizes(g, roots), reach.sum(axis=0))
    assert backward_cluster_sizes(g, roots[::-1]).tolist() == reach.sum(axis=0)[::-1].tolist()


def test_forward_cluster_sizes_over_three_blocks_with_duplicates():
    g = _random_graph(60, 7)
    roots = np.random.default_rng(0).integers(1, 61, size=150)
    assert np.unique(roots).size < roots.size
    sizes = forward_cluster_sizes(g, roots)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [len(forward_cluster(g, int(v))) for v in roots]
    sizes = backward_cluster_sizes(g, roots)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [len(backward_cluster(g, int(v))) for v in roots]


def test_forward_cluster_sizes_edge_inputs():
    g = _random_graph(25, 1)
    loop = graph_from_arcs(1, {(1, 1): 3})
    assert forward_cluster_size(loop, 1) == backward_cluster_sizes(loop, [1])[0] == 1
    for sizes in (forward_cluster_sizes, backward_cluster_sizes):
        assert sizes(g, []).tolist() == []
        assert sizes(loop, [1, 1]).tolist() == [1, 1]
        assert sizes(MultiDigraph.empty(5), range(1, 6)).tolist() == [1] * 5
        for bad in (0, g.n + 1, -1):
            with pytest.raises(ValueError, match="out of range"):
                sizes(g, [1, bad])


@pytest.mark.parametrize(
    "n, arcs, indptr, reversed_indptr",
    [
        # a pair given on two rows is one entry, a loop included
        (
            4,
            [(1, 2, 1), (4, 1, 1), (1, 3, 1), (2, 2, 1), (1, 2, 1), (2, 2, 2)],
            [0, 2, 3, 3, 4],
            [0, 1, 3, 4, 4],
        ),
        # trailing isolated vertices keep empty rows up to n
        (6, [(2, 1, 1), (2, 3, 4)], [0, 0, 2, 2, 2, 2, 2], [0, 1, 1, 2, 2, 2, 2]),
        (3, [], [0, 0, 0, 0], [0, 0, 0, 0]),
    ],
    ids=["repeated-arcs", "trailing-isolated", "empty"],
)
def test_adjacency_and_its_reverse_match_arcs(n, arcs, indptr, reversed_indptr):
    src, dst, mult = np.array(arcs, dtype=np.int64).reshape(-1, 3).T
    s = component_summary(MultiDigraph(n, src, dst, mult))
    pairs = set(zip(src.tolist(), dst.tolist()))
    for adjacency, offsets, heads in (
        (s.adjacency, indptr, pairs),
        (s._reversed, reversed_indptr, {(d, t) for t, d in pairs}),
    ):
        assert adjacency.indptr.tolist() == offsets
        assert adjacency.indptr.dtype == adjacency.indices.dtype == np.int32
        # each row strictly increasing: canonical, as the flag says
        for v in range(1, n + 1):
            row = adjacency.indices[adjacency.indptr[v - 1] : adjacency.indptr[v]] + 1
            assert row.tolist() == sorted(u for t, u in heads if t == v)
    # the reversed adjacency is built once per summary
    assert s._reversed is s._reversed


def test_summary_read_from_a_file_traverses_as_the_graph(tmp_path):
    g = _random_graph(60, 3)
    writer = tmp_path / "writer.tsv"
    write_edge_list(g, writer)
    # the same reachability from shuffled rows, each pair given twice, and a
    # zero count: the reader sorts and merges these
    rows = [f"{t}\t{d}\t{m}\n" for t, d, m in zip(g.src, g.dst, g.mult)] * 2 + ["1\t1\t0\n"]
    np.random.default_rng(0).shuffle(rows)
    unsorted = tmp_path / "unsorted.tsv"
    unsorted.write_text(f"# n={g.n}\n" + "".join(rows))
    roots = np.arange(1, g.n + 1)
    forward, backward = forward_cluster_sizes(g, roots), backward_cluster_sizes(g, roots)
    for path in (writer, unsorted):
        s = structure._read_summary(path)
        np.testing.assert_array_equal(s.forward_cluster_sizes(roots), forward)
        np.testing.assert_array_equal(s.backward_cluster_sizes(roots[::-1]), backward[::-1])
        for bad in (0, g.n + 1, -1):
            message = f"^vertex {bad} out of range 1..{g.n}$"
            for sizes in (s.forward_cluster_sizes, s.backward_cluster_sizes):
                with pytest.raises(ValueError, match=message):
                    sizes([1, bad])
            for sizes in (forward_cluster_sizes, backward_cluster_sizes):
                with pytest.raises(ValueError, match=message):
                    sizes(g, [1, bad])


def test_reachability_is_reflexive_on_isolated_vertices():
    g = MultiDigraph.empty(5)
    for v in range(1, 6):
        assert forward_cluster(g, v) == {v}
        assert backward_cluster(g, v) == {v}
    assert len(set(strong_components(g).strong_labels.tolist())) == 5


def test_vertex_id_validation():
    g = MultiDigraph.empty(3)
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            forward_cluster(g, bad)
        with pytest.raises(ValueError):
            forward_cluster_size(g, bad)
        with pytest.raises(ValueError):
            backward_cluster_sizes(g, [bad])


def test_three_cycle_is_one_strong_class():
    g = graph_from_arcs(3, {(1, 2): 1, (2, 3): 1, (3, 1): 1})
    labels = strong_components(g).strong_labels
    assert len(set(labels.tolist())) == 1


def test_directed_path_has_singleton_strong_classes():
    g = graph_from_arcs(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1})
    assert forward_cluster(g, 1) == {1, 2, 3, 4}
    assert backward_cluster(g, 4) == {1, 2, 3, 4}
    assert len(set(strong_components(g).strong_labels.tolist())) == 4
    assert len(set(weak_components(g).weak_labels.tolist())) == 1


@pytest.mark.parametrize("seed", range(5))
def test_component_labels_match_closure_oracle(seed):
    g = _random_graph(30, 100 + seed)
    reach = _closure(g)
    mutual = reach & reach.T
    strong = strong_components(g).strong_labels
    for v in range(30):
        for u in range(v, 30):
            assert (strong[v] == strong[u]) == bool(mutual[v, u])
    sym = _closure(
        MultiDigraph(
            g.n,
            np.concatenate([g.src, g.dst]),
            np.concatenate([g.dst, g.src]),
            np.concatenate([g.mult, g.mult]),
        )
    )
    weak = weak_components(g).weak_labels
    for v in range(30):
        for u in range(v, 30):
            assert (weak[v] == weak[u]) == bool(sym[v, u])


def test_degrees_exclude_loops():
    g = graph_from_arcs(2, {(1, 1): 2, (1, 2): 3, (2, 1): 1})
    arr = degree_arrays(g)
    assert arr.d_in.tolist() == [1, 3]
    assert arr.d_out.tolist() == [3, 1]
    assert arr.loops.tolist() == [2, 0]
    assert arr.total.tolist() == [6, 4]


def test_degree_arrays_are_exact_past_2_53():
    big = 2**53 + 1  # float64 rounds it to 2**53
    arr = degree_arrays(MultiDigraph(3, [1, 1, 3], [2, 3, 3], [big, 1, big]))
    assert arr.d_out.tolist() == [big + 1, 0, 0]
    assert arr.d_in.tolist() == [0, big, 1]
    assert arr.loops.tolist() == [0, 0, big]


def test_degree_arrays_are_computed_once_and_read_only():
    g = graph_from_arcs(3, {(1, 1): 2, (1, 2): 3, (3, 1): 1})
    a, b = degree_arrays(g), degree_arrays(g)
    for x, y in ((a.d_in, b.d_in), (a.d_out, b.d_out), (a.loops, b.loops)):
        assert np.shares_memory(x, y)
        with pytest.raises(ValueError):
            x[0] = 9
    assert a.d_in.tolist() == [1, 3, 0]


@pytest.mark.parametrize("seed", range(4))
def test_degree_arrays_match_per_vertex(seed):
    g = _random_graph(40, 200 + seed)
    arr = degree_arrays(g)
    assert arr.d_in.sum() == arr.d_out.sum() == g.total_arcs - g.total_loops
    arcs = arc_dict(g)
    for v in (1, 13, 40):
        d_in = sum(m for (s, d), m in arcs.items() if d == v and s != v)
        d_out = sum(m for (s, d), m in arcs.items() if s == v and d != v)
        assert (arr.d_in[v - 1], arr.d_out[v - 1], arr.loops[v - 1]) == (
            d_in,
            d_out,
            arcs.get((v, v), 0),
        )


@pytest.mark.parametrize("seed", range(8))
def test_summary_matches_coo_reference(seed):
    g = _random_graph(25, seed)
    # the adjacency as a COO triple converted by scipy, independent of _indptr
    ones = np.ones(g.src.size, dtype=np.int8)
    reference = csr_matrix((ones, (g.src - 1, g.dst - 1)), shape=(g.n, g.n))
    s = component_summary(g)
    for connection in ("strong", "weak"):
        _, labels = connected_components(reference, directed=True, connection=connection)
        assert np.array_equal(getattr(s, f"{connection}_labels"), labels)
    assert np.array_equal(strong_components(g).strong_sizes, s.strong_sizes)
    assert np.array_equal(weak_components(g).weak_sizes, s.weak_sizes)


def _loopy_multigraph(n, seed):
    """A random graph with loops and repeated arcs, independent of the samplers."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(1, n + 1, (2, 2 * n))
    # a loop on every fifth vertex, and every tenth row repeated
    loops = np.arange(1, n + 1, 5)
    src = np.concatenate((src, loops, src[::10]))
    dst = np.concatenate((dst, loops, dst[::10]))
    return MultiDigraph(n, src, dst, rng.integers(1, 3, src.size))


@pytest.mark.parametrize(
    "g",
    [
        *(_loopy_multigraph(n, seed) for n, seed in ((5, 0), (40, 1), (300, 2), (300, 3))),
        _random_graph(60, 4),
        MultiDigraph.empty(6),
        MultiDigraph.empty(1),
        MultiDigraph(1, [1], [1], [2]),
    ],
    ids=["loopy-5", "loopy-40", "loopy-300a", "loopy-300b", "sampled-60", "empty-6", "n1",
         "n1-loop"],
)
def test_weak_labels_equal_scipy_whichever_partition_is_read_first(g):
    reference = csr_matrix((np.ones(g.src.size), (g.src - 1, g.dst - 1)), shape=(g.n, g.n))
    weak = connected_components(reference, directed=True, connection="weak")[1]
    strong = connected_components(reference, directed=True, connection="strong")[1]
    weak_first, strong_first = component_summary(g), component_summary(g)
    assert np.array_equal(weak_first.weak_labels, weak)
    assert np.array_equal(weak_first.strong_labels, strong)
    assert np.array_equal(strong_first.strong_labels, strong)
    assert "strong_labels" in strong_first.__dict__  # the condensation route is taken
    assert np.array_equal(strong_first.weak_labels, weak)
    assert weak_first.to_json() == strong_first.to_json() == component_summary(g).to_json()
    # whatever numbering the strong classes carry
    renumbered = component_summary(g)
    order = np.random.default_rng(g.n).permutation(strong.max() + 1)
    renumbered.__dict__["strong_labels"] = order[strong]
    assert np.array_equal(renumbered.weak_labels, weak)


@pytest.mark.parametrize("seed", range(4))
def test_weak_labels_join_classes_across_many_chunks(monkeypatch, seed):
    # a few arcs per chunk, so the union-find joins classes across chunks
    monkeypatch.setattr(digraph, "_CHUNK_ROWS", 3)
    g = _loopy_multigraph(200, seed)
    reference = csr_matrix((np.ones(g.src.size), (g.src - 1, g.dst - 1)), shape=(g.n, g.n))
    s = component_summary(g)
    s.strong_labels
    weak = connected_components(reference, directed=True, connection="weak")[1]
    assert np.array_equal(s.weak_labels, weak)


@pytest.mark.parametrize("up", [True, False])
def test_weak_labels_on_a_long_path_take_near_linear_time(up):
    # a directed path is one strong class per vertex, and its arcs join
    # neighbouring labels, so a forest hooked by label alone grows a chain
    # as long as the path and finding its roots takes quadratic time
    n = 200_000
    ids = np.arange(1, n, dtype=np.int64)
    src, dst = (ids, ids + 1) if up else (ids + 1, ids)
    s = component_summary(MultiDigraph(n, src, dst, np.ones(n - 1, dtype=np.int64)))
    s.strong_labels
    start = time.perf_counter()
    weak = s.weak_labels
    assert time.perf_counter() - start < 5.0
    reference = csr_matrix((np.ones(n - 1), (src - 1, dst - 1)), shape=(n, n))
    assert np.array_equal(weak, connected_components(reference, directed=True, connection="weak")[1])


def test_union_find_trees_stay_no_deeper_than_log2_of_their_size():
    # classes joined one arc at a time, each to the next class up: a forest
    # hooked by id alone grows the chain 0 -> 1 -> ... -> c - 1
    c = 1024
    parent = np.arange(c, dtype=np.int32)
    rank = np.zeros(c, dtype=np.uint8)
    for i in range(c - 1):
        structure._join(parent, rank, np.array([i], dtype=np.int32), np.array([i + 1], dtype=np.int32))
    nodes, depth = np.arange(c, dtype=np.int32), 0
    while not np.array_equal(parent[nodes], nodes):
        nodes, depth = parent[nodes], depth + 1
    assert np.unique(nodes).size == 1
    assert depth <= 10


def test_weak_labels_peak_memory():
    # in units of one int64 array of the K arcs (8 K bytes), weak labels read
    # after the strong ones, through a COO condensation with float64 data
    # and scipy's transposed copy, peaked at 1.89; joined class by class
    # along the cross arcs of each chunk, at 0.70
    model = ParetoMirrored(3.5)
    w = sample_weights(model, 200_000, 1)
    g = sample_graph_fast(w, moments(model).mu * w.n, 1)
    s = component_summary(g)
    s.strong_labels
    assert traced_peak(8 * g.total_arcs, getattr, s, "weak_labels") <= 0.77


def test_component_summary_invariants():
    g = _random_graph(200, 42)
    s = component_summary(g)
    assert s.n == 200
    assert sum(s.strong_sizes) == 200
    assert sum(s.weak_sizes) == 200
    assert s.largest_strong == max(s.strong_sizes)
    assert s.largest_weak == max(s.weak_sizes)
    assert s.largest_strong <= s.largest_weak


def test_component_summary_json():
    g = graph_from_arcs(4, {(1, 2): 1, (2, 1): 1})
    payload = json.loads(component_summary(g).to_json(topk=3))
    assert payload["n"] == 4
    assert payload["largest_strong"] == 2
    assert payload["largest_weak"] == 2
    assert payload["strong_sizes_topk"] == [2, 1, 1]
    assert payload["weak_sizes_topk"] == [2, 1, 1]


def test_summary_handles_empty_graph():
    s = component_summary(MultiDigraph.empty(6))
    assert s.largest_strong == 1
    assert s.largest_weak == 1
    assert len(s.strong_sizes) == 6


def test_summary_refuses_an_adjacency_that_is_not_canonical(monkeypatch):
    # scipy's strong routine never returns on a row that repeats a column,
    # so such an adjacency is refused before any label is read
    def no_labels(*args, **kwargs):
        raise AssertionError("a label was read")

    monkeypatch.setattr(structure, "connected_components", no_labels)
    canonical = csr_matrix((np.ones(2), [0, 1], [0, 2, 2]), shape=(2, 2))
    bad = {
        "repeated-column": (2, csr_matrix((np.ones(2), [1, 1], [0, 2, 2]), shape=(2, 2))),
        "unsorted-row": (2, csr_matrix((np.ones(2), [1, 0], [0, 2, 2]), shape=(2, 2))),
        "n-not-its-shape": (3, canonical),
        "not-square": (2, csr_matrix((np.ones(2), [0, 2], [0, 2, 2]), shape=(2, 3))),
    }
    for name, (n, adjacency) in bad.items():
        with pytest.raises(ValueError, match=f"^adjacency must be a canonical {n} x {n} CSR matrix$"):
            ComponentSummary(n, adjacency)
    assert ComponentSummary(2, canonical).n == 2
    # the summary of a graph is canonical by construction
    assert component_summary(graph_from_arcs(3, {(1, 2): 2, (1, 1): 1})).adjacency.has_canonical_format
