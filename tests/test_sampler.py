"""Distributional tests for the samplers and the sum constructions.

Every law test draws its replicates as the blocks of one graph, a public
sampler called with ``reps=``, decodes that graph once with
``verify._decode_blocks`` (which rejects arcs that cross blocks) and
compares per-block counts with the exact Poisson law; where a test
combines several independent chi-squares, their statistics are summed and
referred to chi-square on the summed degrees of freedom.  Criteria 1-3 of
the acceptance module run the same laws at 1e5 replicates.
"""


import numpy as np
import pytest

from poisson_digraph import digraph, sampler
from poisson_digraph.analysis import poisson_chisquare, product_poisson_chisquare
from poisson_digraph.digraph import MultiDigraph, _arc_codes
from poisson_digraph.sampler import (
    _sum_parts,
    evolve,
    evolve_chain,
    independent_sum_parts,
    oriented_sum_parts,
    sample_graph_fast,
    sample_graph_naive,
    sample_oriented_sum,
    sample_randomly_oriented_nr,
)
from poisson_digraph.streams import derive_seed
from poisson_digraph.verify import _block_totals, _decode_blocks
from poisson_digraph.weights import (
    Constant,
    ConstantMarginal,
    IndependentProduct,
    MirroredCapacity,
    NormalizerMode,
    ParetoMarginal,
    ParetoMirrored,
    WeightSequence,
    moments,
    sample_weights,
)
from graph_helpers import arc_dict, block_pairs, summed_pvalue, traced_peak


def _const_pair(n, value=2.0):
    c = np.full(n, value)
    return WeightSequence(c.copy(), c.copy())


def test_fast_and_naive_agree_pairwise_heavy_tails():
    """Every pair count of both samplers against its exact Poisson law, at n = 3."""
    name = "test_fast_and_naive_agree_pairwise_heavy_tails"
    w = sample_weights(ParetoMirrored(3.5, 1.0), 3, seed=5)
    l_n = float(w.sum_in)
    reps = 20_000
    rates = np.outer(w.w_out, w.w_in).ravel() / l_n
    cells = []
    routes = (
        (sample_graph_fast, derive_seed(300, name, "fast")),
        (sample_graph_naive, derive_seed(40_300, name, "naive")),
    )
    for sampler, seed in routes:
        m = block_pairs(sampler(w, l_n, seed, reps=reps), reps)
        cells += [poisson_chisquare(m[:, j], rates[j]) for j in range(9)]
    assert summed_pvalue(cells) >= 1e-3


BATCH_SAMPLERS = {
    "fast": lambda model, w, l_n, seed, reps: sample_graph_fast(w, l_n, seed, reps=reps),
    "naive": lambda model, w, l_n, seed, reps: sample_graph_naive(w, l_n, seed, reps=reps),
    "oriented-sum": lambda model, w, l_n, seed, reps: oriented_sum_parts(
        w, seed, l_n, reps=reps
    ).graph,
    "random-orientation": lambda model, w, l_n, seed, reps: sample_randomly_oriented_nr(
        w, seed, l_n, reps=reps
    ),
    "evolve-chain": lambda model, w, l_n, seed, reps: evolve_chain(model, 1, 2, seed, reps=reps),
}


# the Pareto cases keep their bare ids; constant weight 2 gives every pair rate 1
LAW_CASES = [(case, ParetoMirrored(3.5, 1.0), case) for case in sorted(BATCH_SAMPLERS)] + [
    (f"constant-{case}", Constant(2.0), case) for case in sorted(BATCH_SAMPLERS)
]


@pytest.mark.parametrize("label, model, case", LAW_CASES, ids=[label for label, _, _ in LAW_CASES])
def test_batch_blocks_follow_the_exact_law(label, model, case):
    """Each block of a batch is an independent sample of the exact pair law at n = 2."""
    n, reps = 2, 50_000
    seed = derive_seed(0, "batch-law", label)
    w = sample_weights(model, n, seed)  # the weights evolve_chain draws at this seed
    l_n = moments(model).mu * n  # the chain's final normalizer
    g = BATCH_SAMPLERS[case](model, w, l_n, seed, reps)
    assert g.n == reps * n
    counts = block_pairs(g, reps)  # raises if an arc crosses blocks
    rates = np.outer(w.w_out, w.w_in).ravel() / l_n
    assert product_poisson_chisquare(counts, rates).pvalue >= 1e-3
    adjacent = counts.reshape(reps // 2, 2, n * n).sum(axis=2)
    assert product_poisson_chisquare(adjacent, np.full(2, rates.sum())).pvalue >= 1e-3


def test_fast_tracked_pair_counts_follow_the_exact_law():
    """Per block, the six counts behind the degrees of vertices 1 and 2 are independent Poissons.

    U_v and V_v count the arcs into and out of v from and to the vertices
    other than 1 and 2 of its block; A_12 and A_21 count the arcs between
    the two.  Loops are left out, as in ``independence_test``.
    """
    n, chunks, reps = 100, 4, 5_000
    model = ParetoMirrored(3.5, 1.0)
    w = sample_weights(model, n, derive_seed(0, "pair-degrees"))
    l_n = moments(model).mu * n
    counts = []
    for chunk in range(chunks):
        g = sample_graph_fast(w, l_n, derive_seed(0, "pair-degrees", chunk), reps=reps)
        block, src, dst, mult = _decode_blocks(g, reps)
        from_pair, to_pair = src <= 2, dst <= 2
        keeps = [
            (dst == 1) & ~from_pair,
            (src == 1) & ~to_pair,
            (dst == 2) & ~from_pair,
            (src == 2) & ~to_pair,
            (src == 1) & (dst == 2),
            (src == 2) & (dst == 1),
        ]
        counts.append(np.column_stack([np.bincount(block, mult * k, reps) for k in keeps]))
    in_rest, out_rest = w.sum_in - w.w_in[:2].sum(), w.sum_out - w.w_out[:2].sum()
    rates = np.array(
        [
            w.w_in[0] * out_rest,
            w.w_out[0] * in_rest,
            w.w_in[1] * out_rest,
            w.w_out[1] * in_rest,
            w.w_out[0] * w.w_in[1],
            w.w_out[1] * w.w_in[0],
        ]
    ) / l_n
    assert product_poisson_chisquare(np.concatenate(counts), rates).pvalue >= 1e-3


@pytest.mark.parametrize(
    "n, src, dst",
    [
        (5, [3, 1, 3, 5, 1, 3, 2, 5], [2, 4, 2, 5, 4, 2, 1, 1]),
        (4, [], []),
        (1, [1, 1, 1], [1, 1, 1]),
        # three blocks of n = 4, as a sampler called with reps=3 shifts them
        (12, [9, 2, 12, 5, 9, 5, 1], [12, 3, 9, 8, 12, 8, 4]),
    ],
    ids=["repeats", "empty", "n1", "blocks"],
)
def test_unit_arcs_match_the_constructor(n, src, dst):
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    expected = MultiDigraph(n, src, dst, np.ones(src.size, dtype=np.int64))
    assert MultiDigraph._from_codes(n, _arc_codes(n, src, dst)) == expected


def test_sample_graph_fast_peak_memory():
    # in units of one int64 array of the K arcs (8 K bytes), a build by
    # stable argsort and gathers peaks at 12.1, one in-place value sort
    # behind a copying constructor at 9.25, the arc codes built in the
    # source buffer and adopted by the graph at 5.1, the uniforms drawn
    # into the ids' buffer and the graph built in the codes' at 3.4
    model = ParetoMirrored(3.5)
    w = sample_weights(model, 200_000, 1)
    l_n = moments(model).mu * w.n
    k = sample_graph_fast(w, l_n, 1).total_arcs
    assert traced_peak(8 * k, sample_graph_fast, w, l_n, 1) <= 3.7


def test_mirrored_draw_shares_one_cdf():
    mirrored = sample_weights(ParetoMirrored(3.5), 50, 1)
    _, cdf_out, cdf_in = sampler._arc_draw(mirrored, 50.0)
    assert cdf_out is cdf_in
    product = sample_weights(IndependentProduct(ConstantMarginal(2.0), ConstantMarginal(2.0)), 50, 1)
    _, cdf_out, cdf_in = sampler._arc_draw(product, 50.0)
    assert cdf_out is not cdf_in and np.array_equal(cdf_out, cdf_in)


class _Uniforms:
    """A generator stub whose ``random(out=)`` writes chosen uniforms, in the order given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, out):
        out[...] = self.u
        return out


def _assert_draw_is_inversion(cdf, u):
    """``_draw_vertices`` gives each sorted uniform's id by a right-side search of the cdf."""
    cdf = np.asarray(cdf)
    expected = np.searchsorted(cdf, np.sort(u) * cdf[-1], side="right") + 1
    got = sampler._draw_vertices(cdf, len(u), _Uniforms(u))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
    return got


# keys merged into the cdf at a time
CHUNK = digraph._CHUNK_ROWS // 8


@pytest.mark.parametrize(
    "size",
    [0, 1, CHUNK // 8 - 1, CHUNK // 8, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 17],
)
def test_draw_vertices_sizes(size):
    cdf = np.cumsum(np.random.default_rng(size).pareto(2.5, 3_000) + 1.0)
    _assert_draw_is_inversion(cdf, np.random.default_rng(size + 1).random(size))


@pytest.mark.parametrize(
    "n, total, step", [(4_000, 2**13, 1), (250_000, 2**19, 61)], ids=["merged", "searched"]
)
def test_draw_vertices_keys_on_cdf_values(n, total, step):
    # integer weights summing to a power of two, so u = k / total scales back
    # to exactly k: keys on cdf values in merged chunks, or in chunks too
    # sparse to merge, and in the short last chunk; a key equal to cdf[i]
    # belongs to vertex i + 2
    weights = np.random.default_rng(3).integers(1, 4, n)
    weights[n // 2] += total - weights.sum()
    cdf = np.cumsum(weights)
    k = np.arange(0, total, step)
    k = np.sort(np.concatenate([np.tile(k, 3), k[-100:]]))
    got = _assert_draw_is_inversion(cdf, k / total)
    on = np.isin(k, cdf)
    assert on[:CHUNK].any() and on[-100:].any()
    np.testing.assert_array_equal(got[on], np.searchsorted(cdf, k[on]) + 2)


def test_draw_vertices_repeated_cdf_values():
    # a weight below half an ulp of the running sum leaves the sum unchanged
    cdf = np.cumsum([1e20, 1.0, 1.0])
    assert cdf[0] == cdf[-1]
    u = np.random.default_rng(4).random(CHUNK + 5)
    u[:3] = 0.0
    assert (_assert_draw_is_inversion(cdf, u) == 1).all()
    # a run of equal cdf values in the middle, with keys on the repeated value:
    # they go past the whole run
    cdf = np.cumsum([1.0, 1e-17, 1e-17, 1.0])
    assert cdf[0] == cdf[2] < cdf[3]
    u = np.full(2 * CHUNK, 0.5)
    u[::2] = np.random.default_rng(5).random(CHUNK)
    got = _assert_draw_is_inversion(cdf, u)
    assert (got[np.sort(u) == 0.5] == 4).all()


@pytest.mark.parametrize("size", [1, CHUNK + 1])
def test_draw_vertices_single_vertex(size):
    u = np.random.default_rng(size).random(size)
    u[0] = 0.0
    assert (_assert_draw_is_inversion(np.array([2.5]), u) == 1).all()


def test_draw_vertices_all_keys_in_one_heavy_vertex():
    weights = np.ones(1_000)
    weights[500] = 1e12
    cdf = np.cumsum(weights)
    lo, hi = cdf[499] / cdf[-1], cdf[500] / cdf[-1]
    u = lo + (hi - lo) * np.random.default_rng(6).uniform(0.01, 0.99, 3 * CHUNK + 9)
    assert (_assert_draw_is_inversion(cdf, u) == 501).all()


@pytest.mark.parametrize("seed", range(6))
def test_draw_vertices_random_pareto_cdfs(seed):
    # vertex counts from one to far more than the keys, so some chunks merge
    # and some (a long cdf slice per chunk) search key by key
    rng = np.random.default_rng(seed)
    for n in (1, 7, 5_000, 300_000):
        cdf = np.cumsum(rng.pareto(rng.uniform(0.5, 3.0), n) + 1e-3)
        _assert_draw_is_inversion(cdf, rng.random(int(rng.integers(0, 4 * CHUNK))))


def test_total_arcs_poisson_law():
    w = _const_pair(50)
    reps = 4_000
    seed = derive_seed(7_000, "test_total_arcs_poisson_law", "fast")
    g = sample_graph_fast(w, 100.0, seed, reps=reps)
    # sum rates = (100 * 100) / 100
    assert poisson_chisquare(_block_totals(g, reps), 100.0).pvalue >= 1e-3


def test_naive_cap_guard(monkeypatch):
    w = _const_pair(6)
    monkeypatch.setattr(sampler, "NAIVE_DEFAULT_CAP", 5)
    with pytest.raises(ValueError, match="NAIVE_DEFAULT_CAP=5"):
        sample_graph_naive(w, 12.0, 0)
    monkeypatch.setattr(sampler, "NAIVE_DEFAULT_CAP", 6)
    g = sample_graph_naive(w, 12.0, 0)
    assert g.n == 6


def test_samplers_reject_bad_reps():
    w = _const_pair(3)
    calls = [
        lambda reps: sample_graph_fast(w, 6.0, 0, reps=reps),
        lambda reps: sample_graph_naive(w, 6.0, 0, reps=reps),
        lambda reps: oriented_sum_parts(w, 0, reps=reps),
        lambda reps: sample_randomly_oriented_nr(w, 0, reps=reps),
        lambda reps: evolve_chain(Constant(2.0), 1, 3, 0, reps=reps),
    ]
    for call in calls:
        for bad in (0, -1):
            with pytest.raises(ValueError, match="reps must be >= 1"):
                call(bad)
    g = sample_graph_fast(w.prefix(2), 6.0, 0, reps=3)
    with pytest.raises(ValueError, match="not 4 equal blocks"):
        evolve(g, w, 6.0, 6.0, 0, reps=4)
    assert evolve(g, w, 6.0, 6.0, 0, reps=3).n == 9


def test_rejects_bad_normalizer():
    w = _const_pair(3)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            sample_graph_fast(w, bad, 0)


def test_sampling_is_deterministic():
    w = sample_weights(ParetoMirrored(4.0, 1.0), 40, seed=3)
    l_n = float(w.sum_in)
    assert sample_graph_fast(w, l_n, 9) == sample_graph_fast(w, l_n, 9)
    assert sample_graph_naive(w, l_n, 9) == sample_graph_naive(w, l_n, 9)
    assert sample_oriented_sum(w, 9) == sample_oriented_sum(w, 9)
    assert sample_randomly_oriented_nr(w, 9) == sample_randomly_oriented_nr(w, 9)
    assert sample_graph_fast(w, l_n, 9) != sample_graph_fast(w, l_n, 10)


def test_evolve_identity_thinning_keeps_old_arcs():
    w = sample_weights(Constant(2.0), 6, seed=1)
    g5 = sample_graph_fast(w.prefix(5), 10.0, 4)
    g6 = evolve(g5, w, 10.0, 10.0, seed=77)
    old_arcs = arc_dict(g5)
    for pair, mult in old_arcs.items():
        assert g6.multiplicity(*pair) == mult
    new_pairs = [p for p in arc_dict(g6) if p not in old_arcs]
    assert all(6 in p for p in new_pairs)


def test_evolve_rejects_shrinking_normalizer():
    w = sample_weights(Constant(2.0), 4, seed=0)
    g = sample_graph_fast(w.prefix(3), 6.0, 0)
    with pytest.raises(ValueError, match="nondecreasing"):
        evolve(g, w, 6.0, 5.0, seed=0)


def test_evolve_needs_enough_weights():
    w = sample_weights(Constant(2.0), 3, seed=0)
    g = sample_graph_fast(w, 6.0, 0)
    with pytest.raises(ValueError, match="weight sequence"):
        evolve(g, w, 6.0, 8.0, seed=0)


def test_evolve_chain_rejects_empirical_normalizer():
    with pytest.raises(ValueError, match="not monotone"):
        evolve_chain(Constant(2.0), 2, 4, seed=0, mode=NormalizerMode.EMPIRICAL_PRODUCT)


def test_evolve_chain_matches_direct_totals():
    """Grown 2 -> 4 and direct totals both follow the exact Poisson(8) law."""
    name = "test_evolve_chain_matches_direct_totals"
    reps = 15_000
    mode = NormalizerMode.DETERMINISTIC_MU_N
    chain = evolve_chain(Constant(2.0), 2, 4, derive_seed(1_000, name, "chain"), mode, reps=reps)
    seed = derive_seed(50_000, name, "direct")
    direct = sample_graph_fast(sample_weights(Constant(2.0), 4, seed), 8.0, seed, reps=reps)
    # at n=4 with L=mu*n the total rate is (8*8)/8
    cells = [poisson_chisquare(_block_totals(g, reps), 8.0) for g in (chain, direct)]
    assert summed_pvalue(cells) >= 1e-3


def test_oriented_parts_orientations():
    w = sample_weights(ParetoMirrored(3.5, 1.0), 30, seed=2)
    parts = oriented_sum_parts(w, seed=8)
    assert np.all(parts.first.src <= parts.first.dst)
    assert np.all(parts.second.src >= parts.second.dst)


def test_oriented_sum_graph_is_part_sum():
    w = sample_weights(ParetoMirrored(3.5, 1.0), 25, seed=6)
    parts = oriented_sum_parts(w, seed=13)
    merged = {}
    for part in (parts.first, parts.second):
        for pair, mult in arc_dict(part).items():
            merged[pair] = merged.get(pair, 0) + mult
    assert arc_dict(parts.graph) == merged
    assert parts.graph.total_arcs == parts.first.total_arcs + parts.second.total_arcs


@pytest.mark.parametrize("construction", ["oriented", "independent"])
def test_sum_parts_build_from_their_codes_in_any_order(construction):
    # each build sorts a buffer in place; the codes the parts hold stay as drawn
    def draw():
        if construction == "oriented":
            return oriented_sum_parts(sample_weights(ParetoMirrored(3.5, 1.0), 300, seed=4), seed=5)
        return independent_sum_parts(ConstantMarginal(2.0), ParetoMarginal(3.5, 1.2), 300, seed=5)

    drawn = draw()
    first_codes, second_codes = drawn.first_codes.copy(), drawn.second_codes.copy()
    n = drawn.n

    def decoded(codes):
        src, dst = np.divmod(codes, n + 1)
        return MultiDigraph(n, src, dst, np.ones(codes.size, dtype=np.int64))

    expected = {
        "first": decoded(first_codes),
        "second": decoded(second_codes),
        "graph": decoded(np.concatenate((first_codes, second_codes))),
    }
    for names in (("first", "graph", "second"), ("second", "graph", "first")):
        parts = draw()
        # each read twice, the second time rebuilt from the codes
        for name in names + names:
            vars(parts).pop(name, None)
            assert getattr(parts, name) == expected[name]
        assert np.array_equal(parts.first_codes, first_codes)
        assert np.array_equal(parts.second_codes, second_codes)


def test_sum_constructions_need_mirrored_weights():
    w = WeightSequence(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="mirrored"):
        oriented_sum_parts(w, seed=0)
    with pytest.raises(ValueError, match="mirrored"):
        sample_randomly_oriented_nr(w, seed=0)


def test_single_vertex_loop_laws_agree():
    """All three mirrored constructions give the same loop law at n=1."""
    name = "test_single_vertex_loop_laws_agree"
    w = _const_pair(1)  # capacity 2, default l_n = 2, loop rate 4/2
    reps = 15_000
    graphs = [
        sample_graph_fast(w, 2.0, derive_seed(90_000, name, "direct"), reps=reps),
        oriented_sum_parts(w, derive_seed(120_000, name, "oriented-sum"), reps=reps).graph,
        sample_randomly_oriented_nr(w, derive_seed(150_000, name, "random-orientation"), reps=reps),
    ]
    # at n = 1 every arc is a loop
    assert summed_pvalue([poisson_chisquare(_block_totals(g, reps), 2.0) for g in graphs]) >= 1e-3


def test_independent_sum_accepts_marginals_and_mirrored_models():
    parts = independent_sum_parts(ConstantMarginal(2.0), ConstantMarginal(2.0), 50, seed=1)
    assert parts.graph.n == 50
    mixed = independent_sum_parts(
        MirroredCapacity(ConstantMarginal(2.0)), ParetoMarginal(3.5, 1.2), 50, seed=1
    )
    assert mixed.graph.n == 50


def test_independent_sum_rejects_mismatched_means():
    with pytest.raises(ValueError, match="means must agree"):
        independent_sum_parts(ConstantMarginal(2.0), ConstantMarginal(3.0), 10, seed=0)


def test_independent_sum_rejects_two_sided_models():
    two_sided = IndependentProduct(ConstantMarginal(2.0), ConstantMarginal(2.0))
    with pytest.raises(ValueError, match="one-sided"):
        independent_sum_parts(two_sided, ConstantMarginal(2.0), 10, seed=0)
    with pytest.raises(TypeError):
        independent_sum_parts(2.0, ConstantMarginal(2.0), 10, seed=0)


def test_independent_sum_total_intensity():
    # each constituent carries (sum cap)^2 / (2 L) = mu n / 2 arcs on average
    n, reps = 200, 300
    cap = np.full(n, 2.0)  # what ConstantMarginal(2.0) draws
    seed = derive_seed(0, "test_independent_sum_total_intensity", "indep-sum")
    totals = _block_totals(_sum_parts(cap, cap, 2.0 * n, seed, "indep-sum", reps).graph, reps)
    se = np.sqrt(2 * n * 2.0 / reps)  # Poisson(mu n) mean over reps
    assert abs(totals.mean() - 2.0 * n) < 5 * se


def test_constituent_totals_are_poisson():
    reps = 10_000
    cap = np.full(10, 2.0)  # what ConstantMarginal(2.0) draws
    seed = derive_seed(300_000, "test_constituent_totals_are_poisson", "first")
    firsts = _block_totals(_sum_parts(cap, cap, 20.0, seed, "indep-sum", reps).first, reps)
    # (sum cap)^2 / (2 L) = 400 / 40
    assert poisson_chisquare(firsts, 10.0).pvalue >= 1e-3


def test_mean_matrix_agrees_with_rates():
    """Aggregated per-pair counts track the rate matrix (law of large numbers)."""
    w = sample_weights(ParetoMirrored(4.0, 1.0), 4, seed=9)
    l_n = float(w.sum_in)
    reps = 30_000
    seed = derive_seed(700_000, "test_mean_matrix_agrees_with_rates", "fast")
    m = block_pairs(sample_graph_fast(w, l_n, seed, reps=reps), reps)
    rates = np.outer(w.w_out, w.w_in).ravel() / l_n
    z = (m.mean(axis=0) - rates) / np.sqrt(rates / reps)
    assert np.max(np.abs(z)) < 4.5


def test_stats_helpers_reject_short_input():
    with pytest.raises(ValueError):
        poisson_chisquare(np.array([], dtype=np.int64), 1.0)
