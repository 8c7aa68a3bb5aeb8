"""Distributional tests for the samplers and the sum constructions.

The naive sampler is the oracle for the fast one; both are checked against
the exact product-Poisson law on tiny graphs where the full joint law is
tractable.  Bigger checks (1e5 samples, both weight models) live in the
acceptance module.
"""

import numpy as np
import pytest
from scipy import stats

from poisson_digraph.analysis import empirical_tv, poisson_chisquare, product_poisson_chisquare
from poisson_digraph.sampler import (
    _evolve_chain,
    _fast,
    _naive,
    _oriented_sum_parts,
    _randomly_oriented,
    evolve,
    evolve_chain,
    independent_sum_parts,
    oriented_sum_parts,
    sample_graph_fast,
    sample_graph_naive,
    sample_independent_sum,
    sample_oriented_sum,
    sample_randomly_oriented_nr,
)
from poisson_digraph.streams import derive_seed
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
from graph_helpers import arc_dict


def _pair_counts(sampler, w, l_n, reps, seed0):
    """(reps, n*n) multiplicity matrix, row-major ordered pairs."""
    n = w.n
    out = np.zeros((reps, n * n), dtype=np.int64)
    for r in range(reps):
        g = sampler(w, l_n, seed0 + r)
        idx = (g.src - 1) * n + (g.dst - 1)
        out[r, idx] = g.mult
    return out


def _const_pair(n, value=2.0):
    c = np.full(n, value)
    return WeightSequence(c.copy(), c.copy())


def test_fast_matches_exact_joint_law_n2():
    w = _const_pair(2)
    l_n = 4.0  # mu * n
    m = _pair_counts(sample_graph_fast, w, l_n, 20_000, 100)
    res = product_poisson_chisquare(m, np.full(4, 1.0))
    assert res.pvalue >= 1e-3


def test_naive_matches_exact_joint_law_n2():
    w = _const_pair(2)
    m = _pair_counts(sample_graph_naive, w, 4.0, 20_000, 200)
    res = product_poisson_chisquare(m, np.full(4, 1.0))
    assert res.pvalue >= 1e-3


def test_fast_and_naive_agree_pairwise_heavy_tails():
    w = sample_weights(ParetoMirrored(3.5, 1.0), 3, seed=5)
    l_n = float(w.sum_in)
    reps = 20_000
    mf = _pair_counts(sample_graph_fast, w, l_n, reps, 300)
    mn = _pair_counts(sample_graph_naive, w, l_n, reps, 40_300)
    rates = np.outer(w.w_out, w.w_in).ravel() / l_n
    for j in range(9):
        assert empirical_tv(mf[:, j], mn[:, j]) < 0.03
        assert poisson_chisquare(mf[:, j], rates[j]).pvalue >= 1e-3
        assert poisson_chisquare(mn[:, j], rates[j]).pvalue >= 1e-3
    assert empirical_tv(mf.sum(axis=1), mn.sum(axis=1)) < 0.03


BATCH_BODIES = {
    "fast": lambda model, w, l_n, seed, reps: _fast(w, l_n, seed, reps),
    "naive": lambda model, w, l_n, seed, reps: _naive(w, l_n, seed, reps),
    "oriented-sum": lambda model, w, l_n, seed, reps: _oriented_sum_parts(w, seed, l_n, reps).graph,
    "random-orientation": lambda model, w, l_n, seed, reps: _randomly_oriented(w, seed, l_n, reps),
    "evolve-chain": lambda model, w, l_n, seed, reps: _evolve_chain(
        model, 1, 2, seed, NormalizerMode.DETERMINISTIC_MU_N, reps
    ),
}


@pytest.mark.parametrize("case", sorted(BATCH_BODIES))
def test_batch_blocks_follow_the_exact_law(case):
    """Each block of a batch is an independent sample of the exact pair law at n = 2."""
    n, reps = 2, 50_000
    model = ParetoMirrored(3.5, 1.0)
    seed = derive_seed(0, "batch-law", case)
    w = sample_weights(model, n, seed)  # the weights evolve_chain draws at this seed
    l_n = moments(model).mu * n  # the chain's final normalizer
    g = BATCH_BODIES[case](model, w, l_n, seed, reps)
    assert g.n == reps * n
    block = (g.src - 1) // n
    assert np.array_equal(block, (g.dst - 1) // n)
    counts = np.zeros(reps * n * n, dtype=np.int64)
    counts[block * n * n + (g.src - 1) % n * n + (g.dst - 1) % n] = g.mult
    rates = np.outer(w.w_out, w.w_in).ravel() / l_n
    assert product_poisson_chisquare(counts.reshape(reps, n * n), rates).pvalue >= 1e-3
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
        g = _fast(w, l_n, derive_seed(0, "pair-degrees", chunk), reps)
        (src_block, src), (dst_block, dst) = divmod(g.src - 1, n), divmod(g.dst - 1, n)
        from_pair = (src < 2) & (src_block == dst_block)
        to_pair = (dst < 2) & (src_block == dst_block)

        def per_block(block, keep):
            return np.bincount(block, g.mult * keep, reps)

        counts.append(
            np.column_stack(
                [
                    per_block(dst_block, (dst == 0) & ~from_pair),
                    per_block(src_block, (src == 0) & ~to_pair),
                    per_block(dst_block, (dst == 1) & ~from_pair),
                    per_block(src_block, (src == 1) & ~to_pair),
                    per_block(src_block, from_pair & (src == 0) & (dst == 1)),
                    per_block(src_block, from_pair & (src == 1) & (dst == 0)),
                ]
            ).astype(np.int64)
        )
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


def test_total_arcs_poisson_law():
    w = _const_pair(50)
    totals = np.array(
        [sample_graph_fast(w, 100.0, 7_000 + r).total_arcs for r in range(4_000)]
    )
    # sum rates = (100 * 100) / 100
    assert poisson_chisquare(totals, 100.0).pvalue >= 1e-3


def test_naive_cap_guard():
    w = _const_pair(6)
    with pytest.raises(ValueError, match="max_n=5"):
        sample_graph_naive(w, 12.0, 0, max_n=5)
    g = sample_graph_naive(w, 12.0, 0, max_n=6)
    assert g.n == 6


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
    reps = 15_000
    chain = np.array(
        [evolve_chain(Constant(2.0), 2, 4, seed=1_000 + r).total_arcs for r in range(reps)]
    )
    # at n=4 with L=mu*n the total rate is (8*8)/8
    assert poisson_chisquare(chain, 8.0).pvalue >= 1e-3
    direct = np.array(
        [
            sample_graph_fast(sample_weights(Constant(2.0), 4, 50_000 + r), 8.0, 50_000 + r).total_arcs
            for r in range(reps)
        ]
    )
    assert empirical_tv(chain, direct) < 0.02


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


def test_sum_constructions_need_mirrored_weights():
    w = WeightSequence(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="mirrored"):
        oriented_sum_parts(w, seed=0)
    with pytest.raises(ValueError, match="mirrored"):
        sample_randomly_oriented_nr(w, seed=0)


def test_single_vertex_loop_laws_agree():
    """All three mirrored constructions give the same loop law at n=1."""
    w = _const_pair(1)  # capacity 2, default l_n = 2, loop rate 4/2
    reps = 15_000
    direct = np.array(
        [sample_graph_fast(w, 2.0, 90_000 + r).multiplicity(1, 1) for r in range(reps)]
    )
    summed = np.array(
        [sample_oriented_sum(w, 120_000 + r).multiplicity(1, 1) for r in range(reps)]
    )
    coin = np.array(
        [sample_randomly_oriented_nr(w, 150_000 + r).multiplicity(1, 1) for r in range(reps)]
    )
    for sample in (direct, summed, coin):
        assert poisson_chisquare(sample, 2.0).pvalue >= 1e-3
    assert empirical_tv(direct, summed) < 0.025
    assert empirical_tv(direct, coin) < 0.025


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
    totals = np.array(
        [
            sample_independent_sum(ConstantMarginal(2.0), ConstantMarginal(2.0), n, seed=r).total_arcs
            for r in range(reps)
        ]
    )
    se = np.sqrt(2 * n * 2.0 / reps)  # Poisson(mu n) mean over reps
    assert abs(totals.mean() - 2.0 * n) < 5 * se


def test_constituent_totals_are_poisson():
    reps = 10_000
    firsts = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        firsts[r] = independent_sum_parts(
            ConstantMarginal(2.0), ConstantMarginal(2.0), 10, seed=300_000 + r
        ).first.total_arcs
    # (sum cap)^2 / (2 L) = 400 / 40
    assert poisson_chisquare(firsts, 10.0).pvalue >= 1e-3


def test_mean_matrix_agrees_with_rates():
    """Aggregated per-pair counts track the rate matrix (law of large numbers)."""
    w = sample_weights(ParetoMirrored(4.0, 1.0), 4, seed=9)
    l_n = float(w.sum_in)
    reps = 30_000
    m = _pair_counts(sample_graph_fast, w, l_n, reps, 700_000)
    rates = np.outer(w.w_out, w.w_in).ravel() / l_n
    z = (m.mean(axis=0) - rates) / np.sqrt(rates / reps)
    assert np.max(np.abs(z)) < 4.5


def test_stats_helpers_reject_short_input():
    with pytest.raises(ValueError):
        poisson_chisquare(np.array([], dtype=np.int64), 1.0)
