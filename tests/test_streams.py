"""Tests for seeded stream derivation and the samplers' endpoint draw."""

import numpy as np
import pytest
from scipy import stats

from poisson_digraph.sampler import (
    sample_graph_fast,
    sample_oriented_sum,
    sample_randomly_oriented_nr,
)
from poisson_digraph.streams import derive_seed, stream
from poisson_digraph.weights import WeightSequence


def test_stream_is_deterministic():
    a = stream(42, "weights").random(16)
    b = stream(42, "weights").random(16)
    assert np.array_equal(a, b)


def test_streams_differ_across_tags_and_seeds():
    base = stream(42, "weights").random(16)
    assert not np.array_equal(base, stream(42, "fast").random(16))
    assert not np.array_equal(base, stream(43, "weights").random(16))
    assert not np.array_equal(base, stream(42, "weights", 1).random(16))


def test_integer_and_string_tags_are_distinct():
    assert not np.array_equal(
        stream(0, 1, "a").random(8), stream(0, "1", "a").random(8)
    )


def test_negative_and_huge_seeds_accepted():
    for seed in (-1, 0, 2**63, 2**80 + 17):
        assert stream(seed, "x").random(4).shape == (4,)


def test_derive_seed_stable_and_spread():
    first = derive_seed(7, "scaling", 1024, 0)
    assert first == derive_seed(7, "scaling", 1024, 0)
    others = {derive_seed(7, "scaling", 1024, r) for r in range(100)}
    assert len(others) == 100
    assert all(0 <= s < 2**63 for s in others)


# The samplers draw arc endpoints as sorted inverse-CDF samples plus one
# shuffle; these tests pin that draw to the product law.

W_IN = np.array([0.5, 3.0, 1.5, 0.2, 5.0])
W_OUT = np.array([2.0, 1.0, 4.0, 0.7, 2.5])
TARGET_ARCS = 200_000

SAMPLERS = {
    "fast-two-sided": (W_IN, W_OUT, sample_graph_fast),
    "fast-mirrored": (W_IN, W_IN, sample_graph_fast),
    "oriented-sum": (W_IN, W_IN, lambda w, l_n, seed: sample_oriented_sum(w, seed, l_n)),
    "randomly-oriented": (
        W_IN,
        W_IN,
        lambda w, l_n, seed: sample_randomly_oriented_nr(w, seed, l_n),
    ),
}


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_endpoint_pair_table_matches_weights(name):
    w_in, w_out, sampler = SAMPLERS[name]
    w = WeightSequence(w_in, w_out)
    g = sampler(w, w.sum_in * w.sum_out / TARGET_ARCS, 3)
    n = w.n
    counts = np.zeros(n * n, dtype=np.int64)
    counts[(g.src - 1) * n + (g.dst - 1)] = g.mult
    expected = np.outer(w_out, w_in).ravel()
    expected *= g.total_arcs / expected.sum()
    assert g.total_arcs > TARGET_ARCS // 2
    _, p = stats.chisquare(counts, expected)
    assert p > 1e-3


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_single_vertex_graph_is_one_loop(name):
    _, _, sampler = SAMPLERS[name]
    w = WeightSequence(np.array([2.5]), np.array([2.5]))
    g = sampler(w, 0.1, 0)
    assert g.total_arcs > 0
    assert g.src.tolist() == [1] and g.dst.tolist() == [1]
    assert g.mult.tolist() == [g.total_arcs]


def test_alias_table_rejects_bad_weights():
    # The endpoint draw (an alias table before the inverse-CDF draw) gets its
    # weights only through WeightSequence, which rejects them on either side.
    for bad in ([], [-1.0, 2.0], [np.inf, 1.0], [0.0, 0.0]):
        bad = np.array(bad, dtype=np.float64)
        good = np.ones(bad.size)
        for w_in, w_out in ((bad, good), (good, bad)):
            with pytest.raises(ValueError):
                WeightSequence(w_in, w_out)
