"""Tests for the self-check suite: its plumbing, the block-graph decoder
behind every batched count, and both suites passing at the CLI's default
seed."""

import numpy as np
import pytest

from poisson_digraph.sampler import sample_graph_fast
from poisson_digraph.verify import (
    CheckResult,
    _block_totals,
    _check_giant_mirrored,
    _decode_blocks,
    check_graph_against_model,
    run_suite,
)
from poisson_digraph.weights import Constant, sample_weights
from graph_helpers import arc_dict, block_pairs, graph_from_arcs


def test_check_result_serialization():
    c = CheckResult(
        name="demo", statistic=0.5, threshold=1.0, passed=True, direction="below", detail="x"
    )
    d = c.to_dict()
    assert d["name"] == "demo"
    assert d["passed"] is True
    assert set(d) == {"name", "statistic", "threshold", "passed", "direction", "detail"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="suite"):
        run_suite("bogus")


def test_decode_blocks_maps_arcs_into_their_blocks():
    g = graph_from_arcs(6, {(1, 2): 1, (3, 3): 2, (5, 6): 1, (6, 5): 3})
    block, src, dst, mult = _decode_blocks(g, 3)
    assert block.tolist() == [0, 1, 2, 2]
    assert src.tolist() == [1, 1, 1, 2]
    assert dst.tolist() == [2, 1, 2, 1]
    assert mult.tolist() == [1, 2, 1, 3]
    assert _block_totals(g, 3).tolist() == [1, 2, 4]


def test_decode_blocks_rejects_cross_block_arcs_and_ragged_blocks():
    crossing = graph_from_arcs(4, {(1, 2): 1, (1, 4): 1})  # n = 2, reps = 2: 1 -> 4 joins blocks
    with pytest.raises(ValueError, match="crosses the blocks"):
        _decode_blocks(crossing, 2)
    with pytest.raises(ValueError, match="crosses the blocks"):
        _decode_blocks(graph_from_arcs(4, {(4, 1): 1}), 2)
    for reps in (3, 0):
        with pytest.raises(ValueError, match="not .* equal blocks"):
            _decode_blocks(crossing, reps)
    assert np.array_equal(_block_totals(crossing, 1), [2])


def test_block_pairs_matches_a_loop_over_arcs():
    n, reps = 3, 50
    g = sample_graph_fast(sample_weights(Constant(2.0), n, seed=4), 6.0, seed=5, reps=reps)
    expected = np.zeros((reps, n * n), dtype=np.int64)
    for (s, d), m in arc_dict(g).items():
        expected[(s - 1) // n, (s - 1) % n * n + (d - 1) % n] += m
    assert expected.sum() > 0
    assert np.array_equal(block_pairs(g, reps), expected)


def test_graph_check_accepts_and_rejects():
    w = sample_weights(Constant(2.0), 30_000, seed=14)
    g = sample_graph_fast(w, 60_000.0, seed=14)
    good = check_graph_against_model(g, Constant(2.0), threshold=0.03, source="mem")
    assert good.passed
    assert good.detail["source"] == "mem"
    bad = check_graph_against_model(g, Constant(5.0), threshold=0.03)
    assert not bad.passed
    assert bad.statistic > 0.3


def test_giant_mirrored_check_passes():
    # the full suite's giant check at the CLI's default seed, n = 1e5
    checks = _check_giant_mirrored(0)
    assert len(checks) == 3
    assert [c.name for c in checks if not c.passed] == []


@pytest.mark.parametrize("suite", ["quick", "full"])
def test_quick_suite_all_pass(suite):
    checks = run_suite(suite, seed=0)
    names = [c.name for c in checks]
    assert len(names) == len(set(names))
    failing = [c.name for c in checks if not c.passed]
    assert failing == []
