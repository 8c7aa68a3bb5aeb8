"""Tests for the self-check suite: its plumbing, and both suites passing at
the CLI's default seed."""

import pytest

from poisson_digraph.sampler import sample_graph_fast
from poisson_digraph.verify import (
    CheckResult,
    _check_giant_mirrored,
    check_graph_against_model,
    run_suite,
)
from poisson_digraph.weights import Constant, sample_weights


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
