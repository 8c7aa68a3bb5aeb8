"""Self-tests of the benchmark: each gate rejects a corrupted output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import gates
import spec
import tracing

HERE = Path(__file__).resolve().parent

N = 1000
ARCS = 1600


def _edge_list(rows: int = ARCS, n: int = N) -> str:
    lines = ["# poisson-digraph edge list v1", f"# n={n}", "# src\tdst\tmultiplicity"]
    lines += [f"{1 + i % n}\t{1 + (7 * i) % n}\t1" for i in range(rows)]
    return "\n".join(lines) + "\n"


def _large_graph(text: str) -> list[str]:
    _, arcs, _ = gates.edge_list_summary(text)
    components = {"largest_weak": 921, "largest_strong": 433}
    stats = {"n": N, "total_arcs": arcs, "degree_fit": {"passed": True}}
    prediction = {"zeta_weak": 0.9211, "pi": 0.4323}
    return gates.large_graph(text, components, stats, N, float(ARCS), prediction)


def test_large_graph_accepts_consistent_outputs():
    assert _large_graph(_edge_list()) == []


def test_truncated_edge_list_is_rejected():
    text = _edge_list()
    at_line = text[: len(text) // 2].rsplit("\n", 1)[0] + "\n"
    mid_line = at_line + text[len(at_line):].split("\t", 1)[0]
    assert any("Poisson mean" in f for f in _large_graph(at_line))
    assert any("malformed" in f for f in _large_graph(mid_line))


def test_wrong_header_and_failed_fit_are_rejected():
    text = _edge_list().replace(f"# n={N}", "# n=999")
    assert any("header" in f for f in _large_graph(text))
    stats = {"n": N, "total_arcs": ARCS, "degree_fit": {"passed": False}}
    failures = gates.large_graph(_edge_list(), {"largest_weak": 921, "largest_strong": 433}, stats,
                                 N, float(ARCS), {"zeta_weak": 0.9211, "pi": 0.4323})
    assert failures == ["stats degree_fit did not pass"]


def _scaling_output(weak=(100.0, 200.0), strong=(5.0, 6.0)) -> str:
    medians = {"weak": list(weak), "strong": list(strong), "forward": [50.0, 60.0], "constituent": [40.0, 50.0]}
    return json.dumps({"medians": medians}, sort_keys=True, indent=2) + "\n"


def test_scaling_outputs_that_differ_between_thread_counts_are_rejected():
    same = _scaling_output()
    assert gates.scaling({1: same, 2: same}) == []
    failures = gates.scaling({1: same, 2: _scaling_output(weak=(100.0, 201.0))})
    assert failures and "thread counts" in failures[0]


def test_scaling_strong_above_weak_is_rejected():
    bad = _scaling_output(strong=(5.0, 300.0))
    assert any("median strong" in f for f in gates.scaling({1: bad, 2: bad}))


def test_repetitions_that_differ_are_rejected():
    assert gates.repeated(["a", "a", "a"], "sample") == []
    assert gates.repeated(["a", "b"], "sample")


def test_replay_that_differs_from_the_cli_is_rejected():
    assert gates.replay_matches({"sample": "a"}, {"sample": "a", "extra": "x"}) == []
    assert gates.replay_matches({"sample": "a"}, {"sample": "b"})
    assert gates.replay_matches({"sample": "a"}, {})


def test_failing_verify_payload_is_rejected():
    checks = [{"name": "loop-law", "passed": True}, {"name": "construction-equivalence-tv", "passed": True}]
    assert gates.verify({"suite": "quick", "checks": checks, "all_pass": True}) == []
    checks[1]["passed"] = False
    failures = gates.verify({"suite": "quick", "checks": checks, "all_pass": False})
    assert failures and "construction-equivalence-tv" in failures[0]
    assert gates.verify({"suite": "quick", "checks": checks, "all_pass": True})
    assert gates.verify({"suite": "quick", "checks": [], "all_pass": True})


def test_exit_codes():
    assert gates.exit_codes({"sample": 0, "stats": 0}) == []
    assert gates.exit_codes({"verify": 1}) == ["verify: exit code 1"]


def _reports(const_q=0.2031878699799799, pareto_q=0.2873):
    oracles = {"constant-mirrored-sum": (0.2031878699799799, 0.7968121300200201),
               "pareto-mirrored-sum": (0.28738, 0.64617)}
    reports = {"constant-mirrored-sum": {"q_f": const_q, "zeta_f": 1.0 - const_q},
               "pareto-mirrored-sum": {"q_f": pareto_q, "zeta_f": 0.6462}}
    return reports, oracles


def test_predictions_off_their_oracles_are_rejected():
    assert gates.predictions(*_reports()) == []
    assert gates.predictions(*_reports(const_q=0.2031878699799799 + 1e-8))
    assert gates.predictions(*_reports(pareto_q=0.30))


def test_small_graph_totals_off_their_poisson_mean_are_rejected():
    means = {kind: mean for kind, (_, mean) in spec.SMALL_CALLS.items()}
    good = {kind: [4000, int(4000 * mean)] for kind, mean in means.items()}
    assert gates.small_graphs(good, means) == []
    bad = dict(good, fast=[4000, int(4000 * 6.5)])
    assert gates.small_graphs(bad, means) == ["fast: 26000 arcs in 4000 graphs, Poisson mean 6.0 each"]


def test_self_time_subtracts_children():
    spans = [
        {"name": "cli.stats", "start": 0.0, "end": 10.0, "parent": None, "run": "r"},
        {"name": "digraph.read_edge_list", "start": 1.0, "end": 4.0, "parent": 0, "run": "r"},
        {"name": "analysis.degree_fit_test", "start": 4.0, "end": 9.0, "parent": 0, "run": "r"},
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 5.0]
    assert tracing.layer_self_seconds(spans) == {"cli": 2.0, "digraph": 3.0, "analysis": 5.0}
    assert tracing.total_seconds(spans, "digraph.read_edge_list", "cli.stats") == 3.0
    assert tracing.median_call_us(spans, "analysis.degree_fit_test") == 5e6


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text("{}")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "small-graphs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
