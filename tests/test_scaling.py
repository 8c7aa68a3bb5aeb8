"""Tests for the critical-window cluster-size experiment."""

import hashlib
import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from graph_helpers import forward_cluster
from poisson_digraph import scaling
from poisson_digraph.sampler import oriented_sum_parts
from poisson_digraph.scaling import (
    STATISTICS,
    ScalingResult,
    assert_critical,
    scaling_exponent_experiment,
    theoretical_alpha,
)
from poisson_digraph.streams import derive_seed, stream
from poisson_digraph.weights import (
    Constant,
    ConstantMarginal,
    IndependentProduct,
    ParetoMirrored,
    critical_pareto_mirrored,
    moments,
    sample_weights,
)


def test_theoretical_alpha_values():
    assert theoretical_alpha(critical_pareto_mirrored(3.5)) == pytest.approx(0.6)
    assert theoretical_alpha(critical_pareto_mirrored(4.0)) == pytest.approx(2.0 / 3.0)
    assert theoretical_alpha(critical_pareto_mirrored(6.0)) == pytest.approx(2.0 / 3.0)
    assert theoretical_alpha(Constant(1.0)) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError, match="no single capacity marginal"):
        theoretical_alpha(IndependentProduct(ConstantMarginal(1.0), ConstantMarginal(1.0)))


def test_assert_critical():
    assert_critical(Constant(1.0))
    assert_critical(critical_pareto_mirrored(3.5))
    with pytest.raises(ValueError, match="critical"):
        assert_critical(Constant(2.0))
    with pytest.raises(ValueError, match="critical"):
        assert_critical(ParetoMirrored(3.5, 1.0))


def test_experiment_rejects_bad_input():
    with pytest.raises(ValueError):
        scaling_exponent_experiment(Constant(2.0), (64, 128), reps=2)
    with pytest.raises(ValueError, match="mirrored"):
        scaling_exponent_experiment(
            IndependentProduct(ConstantMarginal(1.0), ConstantMarginal(1.0)),
            (64, 128),
            reps=2,
        )
    with pytest.raises(ValueError, match="two sizes"):
        scaling_exponent_experiment(Constant(1.0), (64,), reps=2)


@pytest.mark.parametrize("option", ["sources", "bootstrap", "threads"])
def test_experiment_rejects_nonpositive_counts(option):
    with pytest.raises(ValueError, match=f"{option} must be >= 1"):
        scaling_exponent_experiment(
            critical_pareto_mirrored(3.5), (64, 128), reps=2, **{option: 0}
        )


def _tiny_run(threads=1, seed=3):
    return scaling_exponent_experiment(
        critical_pareto_mirrored(3.5),
        (128, 256, 512),
        reps=4,
        seed=seed,
        sources=8,
        threads=threads,
        bootstrap=25,
    )


def test_experiment_shape_and_determinism():
    a = _tiny_run()
    b = _tiny_run()
    assert a.n_values == (128, 256, 512)
    assert a.reps == 4
    for stat in STATISTICS:
        assert len(a.medians[stat]) == 3
        np.testing.assert_array_equal(a.medians[stat], b.medians[stat])
        np.testing.assert_array_equal(a.means[stat], b.means[stat])
        assert a.slopes[stat].slope == b.slopes[stat].slope
        assert np.isfinite(a.slopes[stat].slope)
    assert a.alpha_theory == pytest.approx(0.6)
    different = _tiny_run(seed=4)
    assert any(
        not np.array_equal(a.medians[s], different.medians[s]) for s in STATISTICS
    )


def test_tiny_run_bytes_are_pinned():
    # the medians, means, slopes and bootstrap bounds, to the last bit, in
    # process and from two workers
    for threads in (1, 2):
        digest = hashlib.sha256(_tiny_run(threads=threads).to_json().encode()).hexdigest()
        assert digest == "0e5530a26fa10cb8520e518f98099ac037af44fd360c039183adc98f5ad9ed13", threads
    assert multiprocessing.active_children() == []


needs_two_workers = pytest.mark.skipif(
    scaling._worker_count(2, 2) < 2, reason="this process may use one CPU"
)


def _pid(n, rep_seed):
    return os.getpid()


def _fail_at_256(model, mu, sources, n, rep_seed):
    if n == 256:
        raise RuntimeError(f"replicate failed in process {os.getpid()}")
    return 1, 1, 1, 1


@needs_two_workers
def test_replicates_run_in_workers_unless_threads_run():
    tasks = [(64, r) for r in range(6)]
    assert os.getpid() not in scaling._run_replicates(_pid, tasks, 2)
    assert scaling._run_replicates(_pid, tasks, 1) == [os.getpid()] * 6
    # a fork would copy no thread but the caller's, so the loop stays here
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert scaling._run_replicates(_pid, tasks, 2) == [os.getpid()] * 6
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert multiprocessing.active_children() == []


@needs_two_workers
def test_worker_error_reaches_the_caller_and_ends_the_pool(monkeypatch):
    monkeypatch.setattr(scaling, "_one_replicate", _fail_at_256)
    with pytest.raises(RuntimeError, match="replicate failed in process") as info:
        _tiny_run(threads=2)
    assert int(str(info.value).rsplit(" ", 1)[1]) != os.getpid()
    assert multiprocessing.active_children() == []


def test_worker_count_is_capped_by_cpus_and_tasks(monkeypatch):
    # no process starts: the count is computed, never used
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert scaling._worker_count(8, 80) == 8
    assert scaling._worker_count(10**6, 80) == 64
    assert scaling._worker_count(8, 5) == 5
    assert scaling._worker_count(1, 80) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert scaling._worker_count(8, 80) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert scaling._worker_count(8, 80) == 3


def test_thread_count_does_not_change_results():
    a = _tiny_run(threads=1)
    b = _tiny_run(threads=3)
    for stat in STATISTICS:
        np.testing.assert_array_equal(a.medians[stat], b.medians[stat])
        assert a.slopes[stat].slope == b.slopes[stat].slope


def test_forward_medians_match_per_root_oracle():
    # _tiny_run's replicates rebuilt, each root's cluster by the set oracle
    model = critical_pareto_mirrored(3.5)
    mu = moments(model).mu
    expected = []
    for n in (128, 256, 512):
        best = []
        for r in range(4):
            rep_seed = derive_seed(3, "scaling", n, r)
            w = sample_weights(model, n, rep_seed)
            g = oriented_sum_parts(w, rep_seed, l_n=mu * n).graph
            top = np.argpartition(w.w_in, n - 8)[n - 8 :]
            rand = stream(rep_seed, "scaling-sources").integers(0, n, size=8)
            roots = np.unique(np.concatenate([top, rand])) + 1
            best.append(max(len(forward_cluster(g, int(v))) for v in roots))
        expected.append(float(np.median(best)))
    assert _tiny_run().medians["forward"] == tuple(expected)


def test_cluster_sizes_grow_with_n():
    res = _tiny_run()
    weak = res.medians["weak"]
    assert weak[-1] > weak[0]
    for stat in STATISTICS:
        assert np.all(np.asarray(res.medians[stat]) >= 1)


def test_tsv_format():
    res = _tiny_run()
    text = res.to_tsv()
    lines = text.strip().split("\n")
    assert lines[0] == "# poisson-digraph scaling v1"
    assert any(line.startswith("# alpha_theory=") for line in lines)
    for stat in STATISTICS:
        assert any(line.startswith(f"# slope_{stat}=") for line in lines)
    data_rows = [line for line in lines if not line.startswith("#")]
    assert len(data_rows) == 3
    first = data_rows[0].split("\t")
    assert first[0] == "128"
    assert len(first) == 9


def test_json_round_trip():
    res = _tiny_run()
    payload = json.loads(res.to_json())
    assert payload["n_values"] == [128, 256, 512]
    assert payload["alpha_theory"] == pytest.approx(0.6)
    for stat in STATISTICS:
        assert len(payload["medians"][stat]) == 3
        fit = payload["slopes"][stat]
        assert set(fit) == {"slope", "ci_low", "ci_high"}
