"""One repetition of a workload, run in a fresh interpreter.

    python3 child.py <setup|run|check|trace> <workload> <seed> <workdir> <result.json>

``setup`` only times ``import poisson_digraph.cli``.  ``run`` then drives
the workload's commands through ``poisson_digraph.cli.main`` (the
untraced pass, which gives the end-to-end metrics); ``check`` does the
same and also computes, untimed, what the gates compare the outputs with.  ``trace`` instead
replays each command as its sequence of public library calls, one span
per call, plus probes that time single layers.  The result, including
the spans, goes to ``result.json``.

Nothing outside the standard library is imported before the package
import is timed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import gates
import spec
from tracing import Tracer, count, duration, layer_self_seconds, median_call_us, self_times, total_seconds

SURVIVAL_MC_SAMPLES = 1_000_000  # the package default behind `survival`
DEGREE_FIT_MC_SAMPLES = 200_000  # the package default behind `stats --model`


def main(argv: list[str]) -> int:
    mode, workload, seed, workdir, result_path = argv
    seed, work = int(seed), Path(workdir)
    start = time.perf_counter()
    import poisson_digraph.cli as cli

    result = {"setup_s": time.perf_counter() - start, "package_file": cli.__file__}
    import platform

    import numpy
    import scipy

    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if mode in ("run", "check"):
        result.update(RUNS[workload](cli, seed, work, facts=mode == "check"))
    elif mode == "trace":
        tracer = Tracer(run_id=f"{workload}-seed{seed}")
        result.update(TRACES[workload](tracer, seed, work))
        result["spans"] = tracer.spans
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    Path(result_path).write_text(json.dumps(result))
    return 0


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def reference_seconds() -> float:
    """Wall time of a fixed piece of work that runs no package code.

    The reference machine's speed drifts by 15-30 % from one minute to the
    next; a time divided by this one, measured just before and after it,
    does not.  The work mixes what the workloads spend their time on:
    interpreter bytecode, many small numpy calls, and sorting arrays larger
    than the L2 cache.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i % 7
    x = np.ones(8)
    for _ in range(4_000):
        x = np.sqrt(x + 1.0)
    a = np.random.default_rng(0).permutation(1_000_000)
    np.sort(a)
    np.argsort(a, kind="stable")
    return time.perf_counter() - start


def _cli_pass(cli, commands: dict[str, list[str]]) -> dict:
    """Each command timed on its own, with the reference work around it."""
    calls, codes, refs = {}, {}, [reference_seconds()]
    for name, argv in commands.items():
        start = time.perf_counter()
        codes[name] = cli.main(argv)
        calls[name] = time.perf_counter() - start
        refs.append(reference_seconds())
    return {
        "calls": calls,
        "ratios": {name: calls[name] / ((a + b) / 2) for name, a, b in zip(calls, refs, refs[1:])},
        "codes": codes,
        "wall_s": sum(calls.values()),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _named_totals(spans: list[dict]) -> dict[str, float]:
    """Summed seconds per span name, for the metrics named after one function."""
    names = {
        "weights.sample_weights_s": "weights.sample_weights",
        "sampler.sample_graph_fast_s": "sampler.sample_graph_fast",
        "sampler.oriented_sum_parts_s": "sampler.oriented_sum_parts",
        "digraph.edge_list_text_s": "digraph.edge_list_text",
        "digraph.read_edge_list_s": "digraph.read_edge_list",
        "structure.component_summary_s": "structure.component_summary",
        "structure.weak_components_s": "structure.weak_components",
        "structure.strong_components_s": "structure.strong_components",
        "structure.forward_cluster_size_s": "structure.forward_cluster_size",
        "structure.degree_arrays_s": "structure.degree_arrays",
        "analysis.degree_fit_test_s": "analysis.degree_fit_test",
        "analysis.mixed_poisson_pmf_s": "analysis.mixed_poisson_pmf",
        "analysis.mixing_pairs_s": "analysis.mixing_pairs",
    }
    totals = {key: total_seconds(spans, name) for key, name in names.items()}
    totals["digraph.build_s"] = total_seconds(spans, "digraph.MultiDigraph", "probe.build")
    return totals


def _common_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times, per-command CLI glue and the per-function totals."""
    metrics = {f"{layer}.self_s": secs for layer, secs in layer_self_seconds(spans).items()}
    metrics.update(_named_totals(spans))
    own = self_times(spans)
    for s, secs in zip(spans, own):
        if s["name"].startswith("cli."):
            key = f"{s['name']}.self_s"
            metrics[key] = metrics.get(key, 0.0) + secs
    metrics["traced_wall_s"] = sum(
        duration(s) for s in spans if s["parent"] is None and s["name"].startswith(("cli.", "workload."))
    )
    return metrics


# -- large-graph --------------------------------------------------------------


def _large_paths(work: Path, prefix: str = "") -> tuple[Path, Path, Path]:
    return work / f"{prefix}graph.tsv", work / f"{prefix}components.json", work / f"{prefix}stats.json"


def large_graph_run(cli, seed: int, work: Path, facts: bool) -> dict:
    from poisson_digraph import moments, parse_model, sample_weights, survival_fractions

    edge, comp, stats = _large_paths(work)
    model = spec.LARGE_MODEL
    result = _cli_pass(cli, {
        "sample": ["sample", "--model", model, "--n", str(spec.LARGE_N), "--seed", str(seed), "--out", str(edge)],
        "components": ["components", "--in", str(edge), "--out", str(comp)],
        "stats": [
            "stats", "--in", str(edge), "--model", model, "--kmax", str(spec.LARGE_KMAX),
            "--seed", str(seed), "--out", str(stats),
        ],
    })
    result["outputs"] = {"sample": str(edge), "components": str(comp), "stats": str(stats)}
    result["digests"] = {name: _sha256(Path(p).read_bytes()) for name, p in result["outputs"].items()}
    if not facts:
        return result
    parsed = parse_model(model)
    w = sample_weights(parsed, spec.LARGE_N, seed)
    report = survival_fractions(parsed, "plain", seed=seed)
    result["facts"] = {
        "expected_arcs": w.sum_out * w.sum_in / (moments(parsed).mu * spec.LARGE_N),
        "prediction": {"zeta_weak": report.zeta_weak, "pi": report.pi},
    }
    return result


def large_graph_trace(t: Tracer, seed: int, work: Path) -> dict:
    import numpy as np
    from poisson_digraph import (
        MultiDigraph, NormalizerMode, __version__, component_summary, degree_arrays, degree_fit_test,
        edge_list_text, mixed_poisson_pmf, mixing_pairs, model_to_json, moments, normalizer,
        parse_model, read_edge_list, sample_graph_fast, sample_weights,
    )

    edge, comp, stats = _large_paths(work, "replay-")
    with t.span("cli.sample"):
        model = t.call("weights.parse_model", parse_model, spec.LARGE_MODEL)
        w = t.call("weights.sample_weights", sample_weights, model, spec.LARGE_N, seed)
        mu = t.call("weights.moments", moments, model).mu
        mode = NormalizerMode("mu-n")
        l_n = t.call("weights.normalizer", normalizer, w, mu, mode)
        g = t.call("sampler.sample_graph_fast", sample_graph_fast, w, l_n, seed)
        meta = {
            "model": json.loads(t.call("weights.model_to_json", model_to_json, model)),
            "seed": seed,
            "normalizer_mode": mode.value,
            "l_n": float(l_n),
            "version": __version__,
        }
        text = t.call("digraph.edge_list_text", edge_list_text, g, meta)
        edge.write_text(text)
    digests = {"sample": _sha256(text)}
    extra = {
        "sampler.arcs": g.total_arcs,
        "digraph.distinct_arc_ratio": g.src.size / g.total_arcs,
        "digraph.edge_list_bytes": len(text.encode()),
    }
    array_bytes = {
        "weights": int(w.w_in.nbytes + w.w_out.nbytes),
        "graph_arcs": int(g.src.nbytes + g.dst.nbytes + g.mult.nbytes),
    }
    # the constructor on the input sample_graph_fast hands it: unit
    # multiplicities in draw order, here shuffled with the workload seed
    src, dst = np.repeat(g.src, g.mult), np.repeat(g.dst, g.mult)
    order = np.random.default_rng(seed).permutation(src.size)
    src, dst, ones = src[order], dst[order], np.ones(src.size, dtype=np.int64)
    array_bytes["build_input"] = int(src.nbytes + dst.nbytes + ones.nbytes)
    with t.span("probe.build"):
        t.call("digraph.MultiDigraph", MultiDigraph, g.n, src, dst, ones)
    del w, g, src, dst, ones, order, text

    with t.span("cli.components"):
        g, _ = t.call("digraph.read_edge_list", read_edge_list, edge)
        summary = t.call("structure.component_summary", component_summary, g)
        text = t.call("structure.ComponentSummary.to_json", summary.to_json, topk=5) + "\n"
        comp.write_text(text)
    digests["components"] = _sha256(text)
    del g, summary

    with t.span("cli.stats"):
        g, _ = t.call("digraph.read_edge_list", read_edge_list, edge)
        arr = t.call("structure.degree_arrays", degree_arrays, g)
        payload = {
            "n": g.n,
            "total_arcs": g.total_arcs,
            "total_loops": g.total_loops,
            "mean_in_degree": float(arr.d_in.mean()),
            "mean_out_degree": float(arr.d_out.mean()),
            "max_in_degree": int(arr.d_in.max()),
            "max_out_degree": int(arr.d_out.max()),
            "max_total_degree": int(arr.total.max()),
            "vertices_with_loops": int((arr.loops > 0).sum()),
        }
        fit_model = t.call("weights.parse_model", parse_model, spec.LARGE_MODEL)
        fit = t.call(
            "analysis.degree_fit_test", degree_fit_test, g, fit_model,
            kmax=spec.LARGE_KMAX, threshold=0.02, seed=seed,
        )
        payload["degree_fit"] = {
            "statistic": fit.statistic,
            "threshold": fit.threshold,
            "passed": fit.passed,
            "kmax": fit.kmax,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        stats.write_text(text)
    digests["stats"] = _sha256(text)
    del g, arr

    with t.span("probe.analysis"):
        t.call("analysis.mixed_poisson_pmf", mixed_poisson_pmf, model, spec.LARGE_KMAX,
               mc_samples=DEGREE_FIT_MC_SAMPLES, seed=seed)
        t.call("analysis.mixing_pairs", mixing_pairs, model, DEGREE_FIT_MC_SAMPLES, seed)
    # the branching layer: no kept workload runs it, so the survival
    # commands are replayed here as a probe
    with t.span("probe.predictions"):
        predictions = _survival_replay(t, seed, work)
    metrics = {**extra, **predictions["metrics"], **_common_metrics(t.spans)}
    return {"digests": digests, "metrics": metrics, "array_bytes": array_bytes,
            "reports": predictions["reports"], "oracles": predictions["oracles"]}


# -- critical-scaling ---------------------------------------------------------


def critical_scaling_run(cli, seed: int, work: Path, facts: bool) -> dict:
    outputs = {f"t{k}": str(work / f"scaling-t{k}.json") for k in spec.SCALING_THREADS}
    result = _cli_pass(cli, {
        f"scaling_t{k}": spec.scaling_argv(seed, k, outputs[f"t{k}"]) for k in spec.SCALING_THREADS
    })
    result["outputs"] = outputs
    result["digests"] = {name: _sha256(Path(p).read_bytes()) for name, p in outputs.items()}
    return result


def critical_scaling_trace(t: Tracer, seed: int, work: Path) -> dict:
    import numpy as np
    from poisson_digraph import (
        critical_pareto_mirrored, derive_seed, forward_cluster_size, moments, oriented_sum_parts,
        sample_weights, scaling_exponent_experiment, stream, strong_components, weak_components,
    )

    digests = {}
    for threads in spec.SCALING_THREADS:
        with t.span("cli.scaling"):
            model = t.call("weights.critical_pareto_mirrored", critical_pareto_mirrored, spec.SCALING_TAU)
            result = t.call(
                "scaling.scaling_exponent_experiment", scaling_exponent_experiment, model,
                spec.SCALING_N_LIST, reps=spec.SCALING_REPS, seed=seed, sources=spec.SCALING_SOURCES,
                threads=threads, bootstrap=spec.SCALING_BOOTSTRAP,
            )
            text = t.call("scaling.ScalingResult.to_json", result.to_json) + "\n"
            (work / f"replay-scaling-t{threads}.json").write_text(text)
        digests[f"t{threads}"] = _sha256(text)

    # the experiment's replicates, with the experiment's own replicate seeds
    mu = moments(model).mu
    sizes = {stat: [] for stat in ("weak", "forward", "strong", "constituent")}
    arcs = 0
    with t.span("probe.scaling-replicates"):
        for n in spec.SCALING_N_LIST:
            rows = {stat: [] for stat in sizes}
            for r in range(spec.SCALING_REPS):
                rep_seed = t.call("streams.derive_seed", derive_seed, seed, "scaling", n, r)
                w = t.call("weights.sample_weights", sample_weights, model, n, rep_seed)
                parts = t.call("sampler.oriented_sum_parts", oriented_sum_parts, w, rep_seed, l_n=mu * n)
                g = parts.graph
                arcs += g.total_arcs
                rows["weak"].append(t.call("structure.weak_components", lambda: weak_components(g).largest_weak))
                rows["strong"].append(
                    t.call("structure.strong_components", lambda: strong_components(g).largest_strong)
                )
                rows["constituent"].append(
                    t.call("structure.weak_components", lambda: weak_components(parts.first).largest_weak)
                )
                k = min(spec.SCALING_SOURCES, n)
                top = np.argpartition(w.w_in, n - k)[n - k:]
                rand = t.call("streams.stream", stream, rep_seed, "scaling-sources").integers(0, n, size=k)
                roots = np.unique(np.concatenate([top, rand])) + 1
                rows["forward"].append(
                    max(t.call("structure.forward_cluster_size", forward_cluster_size, g, int(v)) for v in roots)
                )
            for stat, values in rows.items():
                sizes[stat].append(float(np.median(np.array(values, dtype=np.float64))))
    digests["replicate_medians"] = _sha256(json.dumps(sizes, sort_keys=True))
    # per-call cost at n <= 4, which no kept workload measures end to end
    with t.span("probe.small-graphs"):
        _small_graph_calls(t.call, seed)

    spans = t.spans
    experiment_t1 = next(s for s in spans if s["name"] == "scaling.scaling_exponent_experiment")
    replicates = next(s for s in spans if s["name"] == "probe.scaling-replicates")
    metrics = _common_metrics(spans)
    metrics.update(_per_call_us(spans, "probe.small-graphs"))
    metrics["sampler.arcs"] = arcs
    metrics["structure.bfs_roots"] = count(spans, "structure.forward_cluster_size")
    # bootstrap and orchestration: the experiment less its replayed replicates
    metrics["scaling.self_s"] = duration(experiment_t1) - duration(replicates)
    return {"digests": digests, "metrics": metrics}


# -- predictions --------------------------------------------------------------


def _oracles() -> dict[str, tuple[float, float]]:
    import oracle

    found = {}
    for case, _, _, (kind, *args) in spec.PREDICTION_CASES:
        found[case] = oracle.pareto_forward(*args) if kind == "pareto" else oracle.constant_forward(*args)
    return found


def predictions_run(cli, seed: int, work: Path, facts: bool) -> dict:
    outputs = {case: str(work / f"survival-{case}.json") for case, *_ in spec.PREDICTION_CASES}
    result = _cli_pass(cli, {
        case: ["survival", "--model", model, "--config", config, "--seed", str(seed), "--out", outputs[case]]
        for case, model, config, _ in spec.PREDICTION_CASES
    })
    result["outputs"] = outputs
    result["digests"] = {name: _sha256(Path(p).read_bytes()) for name, p in outputs.items()}
    result["facts"] = {"oracles": _oracles()}
    return result


def _survival_replay(t: Tracer, seed: int, work: Path) -> dict:
    """The six `survival` commands as library calls, with per-case probes."""
    from poisson_digraph import mixing_pairs, parse_model, solve_extinction, survival_fractions

    oracles = _oracles()
    digests, metrics, reports = {}, {}, {}
    for case, model_text, config, _ in spec.PREDICTION_CASES:
        with t.span("cli.survival"):
            model = t.call("weights.parse_model", parse_model, model_text)
            report = t.call(
                "branching.survival_fractions", survival_fractions, model, config,
                tol=spec.SURVIVAL_TOL, seed=seed,
            )
            metrics[f"branching.survival_fractions_s.{case}"] = duration(t.spans[-1])
            text = t.call("branching.SurvivalReport.to_json", report.to_json) + "\n"
            (work / f"replay-survival-{case}.json").write_text(text)
        digests[case] = _sha256(text)
        reports[case] = json.loads(text)
        with t.span("probe.branching"):
            t.call("branching.solve_extinction", solve_extinction, model, "forward",
                   tol=spec.SURVIVAL_TOL, seed=seed)
            metrics[f"branching.solve_extinction_s.{case}"] = duration(t.spans[-1])
            t.call("analysis.mixing_pairs", mixing_pairs, model, SURVIVAL_MC_SAMPLES, seed)
    errors = gates.zeta_relative_errors(reports, oracles)
    metrics.update({f"branching.zeta_rel_err.{case}": e for case, e in errors.items()})
    metrics["branching.survival_rel_err"] = gates.survival_rel_err(errors)
    return {"digests": digests, "metrics": metrics, "reports": reports, "oracles": oracles}


def predictions_trace(t: Tracer, seed: int, work: Path) -> dict:
    replay = _survival_replay(t, seed, work)
    replay["metrics"].update(_common_metrics(t.spans))
    return replay


# -- verify-quick -------------------------------------------------------------


def verify_quick_run(cli, seed: int, work: Path, facts: bool) -> dict:
    out = work / "verify.json"
    result = _cli_pass(cli, {
        "verify": ["verify", "--suite", spec.VERIFY_SUITE, "--seed", str(seed), "--out", str(out)],
    })
    result["outputs"] = {"verify": str(out)}
    result["digests"] = {"verify": _sha256(out.read_bytes())}
    return result


def verify_quick_trace(t: Tracer, seed: int, work: Path) -> dict:
    from poisson_digraph import run_suite

    with t.span("cli.verify"):
        checks = t.call("verify.run_suite", run_suite, spec.VERIFY_SUITE, seed)
        payload = {
            "suite": spec.VERIFY_SUITE,
            "checks": [c.to_dict() for c in checks],
            "all_pass": all(c.passed for c in checks),
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    metrics = _common_metrics(t.spans)
    metrics["verify.run_suite_s"] = total_seconds(t.spans, "verify.run_suite")
    return {"digests": {"verify": _sha256(text)}, "metrics": metrics}


# -- small-graphs -------------------------------------------------------------


def _small_graph_calls(call, seed: int, after_batch=None) -> dict[str, list[int]]:
    """The quick verify suite's call mix at n <= 4, one graph per call.

    ``call(span_name, fn, *args)`` runs each call, traced or not;
    ``after_batch(seconds)`` receives the wall time of every batch.
    """
    from poisson_digraph import (
        MultiDigraph, NormalizerMode, evolve_chain, moments, normalizer, parse_model,
        sample_graph_fast, sample_graph_naive, sample_oriented_sum, sample_randomly_oriented_nr,
        sample_weights, stream,
    )

    model = call("weights.parse_model", parse_model, spec.SMALL_MODEL)
    mu = call("weights.moments", moments, model).mu
    mode = NormalizerMode("mu-n")
    w3 = call("weights.sample_weights", sample_weights, model, spec.SMALL_CALLS["fast"][0], seed)
    l3 = call("weights.normalizer", normalizer, w3, mu, mode)
    w2 = call("weights.sample_weights", sample_weights, model, spec.SMALL_CALLS["oriented_sum"][0], seed)
    l2 = call("weights.normalizer", normalizer, w2, mu, mode)
    n_to = spec.SMALL_CALLS["evolve_chain"][0]
    totals = {kind: [0, 0] for kind in spec.SMALL_CALLS}

    def tally(kind, g):
        totals[kind][0] += 1
        totals[kind][1] += g.total_arcs

    for batch in range(spec.SMALL_BATCHES):
        start = time.perf_counter()
        for r in range(batch * spec.SMALL_BATCH, (batch + 1) * spec.SMALL_BATCH):
            s = spec.small_seed(seed, r)
            g = call("sampler.sample_graph_fast", sample_graph_fast, w3, l3, s)
            tally("fast", g)
            call("digraph.MultiDigraph", MultiDigraph, g.n, g.src, g.dst, g.mult)
            tally("naive", call("sampler.sample_graph_naive", sample_graph_naive, w3, l3, s))
            tally("oriented_sum", call("sampler.sample_oriented_sum", sample_oriented_sum, w2, s, l2))
            tally(
                "randomly_oriented",
                call("sampler.sample_randomly_oriented_nr", sample_randomly_oriented_nr, w2, s, l2),
            )
            tally(
                "evolve_chain",
                call("sampler.evolve_chain", evolve_chain, model, spec.SMALL_EVOLVE_FROM, n_to, s),
            )
            call("streams.stream", stream, s, "small-graphs")
        if after_batch is not None:
            after_batch(time.perf_counter() - start)
    return totals


SMALL_CALLS_PER_REPLICATE = 7


def small_graphs_run(cli, seed: int, work: Path, facts: bool) -> dict:
    batches, refs = [], [reference_seconds()]

    def after_batch(seconds):
        batches.append(seconds)
        refs.append(reference_seconds())

    totals = _small_graph_calls(lambda _, fn, *a, **k: fn(*a, **k), seed, after_batch)
    return {
        "calls": {"small_graphs": sum(batches)},
        "batch_ratios": [b / ((x + y) / 2) for b, x, y in zip(batches, refs, refs[1:])],
        "codes": {},
        "wall_s": sum(batches),
        "peak_rss_mb": _peak_rss_mb(),
        "ops": spec.SMALL_BATCHES * spec.SMALL_BATCH * SMALL_CALLS_PER_REPLICATE,
        "digests": {"totals": _sha256(json.dumps(totals))},
        "facts": {"totals": totals},
    }


CALL_US = {
    "sampler.fast_call_us": "sampler.sample_graph_fast",
    "sampler.naive_call_us": "sampler.sample_graph_naive",
    "sampler.oriented_sum_call_us": "sampler.sample_oriented_sum",
    "sampler.randomly_oriented_call_us": "sampler.sample_randomly_oriented_nr",
    "sampler.evolve_chain_call_us": "sampler.evolve_chain",
    "streams.stream_call_us": "streams.stream",
    "digraph.build_call_us": "digraph.MultiDigraph",
}


def _per_call_us(spans: list[dict], parent: str) -> dict[str, float]:
    return {key: median_call_us(spans, name, parent) for key, name in CALL_US.items()}


def small_graphs_trace(t: Tracer, seed: int, work: Path) -> dict:
    with t.span("workload.small-graphs"):
        totals = _small_graph_calls(t.call, seed)
    metrics = _per_call_us(t.spans, "workload.small-graphs")
    metrics["sampler.arcs"] = sum(arcs for _, arcs in totals.values())
    metrics.update(_common_metrics(t.spans))
    return {"digests": {"totals": _sha256(json.dumps(totals))}, "metrics": metrics}


RUNS = {
    "large-graph": large_graph_run,
    "critical-scaling": critical_scaling_run,
    "small-graphs": small_graphs_run,
    "predictions": predictions_run,
    "verify-quick": verify_quick_run,
}
TRACES = {
    "large-graph": large_graph_trace,
    "critical-scaling": critical_scaling_trace,
    "small-graphs": small_graphs_trace,
    "predictions": predictions_trace,
    "verify-quick": verify_quick_trace,
}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
