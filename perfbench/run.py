"""Benchmark of poisson-digraph: one workload per run, results as JSON.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``
there.  Every repetition runs in its own child interpreter (child.py),
with BLAS/OpenMP pinned to one thread.  ``--trace 0`` repeats the
workload's commands until ``--seconds`` have passed (at least twice) and
reports the end-to-end metrics as medians over repetitions; ``--trace 1``
pairs an untraced repetition with a traced replay and reports the
per-layer metrics and the tracing overhead.  Every output is checked
(gates.py).  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import gates
import spec

HERE = Path(__file__).resolve().parent
MIN_REPS = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, children included


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.work = root / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.versions: dict = {}

    def child(self, mode: str) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        result_path = self.work / f"result-{mode}.json"
        result_path.unlink(missing_ok=True)
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        argv = [sys.executable, str(HERE / "child.py"), mode, self.workload, str(self.seed),
                str(self.work), str(result_path)]
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child of {self.workload} did not finish in time") from None
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"{mode} child of {self.workload} failed:\n{proc.stderr[-4000:]}")
        result = json.loads(result_path.read_text())
        package = Path(result["package_file"]).resolve()
        if (self.root / "src") not in package.parents:
            raise BenchError(f"imported the package from {package}, not from this checkout's src/")
        self.versions = result["versions"]
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


# -- gates per workload -------------------------------------------------------


def _read(path: str) -> str:
    return Path(path).read_text()


def check_rep(workload: str, rep: dict) -> list[str]:
    """Gates on one untraced repetition.

    The big graph is checked in the repetition that computed its expected
    values; the others must repeat its bytes.
    """
    failures = gates.exit_codes(rep["codes"])
    if failures:
        return failures
    facts = rep.get("facts", {})
    if workload == "large-graph" and facts:
        out = rep["outputs"]
        failures += gates.large_graph(
            _read(out["sample"]), json.loads(_read(out["components"])), json.loads(_read(out["stats"])),
            spec.LARGE_N, facts["expected_arcs"], facts["prediction"],
        )
    elif workload == "critical-scaling":
        failures += gates.scaling({k: _read(rep["outputs"][f"t{k}"]) for k in spec.SCALING_THREADS})
    elif workload == "predictions":
        failures += gates.predictions(_reports(rep), _oracles(rep))
    elif workload == "verify-quick":
        failures += gates.verify(json.loads(_read(rep["outputs"]["verify"])))
    elif workload == "small-graphs":
        failures += gates.small_graphs(facts["totals"], {k: m for k, (_, m) in spec.SMALL_CALLS.items()})
    return failures


def _reports(rep: dict) -> dict[str, dict]:
    return {case: json.loads(_read(path)) for case, path in rep["outputs"].items()}


def _oracles(rep: dict) -> dict[str, tuple]:
    return {case: tuple(v) for case, v in rep["facts"]["oracles"].items()}


def ops_of(rep: dict) -> int:
    """Calls made: CLI commands, or library calls for small-graphs."""
    return rep.get("ops", len(rep["codes"]))


def wall_ref(workload: str, reps: list[dict]) -> float:
    """The workload's commands end to end, in multiples of the reference work.

    The sum over commands of each command's median ratio to the reference
    work timed around it; small-graphs takes the median batch instead, so
    that a slow spell spoils a batch and not a whole repetition.
    """
    if workload == "small-graphs":
        return spec.SMALL_BATCHES * median(b for r in reps for b in r["batch_ratios"])
    return sum(median(r["ratios"][name] for r in reps) for name in reps[0]["ratios"])


def named_metrics(workload: str, reps: list[dict]) -> dict[str, dict]:
    """The per-command figures behind each workload's wall time, with units."""
    per_call = lambda name: median(r["calls"][name] for r in reps)
    values = {}
    if workload == "large-graph":
        values = {f"{name}_s": per_call(name) for name in ("sample", "components", "stats")}
    elif workload == "critical-scaling":
        values = {f"scaling_t{k}_s": per_call(f"scaling_t{k}") for k in spec.SCALING_THREADS}
    elif workload == "predictions":
        errors = gates.zeta_relative_errors(_reports(reps[0]), _oracles(reps[0]))
        values = {"survival_s": median(r["wall_s"] for r in reps),
                  "survival_rel_err": gates.survival_rel_err(errors)}
    elif workload == "verify-quick":
        values = {"verify_s": per_call("verify")}
    return {name: {"value": v, "unit": "s" if name.endswith("_s") else "ratio"} for name, v in values.items()}


# -- the two kinds of run -----------------------------------------------------


def untraced(runner: Runner) -> tuple[dict, dict, int, int]:
    reps = []
    # start a repetition only if it should end within --seconds
    while len(reps) < MIN_REPS or runner.elapsed() * (1 + 1 / len(reps)) <= runner.seconds:
        reps.append(runner.child("run" if reps else "check"))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])

    attempted = failed = 0
    problems = []
    for rep in reps:
        rep_failures = check_rep(runner.workload, rep)
        problems += rep_failures
        attempted += ops_of(rep)
        failed += min(ops_of(rep), len(rep_failures))
    for name in reps[0].get("digests", {}):
        repeat_failures = gates.repeated([r["digests"][name] for r in reps], name)
        problems += repeat_failures
        failed = min(attempted, failed + len(repeat_failures))

    metrics = {
        "setup_s": median(setups),
        "wall_ref": wall_ref(runner.workload, reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }
    info = {
        "wall_s": median(r["wall_s"] for r in reps),
        "repetition_wall_s": [r["wall_s"] for r in reps],
        "setup_samples": len(setups),
        "named": named_metrics(runner.workload, reps) if not problems else {},
        "problems": problems,
    }
    return metrics, info, attempted, failed


def traced(runner: Runner) -> tuple[dict, dict, int, int]:
    pairs = []
    pair_s = 0.0
    while not pairs or runner.elapsed() + pair_s <= runner.seconds:
        started = runner.elapsed()
        pairs.append((runner.child("check"), runner.child("trace")))
        pair_s = runner.elapsed() - started

    attempted = failed = 0
    problems = []
    for plain, replay in pairs:
        rep_failures = check_rep(runner.workload, plain)
        rep_failures += gates.replay_matches(_cli_digests(runner.workload, plain), replay["digests"])
        if "reports" in replay:
            rep_failures += gates.predictions(replay["reports"], replay["oracles"])
        problems += rep_failures
        attempted += 2 * ops_of(plain)
        failed += min(2 * ops_of(plain), len(rep_failures))

    names = set().union(*(replay["metrics"] for _, replay in pairs))
    metrics = {name: median(replay["metrics"].get(name, 0.0) for _, replay in pairs) for name in names}
    metrics["trace.overhead_s"] = median(
        replay["metrics"]["traced_wall_s"] - plain["wall_s"] for plain, replay in pairs
    )
    trace_file = runner.root / ".perfbench" / "traces" / f"{runner.workload}-seed{runner.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": runner.workload,
        "seed": runner.seed,
        "metrics": metrics,
        "array_bytes": pairs[0][1].get("array_bytes", {}),
        "spans": [span for _, replay in pairs for span in replay["spans"]],
    }))
    info = {"pairs": len(pairs), "trace_file": str(trace_file.relative_to(runner.root)),
            "array_bytes": pairs[0][1].get("array_bytes", {}), "problems": problems}
    return metrics, info, attempted, failed


def _cli_digests(workload: str, plain: dict) -> dict[str, str]:
    digests = dict(plain.get("digests", {}))
    if workload == "critical-scaling":
        medians = json.loads(_read(plain["outputs"]["t1"]))["medians"]
        digests["replicate_medians"] = hashlib.sha256(
            json.dumps(medians, sort_keys=True).encode()
        ).hexdigest()
    return digests


# -- entry point --------------------------------------------------------------


def provenance(runner: Runner) -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "caches": caches, **runner.versions}


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    runner = Runner(root, workload, seed, seconds)
    try:
        metrics, info, attempted, failed = (traced if trace else untraced)(runner)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    wanted = config["per_layer" if trace else "end_to_end"]
    print("#", json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                           "ops_total": attempted, "ops_failed": failed,
                           "provenance": provenance(runner), **info}, sort_keys=True))
    return {
        "correct": failed == 0 and not info["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*spec.WORKLOADS, *spec.EXTRA_WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "poisson_digraph" / "cli.py").is_file():
        print(f"error: {root} holds no src/poisson_digraph to benchmark", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text())
    workloads = (*spec.WORKLOADS, *spec.EXTRA_WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_one(root, workload, args.seed, args.seconds, bool(args.trace), config)
            if args.workload == "all":
                print(json.dumps({"workload": workload, **results[workload]}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
