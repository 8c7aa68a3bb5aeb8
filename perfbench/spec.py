"""Workload inputs shared by the runner, the child interpreter and the gates.

Standard library only: the runner process never imports numpy or the
package under test.
"""

from __future__ import annotations

# the workloads BENCHMARK.json lists
WORKLOADS = ("large-graph", "critical-scaling")
# run by name or with `all` only, because their figures do not hold steady
# from run to run: small-graphs drifts with the machine by up to 20 %, and
# the time of `survival` near criticality depends on the seed; verify-quick
# needs a minute per repetition and its verdict fails at some seeds
EXTRA_WORKLOADS = ("small-graphs", "predictions", "verify-quick")

# large-graph: one big Pareto(3.5) mirrored graph through sample, components, stats
LARGE_MODEL = "pareto-mirrored:3.5,1"
LARGE_N = 1_000_000
LARGE_KMAX = 30

# critical-scaling: the `scaling` command at both thread counts
SCALING_TAU = 3.5
SCALING_N_LIST = (4096, 8192, 16384, 32768)
SCALING_REPS = 20
SCALING_SOURCES = 64
SCALING_BOOTSTRAP = 200  # the CLI default, restated for the replay
SCALING_THREADS = (1, 2)


def scaling_argv(seed: int, threads: int, out: str) -> list[str]:
    return [
        "scaling", "--tau", str(SCALING_TAU), "--critical",
        "--n-list", ",".join(str(n) for n in SCALING_N_LIST),
        "--reps", str(SCALING_REPS), "--sources", str(SCALING_SOURCES),
        "--json", "--threads", str(threads), "--seed", str(seed), "--out", out,
    ]


# predictions: (case name, model string, configuration, oracle for zeta_f).
# Every Pareto case reduces to the one-type forward equation of a
# Pareto(3.5, xmin) capacity; ("constant", c) is the degenerate case.
NEAR_CRITICAL_XMIN = 0.33666666666666667  # nu/mu = 3 xmin = 1.01
NEAR_CRITICAL = f"pareto-mirrored:3.5,{NEAR_CRITICAL_XMIN!r}"
PREDICTION_CASES = (
    ("pareto-mirrored-sum", "pareto-mirrored:3.5,1", "mirrored-sum", ("pareto", 3.5, 1.0)),
    ("pareto-plain", "pareto-mirrored:3.5,1", "plain", ("pareto", 3.5, 1.0)),
    ("near-critical-plain", NEAR_CRITICAL, "plain", ("pareto", 3.5, NEAR_CRITICAL_XMIN)),
    ("near-critical-mirrored-sum", NEAR_CRITICAL, "mirrored-sum", ("pareto", 3.5, NEAR_CRITICAL_XMIN)),
    (
        "pareto-independent-sum",
        "independent-product:pareto:3.5,1|pareto:3.5,1",
        "independent-sum",
        ("pareto", 3.5, 1.0),
    ),
    ("constant-mirrored-sum", "constant:2", "mirrored-sum", ("constant", 2.0)),
)
SURVIVAL_TOL = 1e-10  # the CLI default, restated for the replay

# verify-quick: the `verify` command on its quick suite
VERIFY_SUITE = "quick"

# small-graphs: the quick verify suite's call mix, one graph per call
SMALL_MODEL = "constant:2"
SMALL_BATCH = 1000  # replicates timed together
SMALL_BATCHES = 4
# per call kind: (graph size, Poisson mean of its total arc count); at
# capacity 2 with L = mu n the direct law has mean (2n)^2 / (2n) = 2n
SMALL_CALLS = {
    "fast": (3, 6.0),
    "naive": (3, 6.0),
    "oriented_sum": (2, 4.0),
    "randomly_oriented": (2, 4.0),
    "evolve_chain": (4, 8.0),
}
SMALL_EVOLVE_FROM = 2


def small_seed(seed: int, replicate: int) -> int:
    return seed * 1_000_003 + replicate
