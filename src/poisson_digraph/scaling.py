"""Growth of the largest clusters at the critical point.

Samples critically tuned mirrored sum graphs over a ladder of sizes,
records the largest weak, forward, strong and single-constituent cluster
sizes, and fits log-log slopes with bootstrap confidence intervals.  The
reference exponent for the capacity tail index tau is
alpha = min((tau - 2) / (tau - 1), 2/3).
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .sampler import oriented_sum_parts
from .streams import derive_seed, stream
from .structure import component_summary, forward_cluster_sizes
from .weights import MirroredCapacity, ParetoMarginal, WeightModel, moments, sample_weights

__all__ = [
    "STATISTICS",
    "SlopeFit",
    "ScalingResult",
    "theoretical_alpha",
    "assert_critical",
    "scaling_exponent_experiment",
]

STATISTICS = ("weak", "forward", "strong", "constituent")

# largest |nu / mu - 1| that assert_critical accepts
CRITICAL_TOL = 1e-6


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class ScalingResult:
    """Per-size medians and means of largest-cluster sizes plus fitted slopes.

    Statistics: ``weak`` and ``strong`` are the largest weak and strong
    components of the digraph, ``forward`` is the largest forward cluster
    (maximized over the highest-capacity vertices plus a random sample of
    roots, a lower bound sharing the growth exponent), ``constituent`` is
    the largest component of one of the two summed one-sided graphs.
    """

    n_values: tuple[int, ...]
    reps: int
    medians: dict[str, tuple[float, ...]]
    means: dict[str, tuple[float, ...]]
    slopes: dict[str, SlopeFit]
    alpha_theory: float

    def to_tsv(self) -> str:
        """TSV table (median_size/mean_size columns refer to weak clusters)."""
        lines = ["# poisson-digraph scaling v1", f"# alpha_theory={self.alpha_theory!r}"]
        for stat in STATISTICS:
            fit = self.slopes[stat]
            lines.append(
                f"# slope_{stat}={fit.slope!r} ci95=[{fit.ci_low!r},{fit.ci_high!r}]"
            )
        header = ["n", "median_size", "mean_size"]
        for stat in STATISTICS[1:]:
            header += [f"median_{stat}", f"mean_{stat}"]
        lines.append("# " + "\t".join(header))
        for i, n in enumerate(self.n_values):
            row = [str(n)]
            for stat in STATISTICS:
                row += [repr(self.medians[stat][i]), repr(self.means[stat][i])]
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "n_values": list(self.n_values),
            "reps": self.reps,
            "alpha_theory": self.alpha_theory,
            "medians": {k: list(v) for k, v in self.medians.items()},
            "means": {k: list(v) for k, v in self.means.items()},
            "slopes": {
                k: {"slope": f.slope, "ci_low": f.ci_low, "ci_high": f.ci_high}
                for k, f in self.slopes.items()
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def theoretical_alpha(model: WeightModel) -> float:
    """Reference growth exponent min((tau - 2) / (tau - 1), 2/3)."""
    if not isinstance(model, MirroredCapacity):
        raise ValueError(f"model {model!r} has no single capacity marginal")
    cap = model.capacity
    if isinstance(cap, ParetoMarginal):
        return min((cap.tau - 2.0) / (cap.tau - 1.0), 2.0 / 3.0)
    return 2.0 / 3.0


def assert_critical(model: WeightModel) -> None:
    """Refuse models whose size-biased mean offspring is not 1 within ``CRITICAL_TOL``."""
    mom = moments(model)
    for side, nu in (("in", mom.nu_in), ("out", mom.nu_out)):
        ratio = nu / mom.mu
        if not math.isfinite(ratio) or abs(ratio - 1.0) > CRITICAL_TOL:
            raise ValueError(
                f"model is not critical: nu_{side}/mu = {ratio}, need 1"
                " (tune the capacity scale, e.g. critical_pareto_mirrored)"
            )


def _one_replicate(
    model: WeightModel, mu: float, sources: int, n: int, rep_seed: int
) -> tuple[int, int, int, int]:
    w = sample_weights(model, n, rep_seed)
    parts = oriented_sum_parts(w, rep_seed, l_n=mu * n)
    g = parts.graph
    summary = component_summary(g)
    constituent = component_summary(parts.first).largest_weak
    k = min(sources, n)
    top = np.argpartition(w.w_in, n - k)[n - k :]
    rand = stream(rep_seed, "scaling-sources").integers(0, n, size=k)
    candidates = np.unique(np.concatenate([top, rand])) + 1
    forward = int(forward_cluster_sizes(g, candidates).max())
    return summary.largest_weak, forward, summary.largest_strong, constituent


def _worker_count(threads: int, tasks: int) -> int:
    """Worker processes for ``tasks`` replicates: at most ``threads`` and the usable CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cpus, tasks))


def _run_replicates(replicate, tasks: list[tuple[int, int]], threads: int) -> list:
    """``replicate(*task)`` for every task, in task order.

    Forked workers inherit the loaded modules, so they start in
    milliseconds where spawned ones would import numpy and scipy again.
    The loop stays in process for one worker, without fork, or while
    other threads run, because a fork copies no thread but the caller's.
    """
    import multiprocessing

    workers = _worker_count(threads, len(tasks))
    if (
        workers == 1
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return [replicate(*task) for task in tasks]
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        results = pool.starmap(replicate, tasks, chunksize=1)
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()
    return results


def scaling_exponent_experiment(
    model: WeightModel,
    n_list,
    reps: int = 50,
    seed: int = 0,
    sources: int = 128,
    threads: int = 1,
    bootstrap: int = 200,
) -> ScalingResult:
    """Fit the growth exponent of largest-cluster sizes over a size ladder.

    Every replicate draws fresh capacities and a fresh graph from its own
    derived seed.  The bootstrap CI resamples replicates within each size.
    ``threads`` runs the replicates in up to that many worker processes,
    capped at the CPUs this process may use; the result is the same to the
    last bit at any count.
    """
    assert_critical(model)
    if not isinstance(model, MirroredCapacity):
        raise ValueError("the experiment follows the mirrored sum construction")
    n_values = tuple(sorted(int(n) for n in n_list))
    if len(n_values) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    if len(set(n_values)) != len(n_values):
        raise ValueError("sizes must be distinct")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if sources < 1:
        raise ValueError(f"sources must be >= 1, got {sources}")
    if bootstrap < 1:
        raise ValueError(f"bootstrap must be >= 1, got {bootstrap}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    tasks = [(n, derive_seed(seed, "scaling", n, r)) for n in n_values for r in range(reps)]
    replicate = partial(_one_replicate, model, moments(model).mu, sources)
    values = np.array(_run_replicates(replicate, tasks, threads), dtype=np.float64)
    sizes = {
        stat: values[:, j].reshape(len(n_values), reps) for j, stat in enumerate(STATISTICS)
    }

    log_n = np.log(np.array(n_values, dtype=np.float64))
    medians = {}
    means = {}
    slopes = {}
    boot_rng = stream(seed, "scaling-bootstrap")
    for stat in STATISTICS:
        med = np.median(sizes[stat], axis=1)
        medians[stat] = tuple(float(x) for x in med)
        means[stat] = tuple(float(x) for x in sizes[stat].mean(axis=1))
        slope = float(np.polyfit(log_n, np.log(np.maximum(med, 1.0)), 1)[0])
        # one draw call per resample keeps the bootstrap stream, and so the
        # bounds, those of a loop over resamples; the medians and slopes of
        # all resamples are then one call each
        idx = np.stack(
            [boot_rng.integers(0, reps, size=(len(n_values), reps)) for _ in range(bootstrap)]
        )
        bmed = np.median(np.take_along_axis(sizes[stat][None], idx, axis=2), axis=2)
        boots = np.polyfit(log_n, np.log(np.maximum(bmed, 1.0)).T, 1)[0]
        lo, hi = np.percentile(boots, [2.5, 97.5])
        slopes[stat] = SlopeFit(slope=slope, ci_low=float(lo), ci_high=float(hi))
    return ScalingResult(
        n_values=n_values,
        reps=reps,
        medians=medians,
        means=means,
        slopes=slopes,
        alpha_theory=theoretical_alpha(model),
    )
