"""Self-check battery behind the ``verify`` subcommand.

Each check pits a sampled quantity against an exact or fixed-point
prediction and reports a statistic, a threshold and a verdict.  The quick
suite covers sampler exactness, the sum-construction equivalences, the
evolution law, degree and loop laws, solver consistency and the
independence decay; the full suite adds large-graph giant-component and
heavy-tail checks.  All checks are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    DegreeFitResult,
    conditional_degree_params,
    degree_fit_test,
    empirical_tv,
    independence_test,
    loop_test,
    mixed_poisson_tail,
    poisson_chisquare,
    poisson_tv,
)
from .branching import solve_extinction, survival_fractions
from .sampler import (
    evolve_chain,
    independent_sum_parts,
    oriented_sum_parts,
    sample_graph_fast,
    sample_graph_naive,
    sample_randomly_oriented_nr,
)
from .streams import derive_seed, stream
from .structure import component_summary, forward_cluster_size
from .weights import (
    Constant,
    ConstantMarginal,
    IndependentProduct,
    NormalizerMode,
    ParetoMirrored,
    WeightModel,
    moments,
    normalizer,
    sample_weights,
)

__all__ = ["SUITES", "CheckResult", "run_suite", "check_graph_against_model"]

SUITES = ("quick", "full")


@dataclass(frozen=True)
class CheckResult:
    """One verdict: ``passed`` means statistic < threshold (or >= for p-values)."""

    name: str
    statistic: float
    threshold: float
    passed: bool
    direction: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "direction": self.direction,
            "passed": self.passed,
            "detail": self.detail,
        }


def _below(name: str, statistic: float, threshold: float, **detail) -> CheckResult:
    return CheckResult(
        name=name,
        statistic=float(statistic),
        threshold=float(threshold),
        passed=bool(statistic < threshold),
        direction="<",
        detail=detail,
    )


def _at_least(name: str, statistic: float, threshold: float, **detail) -> CheckResult:
    return CheckResult(
        name=name,
        statistic=float(statistic),
        threshold=float(threshold),
        passed=bool(statistic >= threshold),
        direction=">=",
        detail=detail,
    )


def _decode_blocks(g, reps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per arc of a graph of ``reps`` equal blocks: (block, in-block src, in-block dst, mult).

    Blocks are 0-based and in-block ids 1-based.  Raises ValueError when
    g.n is not a multiple of reps or an arc joins two blocks.
    """
    if reps < 1 or g.n % reps:
        raise ValueError(f"a graph on {g.n} vertices is not {reps} equal blocks")
    n = g.n // reps
    block, src = np.divmod(g.src - 1, n)
    dst = g.dst - block * n
    if np.any((dst < 1) | (dst > n)):
        raise ValueError(f"an arc crosses the blocks of a {reps}-block graph")
    return block, src + 1, dst, g.mult


def _block_totals(g, reps: int) -> np.ndarray:
    """Arcs per block of a graph of ``reps`` equal blocks."""
    block, _, _, mult = _decode_blocks(g, reps)
    return np.bincount(block, mult, reps).astype(np.int64)


def _check_sampler_agreement(seed: int) -> CheckResult:
    name = "sampler-total-arcs-chisquare"
    model = Constant(2.0)
    n, reps = 3, 20_000
    w = sample_weights(model, n, seed)
    l_n = normalizer(w, moments(model).mu, NormalizerMode.DETERMINISTIC_MU_N)
    rate = w.sum_out * w.sum_in / l_n
    fast = sample_graph_fast(w, l_n, derive_seed(seed, name, "fast"), reps=reps)
    naive = sample_graph_naive(w, l_n, derive_seed(seed, name, "naive"), reps=reps)
    fast, naive = _block_totals(fast, reps), _block_totals(naive, reps)
    p_fast = poisson_chisquare(fast, rate).pvalue
    p_naive = poisson_chisquare(naive, rate).pvalue
    return _at_least(name, min(p_fast, p_naive), 1e-3, p_fast=p_fast, p_naive=p_naive, rate=rate)


def _check_construction_equivalence(seed: int) -> CheckResult:
    name = "construction-equivalence-chisquare"
    n, reps = 2, 30_000
    model = Constant(2.0)
    w = sample_weights(model, n, seed)
    l_n = normalizer(w, moments(model).mu, NormalizerMode.DETERMINISTIC_MU_N)
    rate, pair_rate = w.sum_out * w.sum_in / l_n, w.w_out[0] * w.w_in[1] / l_n
    routes = {
        "direct": lambda s: sample_graph_fast(w, l_n, s, reps=reps),
        "oriented_sum": lambda s: oriented_sum_parts(w, s, l_n, reps=reps).graph,
        "random_orientation": lambda s: sample_randomly_oriented_nr(w, s, l_n, reps=reps),
    }
    totals, pair = {}, {}
    for x, sampler in routes.items():
        block, src, dst, mult = _decode_blocks(sampler(derive_seed(seed, name, x)), reps)
        totals[x] = np.bincount(block, mult, reps).astype(np.int64)
        pair[x] = np.bincount(block, mult * ((src == 1) & (dst == 2)), reps).astype(np.int64)
    detail = {f"p_totals_{x}": poisson_chisquare(totals[x], rate).pvalue for x in routes}
    detail.update({f"p_pair_{x}": poisson_chisquare(pair[x], pair_rate).pvalue for x in routes})
    return _at_least(
        name,
        min(detail.values()),
        1e-3,
        **detail,
        tv_totals_oriented_sum=empirical_tv(totals["direct"], totals["oriented_sum"]),
        tv_totals_random_orientation=empirical_tv(totals["direct"], totals["random_orientation"]),
        tv_pair_multiplicity=empirical_tv(pair["direct"], pair["oriented_sum"]),
        reps=reps,
    )


def _check_evolution(seed: int) -> CheckResult:
    name = "evolution-total-arcs-chisquare"
    model = Constant(2.0)
    n_from, n_to, reps = 2, 4, 30_000
    mu = moments(model).mu
    mode = NormalizerMode.DETERMINISTIC_MU_N
    grown = evolve_chain(model, n_from, n_to, derive_seed(seed, name, "grown"), mode, reps=reps)
    w = sample_weights(model, n_to, derive_seed(seed, name, "direct"))
    direct = sample_graph_fast(w, mu * n_to, derive_seed(seed, name, "direct"), reps=reps)
    grown, direct = _block_totals(grown, reps), _block_totals(direct, reps)
    rate = w.sum_out * w.sum_in / (mu * n_to)
    p_grown = poisson_chisquare(grown, rate).pvalue
    p_direct = poisson_chisquare(direct, rate).pvalue
    return _at_least(
        name,
        min(p_grown, p_direct),
        1e-3,
        p_grown=p_grown,
        p_direct=p_direct,
        tv=empirical_tv(grown, direct),
        n_from=n_from,
        n_to=n_to,
        reps=reps,
    )


def _check_degree_fit(seed: int) -> CheckResult:
    model = Constant(2.0)
    n = 100_000
    w = sample_weights(model, n, seed)
    l_n = normalizer(w, moments(model).mu, NormalizerMode.DETERMINISTIC_MU_N)
    g = sample_graph_fast(w, l_n, seed + 1)
    fit = degree_fit_test(g, model, kmax=30, threshold=0.012)
    return _below(
        "degree-fit-constant", fit.statistic, fit.threshold, n=n, kmax=fit.kmax
    )


def _check_loop_law(seed: int) -> CheckResult:
    result = loop_test(Constant(1.0), n=500, reps=20_000, seed=seed)
    return _at_least(
        "loop-law-chisquare",
        result.chi2_pvalue,
        1e-3,
        observed_mean=result.observed_mean,
        expected_mean=result.expected_mean,
        z=result.z,
    )


def _check_survival_consistency(seed: int) -> CheckResult:
    q = solve_extinction(Constant(2.0), "forward")
    report = survival_fractions(Constant(2.0), "mirrored-sum")
    residuals = (
        abs(q - math.exp(-2.0 * (1.0 - q))),
        abs(report.zeta - (1.0 - q)),
        abs(report.pi - report.zeta**2),
    )
    return _below(
        "survival-fixed-point-consistency",
        max(residuals),
        1e-8,
        q=q,
        zeta=report.zeta,
        pi=report.pi,
    )


def _check_tv_properties(seed: int) -> CheckResult:
    from scipy.special import gammaln

    rng = stream(seed, "verify-tv")
    worst = 0.0
    for _ in range(300):
        u, lam = rng.random(2) * 12.0
        a = poisson_tv(u, lam)
        b = poisson_tv(lam, u)
        worst = max(worst, abs(a - b))
        if not 0.0 <= a <= 1.0:
            worst = max(worst, 1.0)
        worst = max(worst, poisson_tv(u, u))
    j = np.arange(400)
    for u, lam in ((1.0, 2.0), (0.3, 9.0), (5.0, 5.5)):
        log_fact = gammaln(j + 1.0)
        pmf_u = np.exp(-u + j * math.log(u) - log_fact)
        pmf_lam = np.exp(-lam + j * math.log(lam) - log_fact)
        brute = 0.5 * np.abs(pmf_u - pmf_lam).sum()
        worst = max(worst, abs(poisson_tv(u, lam) - brute))
    return _below("poisson-tv-properties", worst, 1e-10)


def _check_independence_decay(seed: int) -> CheckResult:
    small = independence_test(Constant(1.0), n=100, k=2, seed=seed)
    large = independence_test(Constant(1.0), n=10_000, k=2, seed=seed)
    # a statistic that does not decay from n = 100 to n = 10,000 fails as 1.0
    statistic = large.statistic if small.statistic > large.statistic else 1.0
    detail = {"statistic_n_100": small.statistic, "statistic_n_10000": large.statistic}
    return _below("independence-decay", statistic, 0.02, **detail)


def _check_conditional_degrees(seed: int) -> CheckResult:
    model = ParetoMirrored(4.0, 1.0)
    n, reps, v = 50, 20_000, 1
    w = sample_weights(model, n, seed)
    l_n = normalizer(w, moments(model).mu, NormalizerMode.DETERMINISTIC_MU_N)
    params = conditional_degree_params(w, l_n, v)
    draw_seed = derive_seed(seed, "conditional-degree-chisquare", "fast")
    block, src, dst, mult = _decode_blocks(sample_graph_fast(w, l_n, draw_seed, reps=reps), reps)
    d_in = np.bincount(block, mult * ((dst == v) & (src != v)), reps).astype(np.int64)
    d_out = np.bincount(block, mult * ((src == v) & (dst != v)), reps).astype(np.int64)
    p_in = poisson_chisquare(d_in, params.lam_in).pvalue
    p_out = poisson_chisquare(d_out, params.lam_out).pvalue
    return _at_least(
        "conditional-degree-chisquare",
        min(p_in, p_out),
        1e-3,
        p_in=p_in,
        p_out=p_out,
        lam_in=params.lam_in,
        lam_out=params.lam_out,
    )


def _giant_fractions(seed: int, reps: int = 3, n: int = 100_000):
    model = Constant(2.0)
    mu = moments(model).mu
    weak, strong, forward = [], [], []
    for r in range(reps):
        w = sample_weights(model, n, seed + r)
        g = sample_graph_fast(w, mu * n, seed + r + 1000)
        summary = component_summary(g)
        weak.append(summary.largest_weak / n)
        strong.append(summary.largest_strong / n)
        labels = summary.strong_labels
        giant_label = np.argmax(np.bincount(labels))
        rep_vertex = int(np.flatnonzero(labels == giant_label)[0]) + 1
        forward.append(forward_cluster_size(g, rep_vertex) / n)
    return weak, strong, forward


def _check_giant_mirrored(seed: int) -> list[CheckResult]:
    report = survival_fractions(Constant(2.0), "mirrored-sum")
    weak, strong, forward = _giant_fractions(seed)
    strong_dev = max(abs(f - report.pi) for f in strong)
    weak_dev = max(abs(f - report.zeta_weak) for f in weak)
    forward_dev = max(abs(f - report.zeta) for f in forward)
    return [
        _below(
            "giant-strong-vs-pi",
            strong_dev,
            0.015,
            pi=report.pi,
            fractions=[round(f, 5) for f in strong],
        ),
        _below(
            "giant-weak-vs-two-type-union",
            weak_dev,
            0.01,
            zeta_weak=report.zeta_weak,
            fractions=[round(f, 5) for f in weak],
        ),
        _below(
            "giant-forward-vs-zeta",
            forward_dev,
            0.01,
            zeta=report.zeta,
            fractions=[round(f, 5) for f in forward],
        ),
    ]


def _check_giant_independent_sum(seed: int) -> CheckResult:
    n, reps = 100_000, 3
    cap = ConstantMarginal(2.0)
    report = survival_fractions(IndependentProduct(cap, cap), "independent-sum")
    devs = []
    for r in range(reps):
        g = independent_sum_parts(cap, cap, n, seed + r).graph
        devs.append(abs(component_summary(g).largest_strong / n - report.pi))
    return _below(
        "giant-strong-independent-sum",
        max(devs),
        0.015,
        pi=report.pi,
        reps=reps,
    )


def _check_pareto_tail(seed: int) -> CheckResult:
    model = ParetoMirrored(3.5, 1.0)
    ks = np.unique(np.round(np.logspace(1.0, math.log10(60.0), 8))).astype(np.int64)
    tail = mixed_poisson_tail(model, ks, side="in")
    slope = float(np.polyfit(np.log(ks), np.log(tail), 1)[0])
    return _below(
        "pareto-tail-slope",
        abs(slope - (-(model.capacity.tau - 1.0))),
        0.35,
        slope=slope,
        expected=-(model.capacity.tau - 1.0),
        k_range=[int(ks[0]), int(ks[-1])],
    )


def run_suite(suite: str = "quick", seed: int = 0) -> list[CheckResult]:
    """Run the named check suite and return one CheckResult per check."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    checks = [
        _check_sampler_agreement(seed),
        _check_construction_equivalence(seed),
        _check_evolution(seed),
        _check_degree_fit(seed),
        _check_loop_law(seed),
        _check_conditional_degrees(seed),
        _check_survival_consistency(seed),
        _check_tv_properties(seed),
        _check_independence_decay(seed),
    ]
    if suite == "full":
        checks.extend(_check_giant_mirrored(seed))
        checks.append(_check_giant_independent_sum(seed))
        checks.append(_check_pareto_tail(seed))
    return checks


def check_graph_against_model(
    g,
    model: WeightModel,
    kmax: int = 30,
    threshold: float = 0.02,
    source: str = "",
) -> CheckResult:
    """Degree-law check of a loaded graph against a weight model."""
    return _degree_fit_check(degree_fit_test(g, model, kmax=kmax, threshold=threshold), source)


def _degree_fit_check(fit: DegreeFitResult, source: str) -> CheckResult:
    """The ``degree-fit-file`` verdict of a degree fit of the graph read from ``source``."""
    return _below("degree-fit-file", fit.statistic, fit.threshold, n=fit.n, kmax=fit.kmax, source=source)
