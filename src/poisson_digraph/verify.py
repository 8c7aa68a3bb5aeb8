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
from scipy.special import gammaln

from .analysis import (
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
    sample_graph_fast,
    sample_graph_naive,
    sample_independent_sum,
    sample_oriented_sum,
    sample_randomly_oriented_nr,
)
from .streams import stream
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


# replicate seeds: distinct integer keys give independent Philox streams
def _totals(sample_one, reps: int) -> np.ndarray:
    return np.fromiter(
        (sample_one(r).total_arcs for r in range(reps)), dtype=np.int64, count=reps
    )


def _check_sampler_agreement(seed: int) -> CheckResult:
    model = Constant(2.0)
    n, reps = 3, 20_000
    w = sample_weights(model, n, seed)
    l_n = normalizer(w, moments(model).mu, NormalizerMode.DETERMINISTIC_MU_N)
    rate = w.sum_out * w.sum_in / l_n
    fast = _totals(lambda r: sample_graph_fast(w, l_n, seed + 7 * r + 1), reps)
    naive = _totals(lambda r: sample_graph_naive(w, l_n, seed + 7 * r + 2), reps)
    p_fast = poisson_chisquare(fast, rate).pvalue
    p_naive = poisson_chisquare(naive, rate).pvalue
    return _at_least(
        "sampler-total-arcs-chisquare",
        min(p_fast, p_naive),
        1e-3,
        p_fast=p_fast,
        p_naive=p_naive,
        rate=rate,
    )


def _check_construction_equivalence(seed: int) -> CheckResult:
    n, reps = 2, 30_000
    model = Constant(2.0)
    w = sample_weights(model, n, seed)
    l_n = normalizer(w, moments(model).mu, NormalizerMode.DETERMINISTIC_MU_N)
    direct = np.empty(reps, dtype=np.int64)
    summed = np.empty(reps, dtype=np.int64)
    coin = np.empty(reps, dtype=np.int64)
    direct_12 = np.empty(reps, dtype=np.int64)
    summed_12 = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        g_direct = sample_graph_fast(w, l_n, seed + 11 * r + 1)
        g_sum = sample_oriented_sum(w, seed + 11 * r + 2, l_n)
        g_coin = sample_randomly_oriented_nr(w, seed + 11 * r + 3, l_n)
        direct[r] = g_direct.total_arcs
        summed[r] = g_sum.total_arcs
        coin[r] = g_coin.total_arcs
        direct_12[r] = g_direct.multiplicity(1, 2)
        summed_12[r] = g_sum.multiplicity(1, 2)
    tv_totals_sum = empirical_tv(direct, summed)
    tv_totals_coin = empirical_tv(direct, coin)
    tv_pair = empirical_tv(direct_12, summed_12)
    return _below(
        "construction-equivalence-tv",
        max(tv_totals_sum, tv_totals_coin, tv_pair),
        0.015,
        tv_totals_oriented_sum=tv_totals_sum,
        tv_totals_random_orientation=tv_totals_coin,
        tv_pair_multiplicity=tv_pair,
        reps=reps,
    )


def _check_evolution(seed: int) -> CheckResult:
    model = Constant(2.0)
    n_from, n_to, reps = 2, 4, 30_000
    mu = moments(model).mu
    grown = _totals(
        lambda r: evolve_chain(model, n_from, n_to, seed + 13 * r + 1), reps
    )

    def direct_one(r):
        w = sample_weights(model, n_to, seed + 13 * r + 1)
        return sample_graph_fast(w, mu * n_to, seed + 13 * r + 2)

    direct = _totals(direct_one, reps)
    tv = empirical_tv(grown, direct)
    return _below("evolution-total-arcs-tv", tv, 0.015, n_from=n_from, n_to=n_to, reps=reps)


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
    small = independence_test(Constant(1.0), n=100, k=2, reps=400_000, seed=seed)
    large = independence_test(Constant(1.0), n=10_000, k=2, reps=400_000, seed=seed)
    decays = small.statistic > large.statistic
    passed_value = large.statistic if decays else 1.0
    return _below(
        "independence-decay",
        passed_value,
        0.02,
        statistic_n_100=small.statistic,
        statistic_n_10000=large.statistic,
        reps=400_000,
    )


def _check_conditional_degrees(seed: int) -> CheckResult:
    model = ParetoMirrored(4.0, 1.0)
    n, reps, v = 50, 20_000, 1
    w = sample_weights(model, n, seed)
    l_n = normalizer(w, moments(model).mu, NormalizerMode.DETERMINISTIC_MU_N)
    params = conditional_degree_params(w, l_n, v)
    d_in = np.empty(reps, dtype=np.int64)
    d_out = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        g = sample_graph_fast(w, l_n, seed + 17 * r + 1)
        in_mask = (g.dst == v) & (g.src != v)
        out_mask = (g.src == v) & (g.dst != v)
        d_in[r] = int(g.mult[in_mask].sum())
        d_out[r] = int(g.mult[out_mask].sum())
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
        g = sample_independent_sum(cap, cap, n, seed + r)
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
    seed: int = 0,
    source: str = "",
) -> CheckResult:
    """Degree-law check of a loaded graph against a weight model."""
    fit = degree_fit_test(g, model, kmax=kmax, threshold=threshold, seed=seed)
    return _below(
        "degree-fit-file",
        fit.statistic,
        fit.threshold,
        n=g.n,
        kmax=fit.kmax,
        source=source,
    )
