"""Acceptance gate: every delivered capability at its stated tolerance.

Each test prints exactly one ``[criterion ...] PASS/FAIL`` line (run with
``-s`` to see them live; captured output is shown for failures anyway).

Two lines fail by design and document a real discrepancy instead of hiding
it.  At mirrored capacity 2, the measured direction-blind giant fraction is
about 0.980, which the two-type direction-blind fixed point predicts, while
the one-type fixed-point value 0.797 matches the forward-cluster fraction;
the 0.01-tolerance target pinning the direction-blind fraction to 0.797 is
therefore unattainable.  The same confusion repeats at heavy-tail
criticality, where the direction-blind largest component grows linearly in
n (measured slope about 1.0), while the forward cluster and the undirected
constituent grow with the predicted exponent 0.6.  Companion tests assert
the corrected quantities at the same tolerances and pass.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats

from poisson_digraph.analysis import (
    degree_fit_test,
    empirical_tv,
    independence_test,
    loop_test,
    mixed_poisson_tail,
    poisson_chisquare,
    poisson_tv,
    product_poisson_chisquare,
)
from poisson_digraph.branching import survival_fractions
from poisson_digraph.sampler import (
    evolve_chain,
    sample_graph_fast,
    sample_graph_naive,
    sample_independent_sum,
    sample_oriented_sum,
    sample_randomly_oriented_nr,
)
from poisson_digraph.scaling import scaling_exponent_experiment
from poisson_digraph.streams import derive_seed
from poisson_digraph.structure import component_summary, forward_cluster_size
from poisson_digraph.weights import (
    Constant,
    ConstantMarginal,
    ParetoMirrored,
    critical_pareto_mirrored,
    moments,
    sample_weights,
)

# one-type fixed point q = exp(-2 (1 - q)) and its derived fractions,
# cross-checked against independent root-finding oracles in test_branching
ZETA = 0.7968121300450306
PI = 0.6349095705868988
ZETA_WEAK = 0.9801725987184087


def _report(cid: str, passed: bool, detail: str) -> None:
    line = f"[criterion {cid}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert passed, line


def _pair_counts(sampler, w, l_n, reps, seed0):
    n = w.n
    out = np.zeros((reps, n * n), dtype=np.int64)
    for r in range(reps):
        g = sampler(w, l_n, seed0 + r)
        idx = (g.src - 1) * n + (g.dst - 1)
        out[r, idx] = g.mult
    return out


@pytest.mark.slow
def test_criterion_1_sampler_exactness():
    """Both samplers against the exact product-Poisson arc law at n in {2, 3}."""
    # 56 histograms are each held to the 1% level, so replicate seed ranges
    # must not overlap between configurations; derive_seed keys each block.
    reps = 100_000
    worst = 1.0
    for n, model, tag in [
        (2, Constant(2.0), "const"),
        (3, Constant(2.0), "const"),
        (2, ParetoMirrored(3.5, 1.0), "pareto"),
        (3, ParetoMirrored(3.5, 1.0), "pareto"),
    ]:
        w = sample_weights(model, n, seed=202)
        l_n = moments(model).mu * n
        rates = np.outer(w.w_out, w.w_in).ravel() / l_n
        for sname, sampler in (("fast", sample_graph_fast), ("naive", sample_graph_naive)):
            seed0 = derive_seed(202, "criterion-1", tag, n, sname)
            m = _pair_counts(sampler, w, l_n, reps, seed0)
            for j in range(n * n):
                worst = min(worst, poisson_chisquare(m[:, j], rates[j]).pvalue)
            if n == 2:
                worst = min(worst, product_poisson_chisquare(m, rates).pvalue)
    _report(
        "1",
        worst >= 0.01,
        f"per-pair chi-square vs exact product-Poisson law, min p={worst:.4f} (>= 0.01)",
    )


@pytest.mark.slow
def test_criterion_2_sum_construction_equivalence():
    """Oriented-sum, coin-flip-oriented at doubled capacity, and direct
    mirrored sampling share total-arc and per-pair laws."""
    cap2 = sample_weights(ParetoMirrored(3.5, 1.0), 2, seed=102)
    l2 = float(cap2.sum_in)
    reps2 = 100_000
    routes2 = [
        _pair_counts(sample_graph_fast, cap2, l2, reps2, 5_102),
        _pair_counts(lambda w, l, s: sample_oriented_sum(w, s, l), cap2, l2, reps2, 6_102),
        _pair_counts(lambda w, l, s: sample_randomly_oriented_nr(w, l_n=l, seed=s), cap2, l2, reps2, 7_102),
    ]
    rates2 = np.outer(cap2.w_out, cap2.w_in).ravel() / l2
    worst_tv = 0.0
    worst_p = 1.0
    for a in range(3):
        for j in range(4):
            worst_p = min(worst_p, poisson_chisquare(routes2[a][:, j], rates2[j]).pvalue)
        for b in range(a + 1, 3):
            worst_tv = max(worst_tv, empirical_tv(routes2[a].sum(axis=1), routes2[b].sum(axis=1)))
            for j in range(4):
                worst_tv = max(worst_tv, empirical_tv(routes2[a][:, j], routes2[b][:, j]))

    n3 = 1_000
    cap3 = sample_weights(ParetoMirrored(3.5, 1.0), n3, seed=102)
    l3 = float(cap3.sum_in)
    tracked = [(1, 2), (2, 1), (1, 1)]
    track_rates = [float(cap3.w_out[v - 1] * cap3.w_in[u - 1] / l3) for v, u in tracked]
    reps3 = 20_000
    samplers3 = [
        lambda s: sample_graph_fast(cap3, l3, s),
        lambda s: sample_oriented_sum(cap3, s, l3),
        lambda s: sample_randomly_oriented_nr(cap3, l_n=l3, seed=s),
    ]
    for si, sampler in enumerate(samplers3):
        totals = np.empty(reps3, dtype=np.int64)
        tracks = np.empty((reps3, 3), dtype=np.int64)
        for r in range(reps3):
            g = sampler(9_000_000 + 1_000_000 * si + r)
            totals[r] = g.total_arcs
            for t, (v, u) in enumerate(tracked):
                tracks[r, t] = g.multiplicity(v, u)
        worst_p = min(worst_p, poisson_chisquare(totals, l3).pvalue)
        for t in range(3):
            worst_p = min(worst_p, poisson_chisquare(tracks[:, t], track_rates[t]).pvalue)
    passed = worst_tv < 0.01 and worst_p >= 0.01
    _report(
        "2",
        passed,
        f"route-vs-route max TV={worst_tv:.4f} (< 0.01 at n=2), "
        f"exact-law min p={worst_p:.4f} (>= 0.01, n in {{2, 1000}})",
    )


@pytest.mark.slow
def test_criterion_3_evolution_consistency():
    """Thinning-growth chain 2 -> 5 vs direct sampling at 5: total-arc law."""
    reps = 100_000
    chain = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        chain[r] = evolve_chain(Constant(2.0), 2, 5, seed=103_000_000 + r).total_arcs
    w5 = sample_weights(Constant(2.0), 5, seed=103)
    direct = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        direct[r] = sample_graph_fast(w5, 10.0, 203_000_000 + r).total_arcs
    tv = empirical_tv(chain, direct)
    p_chain = poisson_chisquare(chain, 10.0).pvalue
    passed = tv < 0.01 and p_chain >= 0.01
    _report(
        "3",
        passed,
        f"total-arc TV chain-vs-direct={tv:.4f} (< 0.01), chain vs exact Poisson(10) p={p_chain:.4f}",
    )


def test_criterion_4_degree_limit():
    """Joint degree law at constant weights; marginal tail slope at heavy tails."""
    n = 100_000
    w = sample_weights(Constant(2.0), n, seed=104)
    g = sample_graph_fast(w, 2.0 * n, seed=104)
    fit = degree_fit_test(g, Constant(2.0), kmax=50, threshold=0.01, seed=104)

    ks = np.unique(np.round(np.logspace(1.0, 2.0, 12)).astype(int))
    tails = mixed_poisson_tail(ParetoMirrored(3.5, 1.0), ks, side="in")
    slope = float(np.polyfit(np.log(ks), np.log(tails), 1)[0])
    passed = fit.passed and abs(slope - (-2.5)) <= 0.3
    _report(
        "4",
        passed,
        f"joint TV={fit.statistic:.4f} (< 0.01) vs Poisson(2)xPoisson(2) at n=1e5; "
        f"tail slope={slope:.3f} within -2.5 +/- 0.3 on k in [10, 100]",
    )


def test_criterion_5_loop_law():
    """Loop totals: exactly Poisson(1) at unit constant weights for any n;
    mean within 3 sigma of rho/mu = 2 at constant weight 2."""
    tiny = loop_test(Constant(1.0), n=7, reps=20_000, seed=105)
    big = loop_test(Constant(1.0), n=5_000, reps=20_000, seed=205)
    two = loop_test(Constant(2.0), n=1_000, reps=20_000, seed=305)
    passed = (
        tiny.passed
        and big.passed
        and tiny.expected_mean == 1.0
        and two.expected_mean == 2.0
        and abs(two.z) <= 3.0
    )
    _report(
        "5",
        passed,
        f"Poisson(1) chi-square p={tiny.chi2_pvalue:.4f} (n=7), p={big.chi2_pvalue:.4f} (n=5000); "
        f"weight-2 loop mean z={two.z:+.2f} (|z| <= 3)",
    )


@lru_cache(maxsize=1)
def _mirrored_giant_fractions():
    n, reps = 100_000, 10
    weak = np.empty(reps)
    strong = np.empty(reps)
    forward = np.empty(reps)
    for r in range(reps):
        w = sample_weights(Constant(2.0), n, seed=106 + r)
        g = sample_graph_fast(w, 2.0 * n, seed=106 + r)
        s = component_summary(g)
        weak[r] = s.largest_weak / n
        strong[r] = s.largest_strong / n
        labels = s.strong_labels
        giant_label = int(np.argmax(np.bincount(labels)))
        rep_vertex = int(np.argmax(labels == giant_label)) + 1
        forward[r] = forward_cluster_size(g, rep_vertex) / n
    return weak, strong, forward


def test_criterion_6_weak_fraction_one_type_value():
    """Direction-blind giant fraction against the one-type value 0.797.

    Fails: the measured fraction sits at the two-type direction-blind
    value ~0.980; the one-type 0.797 describes the forward cluster."""
    weak, _, _ = _mirrored_giant_fractions()
    dev = abs(float(weak.mean()) - ZETA)
    _report(
        "6 (direction-blind vs one-type 0.797)",
        dev <= 0.01,
        f"measured weak fraction {weak.mean():.5f}, target {ZETA:.5f}, |dev|={dev:.5f} (<= 0.01)",
    )


def test_criterion_6_strong_fraction():
    _, strong, _ = _mirrored_giant_fractions()
    oracle = survival_fractions(Constant(2.0), configuration="mirrored-sum")
    assert oracle.pi == pytest.approx(PI, abs=1e-9)
    dev = abs(float(strong.mean()) - PI)
    _report(
        "6 (strong fraction)",
        dev <= 0.015,
        f"measured strong fraction {strong.mean():.5f} vs {PI:.5f}, |dev|={dev:.5f} (<= 0.015)",
    )


def test_criterion_6_independent_sum_strong_fraction():
    n, reps = 100_000, 10
    fracs = np.empty(reps)
    for r in range(reps):
        g = sample_independent_sum(ConstantMarginal(2.0), ConstantMarginal(2.0), n, seed=406 + r)
        fracs[r] = component_summary(g).largest_strong / n
    target = ZETA * ZETA
    dev = abs(float(fracs.mean()) - target)
    _report(
        "6 (independent-sum strong fraction)",
        dev <= 0.015,
        f"measured {fracs.mean():.5f} vs zeta1*zeta2={target:.5f}, |dev|={dev:.5f} (<= 0.015)",
    )


def test_criterion_6_companion_corrected_fractions():
    """The same replicates at the quantities the fixed points do predict."""
    weak, _, forward = _mirrored_giant_fractions()
    dev_weak = abs(float(weak.mean()) - ZETA_WEAK)
    dev_fwd = abs(float(forward.mean()) - ZETA)
    passed = dev_weak <= 0.01 and dev_fwd <= 0.01
    _report(
        "6 companion (two-type weak, forward)",
        passed,
        f"weak {weak.mean():.5f} vs {ZETA_WEAK:.5f} (|dev|={dev_weak:.5f}); "
        f"forward {forward.mean():.5f} vs {ZETA:.5f} (|dev|={dev_fwd:.5f}); both <= 0.01",
    )


@lru_cache(maxsize=1)
def _critical_scaling_result():
    return scaling_exponent_experiment(
        critical_pareto_mirrored(3.5),
        n_list=(4096, 8192, 16384, 32768, 65536, 131072),
        reps=50,
        seed=11,
        sources=64,
        threads=4,
        bootstrap=200,
    )


@pytest.mark.slow
def test_criterion_7_weak_scaling_exponent():
    """Median largest direction-blind component exponent against 0.6.

    Fails: at these sizes the direction-blind largest component is already
    proportional to n (slope ~1.0); the 0.6 exponent belongs to the forward
    cluster and the undirected constituent."""
    res = _critical_scaling_result()
    slope = res.slopes["weak"].slope
    dev = abs(slope - 0.6)
    _report(
        "7 (direction-blind exponent vs 0.6)",
        dev <= 0.1,
        f"fitted weak slope {slope:.3f} vs alpha=0.6, |dev|={dev:.3f} (<= 0.1), "
        f"ci95=[{res.slopes['weak'].ci_low:.3f}, {res.slopes['weak'].ci_high:.3f}]",
    )


@pytest.mark.slow
def test_criterion_7_companion_forward_and_constituent():
    res = _critical_scaling_result()
    fwd = res.slopes["forward"].slope
    con = res.slopes["constituent"].slope
    passed = abs(fwd - 0.6) <= 0.1 and abs(con - 0.6) <= 0.1
    _report(
        "7 companion (forward, constituent exponents)",
        passed,
        f"forward slope {fwd:.3f}, constituent slope {con:.3f}, both within 0.6 +/- 0.1",
    )


def test_criterion_8_asymptotic_independence():
    big = independence_test(Constant(1.0), n=10_000, k=2, seed=108)
    small = independence_test(Constant(1.0), n=100, k=2, seed=108)
    passed = big.statistic < 0.01 and big.statistic < small.statistic
    _report(
        "8",
        passed,
        f"joint-degree dependence {big.statistic:.4g} at n=1e4 (< 0.01), "
        f"{small.statistic:.4g} at n=100 (must be larger)",
    )


def test_criterion_9_tv_function_properties():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(1_000):
        u, lam = rng.uniform(0.0, 40.0, size=2)
        t = poisson_tv(u, lam)
        ok &= 0.0 <= t <= 1.0
        ok &= abs(t - poisson_tv(lam, u)) <= 1e-12
        ok &= poisson_tv(u, u) == 0.0
    worst_series = 0.0
    js = np.arange(620)
    from scipy.special import gammaln

    for _ in range(150):
        u, lam = rng.uniform(1e-3, 30.0, size=2)
        pu = np.exp(-u + js * np.log(u) - gammaln(js + 1))
        pl = np.exp(-lam + js * np.log(lam) - gammaln(js + 1))
        brute = 0.5 * np.abs(pu - pl).sum() + 0.5 * abs(pu.sum() - pl.sum())
        worst_series = max(worst_series, abs(poisson_tv(u, lam) - brute))
    passed = ok and worst_series <= 1e-10
    _report(
        "9",
        passed,
        f"symmetry/diagonal/bounds on 1000 pairs, series match max err={worst_series:.2e} (<= 1e-10)",
    )
