"""Acceptance gate: every delivered capability at its stated tolerance.

Each test prints exactly one ``[criterion ...] PASS/FAIL`` line (run with
``-s`` to see them live; captured output is shown for failures anyway).

Criteria 1-3 test the exact pair law.  Each route draws its replicates as
the blocks of one graph from a sampler's private body, and each criterion
has one statistic: the Pearson chi-squares of cells that are independent
under the exact law, summed and referred to chi-square on the summed
degrees of freedom, passing at p >= 0.01, so the designed false-alarm
rate is 1 %.

- Criterion 1 (40 cells): for each (configuration, sampler), the joint
  chi-square of the 4 pair counts at n = 2, or the 9 per-pair
  chi-squares at n = 3.  Measured false alarms: 4 of 200.
- Criterion 2 (15 cells): for each route, the joint chi-square of the 4
  pair counts at n = 2, and at n = 1000 the chi-squares of A_12, A_21,
  A_11 and the rest of the total.  Measured false alarms: 1 of 200.
- Criterion 3 (2 cells): the grown chain's and the direct route's totals
  against Poisson(10).  Measured false alarms: 1 of 200.

The measured counts come from 200 base seeds (1000-1199) substituted for
the criteria's own; their 95 % intervals are 0.5-5.0 %, 0.01-2.8 % and
0.01-2.8 %.

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

from functools import lru_cache

import numpy as np
import pytest

from poisson_digraph.analysis import (
    degree_fit_test,
    independence_test,
    loop_test,
    mixed_poisson_tail,
    poisson_chisquare,
    poisson_tv,
    product_poisson_chisquare,
)
from poisson_digraph.branching import survival_fractions
from poisson_digraph.sampler import (
    _evolve_chain,
    _fast,
    _naive,
    _oriented_sum_parts,
    _randomly_oriented,
    sample_graph_fast,
    sample_independent_sum,
)
from poisson_digraph.scaling import scaling_exponent_experiment
from poisson_digraph.streams import derive_seed
from poisson_digraph.structure import component_summary, forward_cluster_size
from poisson_digraph.verify import _per_block
from poisson_digraph.weights import (
    Constant,
    ConstantMarginal,
    NormalizerMode,
    ParetoMirrored,
    critical_pareto_mirrored,
    moments,
    sample_weights,
)
from graph_helpers import block_pairs, summed_pvalue

# one-type fixed point q = exp(-2 (1 - q)) and its derived fractions,
# cross-checked against independent root-finding oracles in test_branching
ZETA = 0.7968121300450306
PI = 0.6349095705868988
ZETA_WEAK = 0.9801725987184087


def _report(cid: str, passed: bool, detail: str) -> None:
    line = f"[criterion {cid}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_sampler_exactness():
    """Both samplers against the exact product-Poisson arc law at n in {2, 3}."""
    reps = 100_000
    cells = []
    for n, model, tag in [
        (2, Constant(2.0), "const"),
        (3, Constant(2.0), "const"),
        (2, ParetoMirrored(3.5, 1.0), "pareto"),
        (3, ParetoMirrored(3.5, 1.0), "pareto"),
    ]:
        w = sample_weights(model, n, seed=202)
        l_n = moments(model).mu * n
        rates = np.outer(w.w_out, w.w_in).ravel() / l_n
        for sname, body in (("fast", _fast), ("naive", _naive)):
            m = block_pairs(body(w, l_n, derive_seed(202, "criterion-1", tag, n, sname), reps), reps)
            if n == 2:
                cells.append(product_poisson_chisquare(m, rates))
            else:
                cells += [poisson_chisquare(m[:, j], rates[j]) for j in range(n * n)]
    p = summed_pvalue(cells)
    _report(
        "1",
        p >= 0.01,
        f"{len(cells)} chi-squares vs exact product-Poisson law, summed p={p:.4f} (>= 0.01)",
    )


@pytest.mark.slow
def test_criterion_2_sum_construction_equivalence():
    """Oriented-sum, coin-flip-oriented at doubled capacity, and direct
    mirrored sampling all follow the exact per-pair law."""
    routes = {
        "direct": _fast,
        "oriented_sum": lambda w, l_n, s, reps: _oriented_sum_parts(w, s, l_n, reps).graph,
        "random_orientation": lambda w, l_n, s, reps: _randomly_oriented(w, s, l_n, reps),
    }
    cells = []
    cap2 = sample_weights(ParetoMirrored(3.5, 1.0), 2, seed=102)
    l2 = float(cap2.sum_in)
    reps2 = 100_000
    rates2 = np.outer(cap2.w_out, cap2.w_in).ravel() / l2
    for route, body in routes.items():
        g = body(cap2, l2, derive_seed(102, "criterion-2", route, 2), reps2)
        cells.append(product_poisson_chisquare(block_pairs(g, reps2), rates2))

    n3 = 1_000
    cap3 = sample_weights(ParetoMirrored(3.5, 1.0), n3, seed=102)
    l3 = float(cap3.sum_in)
    tracked = [(1, 2), (2, 1), (1, 1)]
    track_rates = [float(cap3.w_out[v - 1] * cap3.w_in[u - 1] / l3) for v, u in tracked]
    chunks, chunk_reps = 10, 2_000  # 20,000 replicates, about 3.3e6 arcs per chunk
    for route, body in routes.items():
        counts = []
        for c in range(chunks):
            g = body(cap3, l3, derive_seed(102, "criterion-2", route, n3, c), chunk_reps)
            pairs = [
                _per_block(g, chunk_reps, lambda s, d, v=v, u=u: (s == v) & (d == u))
                for v, u in tracked
            ]
            counts.append(np.column_stack(pairs + [_per_block(g, chunk_reps) - sum(pairs)]))
        counts = np.concatenate(counts)
        for j, rate in enumerate(track_rates + [l3 - sum(track_rates)]):
            cells.append(poisson_chisquare(counts[:, j], rate))
    p = summed_pvalue(cells)
    _report(
        "2",
        p >= 0.01,
        f"{len(cells)} chi-squares vs exact Poisson laws (n in {{2, 1000}}), summed p={p:.4f} (>= 0.01)",
    )


def test_criterion_3_evolution_consistency():
    """Thinning-growth chain 2 -> 5 and direct sampling at 5: total-arc law."""
    reps = 100_000
    mode = NormalizerMode.DETERMINISTIC_MU_N
    chain = _evolve_chain(Constant(2.0), 2, 5, derive_seed(103, "criterion-3", "chain"), mode, reps)
    w5 = sample_weights(Constant(2.0), 5, seed=103)
    direct = _fast(w5, 10.0, derive_seed(103, "criterion-3", "direct"), reps)
    cells = [poisson_chisquare(_per_block(g, reps), 10.0) for g in (chain, direct)]
    p = summed_pvalue(cells)
    _report(
        "3",
        p >= 0.01,
        f"chain and direct totals vs exact Poisson(10), summed p={p:.4f} (>= 0.01; "
        f"chain p={cells[0].pvalue:.4f}, direct p={cells[1].pvalue:.4f})",
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
