"""Tests for total-variation helpers, degree laws, and law-level diagnostics."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from poisson_digraph import analysis
from poisson_digraph.analysis import (
    _NODE_CAP,
    Pmf,
    conditional_degree_params,
    degree_fit_test,
    empirical_tv,
    independence_test,
    loop_test,
    mixed_poisson_pmf,
    mixed_poisson_tail,
    mixing_pairs,
    poisson_chisquare,
    poisson_tv,
    product_poisson_chisquare,
)
from poisson_digraph.sampler import sample_graph_fast
from poisson_digraph.weights import (
    Constant,
    ConstantMarginal,
    IndependentProduct,
    ParetoMarginal,
    ParetoMirrored,
    moments,
    sample_weights,
)


def _brute_tv(u, lam, jmax=500):
    js = np.arange(jmax)
    log_pu = -u + js * np.log(u) - gammaln(js + 1) if u > 0 else None
    pu = np.exp(log_pu) if u > 0 else (js == 0).astype(float)
    log_pl = -lam + js * np.log(lam) - gammaln(js + 1) if lam > 0 else None
    pl = np.exp(log_pl) if lam > 0 else (js == 0).astype(float)
    return 0.5 * np.abs(pu - pl).sum() + 0.5 * abs((1 - pu.sum()) - (1 - pl.sum()))


@pytest.mark.parametrize("pair", [(1.0, 2.0), (0.3, 9.0), (5.0, 5.5), (0.0, 1.7), (12.0, 12.0)])
def test_poisson_tv_matches_series(pair):
    u, lam = pair
    assert poisson_tv(u, lam) == pytest.approx(_brute_tv(u, lam), abs=1e-10)


def test_poisson_tv_zero_rate_closed_form():
    for u in (0.1, 1.0, 4.2):
        assert poisson_tv(0.0, u) == pytest.approx(1.0 - math.exp(-u), abs=1e-12)
    assert poisson_tv(0.0, 0.0) == 0.0


def test_poisson_tv_properties_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u, lam = rng.uniform(0, 30, size=2)
        t = poisson_tv(u, lam)
        assert 0.0 <= t <= 1.0
        assert t == pytest.approx(poisson_tv(lam, u), abs=1e-12)
        if u != lam:
            assert t > 0
    for _ in range(50):
        a, b, c = rng.uniform(0, 20, size=3)
        assert poisson_tv(a, c) <= poisson_tv(a, b) + poisson_tv(b, c) + 1e-12


def test_poisson_tv_rejects_bad_input():
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            poisson_tv(bad, 1.0)
        with pytest.raises(ValueError):
            poisson_tv(1.0, bad)


def test_pmf_validation():
    ok = Pmf(masses=np.full((2, 2), 0.2), tail_mass=0.2)
    assert ok.kmax == 1
    with pytest.raises(ValueError):
        Pmf(masses=np.full((2, 2), 0.2), tail_mass=0.5)
    with pytest.raises(ValueError):
        Pmf(masses=np.full((2, 2), -0.1), tail_mass=1.4)


def test_mixed_pmf_constant_is_product_poisson():
    pmf = mixed_poisson_pmf(Constant(2.0), kmax=20)
    marg = stats.poisson.pmf(np.arange(21), 2.0)
    np.testing.assert_allclose(pmf.masses, np.outer(marg, marg), rtol=1e-12)
    assert pmf.tail_mass == pytest.approx(1.0 - marg.sum() ** 2, abs=1e-12)


def test_mixed_pmf_tail_shrinks_with_kmax():
    small = mixed_poisson_pmf(ParetoMirrored(3.5, 1.0), kmax=5)
    large = mixed_poisson_pmf(ParetoMirrored(3.5, 1.0), kmax=25)
    assert large.tail_mass < small.tail_mass
    assert large.masses.sum() + large.tail_mass == pytest.approx(1.0, abs=1e-9)


def test_mixed_tail_constant_closed_form():
    ks = np.array([1, 3, 7])
    tails = mixed_poisson_tail(Constant(2.0), ks, side="in")
    np.testing.assert_allclose(tails, stats.poisson.sf(ks - 1, 2.0), rtol=1e-12)


def test_mixed_tail_decreasing_for_heavy_tails():
    ks = np.array([5, 10, 20, 40])
    tails = mixed_poisson_tail(ParetoMirrored(3.5, 1.0), ks)
    assert np.all(np.diff(tails) < 0)
    assert np.all(tails > 0)


def _pareto_poisson(tau, xmin, k, rate=1):
    """E[W^k exp(-rate W)] / k! for W ~ Pareto(tau, xmin), an incomplete gamma function."""
    tau, xmin = mpmath.mpf(tau), mpmath.mpf(xmin)
    a = k + 1 - tau
    scale = (tau - 1) * xmin ** (tau - 1) / mpmath.factorial(k)
    return scale * rate**-a * mpmath.gammainc(a, rate * xmin)


def test_mixed_pmf_matches_incomplete_gamma_oracle():
    kmax = 30
    with mpmath.workdps(40):
        # mirrored: P(d_in = j, d_out = k) = E[W^(j+k) exp(-2W)] / (j! k!)
        mirrored = np.array(
            [
                [
                    float(_pareto_poisson(3.5, 1.0, j + k, 2) * mpmath.binomial(j + k, j))
                    for k in range(kmax + 1)
                ]
                for j in range(kmax + 1)
            ]
        )
        # independent: the product of the two marginal pmfs E[W^k exp(-W)] / k!
        pin = np.array([float(_pareto_poisson(2.5, 5.0 / 9.0, k)) for k in range(kmax + 1)])
        pout = np.array([float(_pareto_poisson(3.5, 1.0, k)) for k in range(kmax + 1)])
    got = mixed_poisson_pmf(ParetoMirrored(3.5, 1.0), kmax)
    np.testing.assert_allclose(got.masses, mirrored, rtol=1e-10)
    assert got.tail_mass == pytest.approx(1.0 - mirrored.sum(), rel=1e-9)
    model = IndependentProduct(ParetoMarginal(2.5, 5.0 / 9.0), ParetoMarginal(3.5, 1.0))
    independent = mixed_poisson_pmf(model, kmax)
    np.testing.assert_allclose(independent.masses, np.outer(pin, pout), rtol=1e-10)


def test_mixed_tail_matches_incomplete_gamma_oracle():
    ks = np.array([1, 2, 5, 10, 30, 100, 300])
    with mpmath.workdps(40):
        pmf = [_pareto_poisson(3.5, 1.0, k) for k in range(int(ks.max()))]
        expect = np.array([float(1 - mpmath.fsum(pmf[:k])) for k in ks])
    model = IndependentProduct(ParetoMarginal(2.5, 5.0 / 9.0), ParetoMarginal(3.5, 1.0))
    for got in (
        mixed_poisson_tail(ParetoMirrored(3.5, 1.0), ks, side="in"),
        mixed_poisson_tail(model, ks, side="out"),
    ):
        np.testing.assert_allclose(got, expect, rtol=1e-10)


def test_mixing_pairs_degenerate_atoms():
    wi, wo, weights = mixing_pairs(Constant(3.0), size=1000, seed=0)
    assert wi.shape == (1,) and wo.shape == (1,)
    assert wi[0] == wo[0] == 3.0
    assert weights.tolist() == [1.0]
    const_prod = IndependentProduct(ConstantMarginal(2.0), ConstantMarginal(2.0))
    wi, wo, weights = mixing_pairs(const_prod, size=1000, seed=0)
    assert wi.size == 1


def test_mixing_pairs_mirrored_are_equal():
    wi, wo, weights = mixing_pairs(ParetoMirrored(3.5, 1.0), size=5000, seed=1)
    np.testing.assert_array_equal(wi, wo)
    assert wi.size == weights.size == 512
    assert wi.min() >= 1.0
    # the rule integrates the mean and the second moment, 5/3 and 5
    assert weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert weights @ wi == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert weights @ wi**2 == pytest.approx(5.0, rel=1e-12)
    # size and seed are ignored
    for got, want in zip(mixing_pairs(ParetoMirrored(3.5, 1.0)), (wi, wo, weights)):
        np.testing.assert_array_equal(got, want)


def test_degree_fit_accepts_matching_model():
    model = Constant(2.0)
    w = sample_weights(model, 40_000, seed=21)
    g = sample_graph_fast(w, 2.0 * 40_000, seed=21)
    res = degree_fit_test(g, model, kmax=30, threshold=0.015, seed=21)
    assert res.passed
    assert res.statistic < 0.015
    assert res.n == 40_000


def test_degree_fit_rejects_wrong_model():
    w = sample_weights(Constant(2.0), 40_000, seed=22)
    g = sample_graph_fast(w, 2.0 * 40_000, seed=22)
    res = degree_fit_test(g, Constant(5.0), kmax=30, threshold=0.015, seed=22)
    assert not res.passed
    assert res.statistic > 0.3


def test_degree_fit_statistic_shrinks_with_n():
    stats_by_n = []
    for n in (1_000, 10_000, 100_000):
        w = sample_weights(Constant(2.0), n, seed=23)
        g = sample_graph_fast(w, 2.0 * n, seed=23)
        stats_by_n.append(degree_fit_test(g, Constant(2.0), kmax=30, seed=23).statistic)
    assert stats_by_n[0] > stats_by_n[1] > stats_by_n[2]


def test_degree_fit_warns_when_underpowered():
    w = sample_weights(Constant(2.0), 10, seed=0)
    g = sample_graph_fast(w, 20.0, seed=0)
    with pytest.warns(UserWarning, match="little power"):
        degree_fit_test(g, Constant(2.0), kmax=10, seed=0)


def test_degree_fit_checks_its_arguments_first():
    g = sample_graph_fast(sample_weights(Constant(2.0), 10, seed=0), 20.0, seed=0)
    for kwargs, message in (
        ({"kmax": -3}, "kmax must be >= 0, got -3"),
        ({"threshold": 0.0}, "threshold must be in"),
        ({"threshold": 1.5}, "threshold must be in"),
        ({"threshold": math.nan}, "threshold must be in"),
        ({"threshold": math.inf}, "threshold must be in"),
    ):
        # raised before the n < 1000 warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                degree_fit_test(g, Constant(2.0), **kwargs)
    with pytest.warns(UserWarning, match="little power"):
        assert degree_fit_test(g, Constant(2.0), kmax=0, threshold=1.0).kmax == 0


def test_mixed_pmf_warns_when_the_rule_loses_mass():
    with pytest.warns(UserWarning, match="misses 0.18"):
        pmf = mixed_poisson_pmf(ParetoMirrored(2.00001, 1.0), 10)
    assert pmf.tail_mass > 0.18
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed_poisson_pmf(ParetoMirrored(3.5, 1.0), 10)
        product = IndependentProduct(ParetoMarginal(3.5, 1.0), ConstantMarginal(5.0 / 3.0))
        mixed_poisson_pmf(product, 10)


def test_conditional_degree_params_constant():
    w = sample_weights(Constant(2.0), 4, seed=0)
    p = conditional_degree_params(w, 8.0, v=2)
    assert p.lam_in == pytest.approx(1.5)
    assert p.lam_out == pytest.approx(1.5)
    assert p.lam_total == pytest.approx(3.5)


def test_conditional_degree_params_by_hand():
    from poisson_digraph.weights import WeightSequence

    w = WeightSequence(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    p = conditional_degree_params(w, 5.0, v=1)
    assert p.lam_in == pytest.approx(1.0 * (7.0 - 3.0) / 5.0)
    assert p.lam_out == pytest.approx(3.0 * (3.0 - 1.0) / 5.0)
    assert p.lam_total == pytest.approx(0.8 + 1.2 + 3.0 / 5.0)
    for v in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            conditional_degree_params(w, 5.0, v=v)


def test_conditional_degree_params_single_vertex():
    from poisson_digraph.weights import WeightSequence

    w = WeightSequence(np.array([2.0]), np.array([2.0]))
    p = conditional_degree_params(w, 2.0, v=1)
    assert p.lam_in == 0.0
    assert p.lam_out == 0.0
    assert p.lam_total == pytest.approx(2.0)


def test_independence_single_vertex_is_exactly_zero():
    res = independence_test(Constant(1.0), n=100, k=1, seed=0)
    assert res.statistic == 0.0
    assert res.pairwise == {}


def test_independence_validates_block_size():
    with pytest.raises(ValueError):
        independence_test(Constant(1.0), n=3, k=4, seed=0)
    with pytest.raises(ValueError):
        independence_test(Constant(1.0), n=3, k=0, seed=0)


def _brute_pair_tv(rates):
    """TV of one pair, summed over its six Poisson counts, each up to its 1e-14 tail.

    The counts are (U_i, V_i, U_j, V_j, A_ij, A_ji): arcs into and out of i
    and j from the rest, and the two arcs between them.
    """
    values = [np.arange(int(stats.poisson.isf(1e-14, rate)) + 2) for rate in rates]
    mass = np.ones(())
    for rate, js in zip(rates, values):
        mass = np.multiply.outer(mass, stats.poisson.pmf(js, rate))
    u_i, v_i, u_j, v_j, a_ij, a_ji = np.meshgrid(*values, indexing="ij")
    size = 2 * max(js.size for js in values)
    joint = np.zeros((size,) * 4)  # (d_in i, d_out i, d_in j, d_out j)
    np.add.at(joint, (u_i + a_ji, v_i + a_ij, u_j + a_ij, v_j + a_ji), mass)
    product = np.multiply.outer(joint.sum(axis=(2, 3)), joint.sum(axis=(0, 1)))
    return 0.5 * float(np.abs(joint - product).sum())


def test_independence_matches_brute_force_sum_at_n3():
    # independent in- and out-weights, so no two of the six rates coincide
    model, n = IndependentProduct(ParetoMarginal(3.5, 0.5), ParetoMarginal(3.5, 0.5)), 3
    w = sample_weights(model, n, seed=3)
    l_n = moments(model).mu * n
    res = independence_test(model, n=n, k=3, seed=3)
    assert sorted(res.pairwise) == [(1, 2), (1, 3), (2, 3)]
    assert res.statistic == max(res.pairwise.values())
    for (i, j), tv in res.pairwise.items():
        i, j = i - 1, j - 1
        m = 3 - i - j  # the third vertex is the rest
        rates = np.array(
            [
                w.w_in[i] * w.w_out[m],
                w.w_out[i] * w.w_in[m],
                w.w_in[j] * w.w_out[m],
                w.w_out[j] * w.w_in[m],
                w.w_out[i] * w.w_in[j],
                w.w_out[j] * w.w_in[i],
            ]
        ) / l_n
        assert tv == pytest.approx(_brute_pair_tv(rates), abs=1e-12)


def test_independence_statistic_decays_with_n():
    small = independence_test(Constant(1.0), n=50, k=2, seed=4)
    large = independence_test(Constant(1.0), n=5_000, k=2, seed=4)
    assert large.statistic < small.statistic
    assert large.statistic < 0.03
    assert len(large.pairwise) == 1
    three = independence_test(Constant(1.0), n=500, k=3, seed=4)
    assert len(three.pairwise) == 3
    assert three.statistic == pytest.approx(max(three.pairwise.values()))


def test_loop_law_constant_one():
    res = loop_test(Constant(1.0), n=400, reps=20_000, seed=5)
    assert res.expected_mean == pytest.approx(1.0)
    assert res.passed
    assert abs(res.z) <= 3
    assert res.chi2_pvalue >= 0.01


def test_loop_law_constant_two_mean():
    res = loop_test(Constant(2.0), n=200, reps=20_000, seed=6)
    assert res.expected_mean == pytest.approx(2.0)
    assert res.passed


def test_loop_test_refuses_infinite_second_moment():
    with pytest.raises(ValueError, match="infinite"):
        loop_test(ParetoMirrored(3.0, 1.0), n=100, reps=100, seed=0)


def test_loop_law_heavy_tails():
    # tau = 6 keeps E[Lambda^4] finite, so the loop total converges fast
    # enough for a chi-square at moderate n; rho/mu = (5/3) / (5/4)
    res = loop_test(ParetoMirrored(6.0, 1.0), n=2_000, reps=20_000, seed=7)
    assert res.expected_mean == pytest.approx(4.0 / 3.0)
    assert res.passed


def test_poisson_chisquare_calibration():
    rng = np.random.default_rng(8)
    draws = rng.poisson(3.0, size=20_000)
    good = poisson_chisquare(draws, 3.0)
    assert good.pvalue >= 1e-3
    assert good.dof == good.bins - 1
    assert good.bins >= 2
    bad = poisson_chisquare(draws, 3.5)
    assert bad.pvalue < 1e-6


# rates from the unit mass at zero to the node cap of the quadrature rules
REFERENCE_RATES = (0.0, 1e-300, 0.5, 3.0, 40.0, 1e6, _NODE_CAP)


def test_poisson_laws_equal_scipy_stats_bit_for_bit():
    k = np.arange(-1, 61)
    for mu in REFERENCE_RATES:
        assert np.array_equal(analysis._poisson_pmf(k, mu), stats.poisson.pmf(k, mu))
        # special.pdtrc(-1, mu) is NaN; the tail below zero is 1, as mixed_poisson_tail needs
        assert np.array_equal(analysis._poisson_sf(k, mu), stats.poisson.sf(k, mu))
        for coords in range(1, 9):
            got = analysis._poisson_isf(1e-9 / coords, mu)
            assert np.array_equal(got, stats.poisson.isf(1e-9 / coords, mu), equal_nan=True)
    mus = np.array(REFERENCE_RATES)[:, None]
    assert np.array_equal(analysis._poisson_pmf(k, mus), stats.poisson.pmf(k, mus))
    assert np.array_equal(analysis._poisson_sf(k, mus), stats.poisson.sf(k, mus))


def test_chisquare_equals_scipy_stats_bit_for_bit():
    rng = np.random.default_rng(13)
    for cells in (2, 5, 30, 200):
        expected = rng.random(cells) + 0.05
        expected *= 1000.0 / expected.sum()
        observed = rng.multinomial(1000, expected / expected.sum()).astype(float)
        ref = stats.chisquare(observed, expected)
        assert analysis._chisquare(observed, expected) == (ref.statistic, ref.pvalue)
    for observed, expected in (([1.0, 2.0], [1.0, 3.0]), ([50.0, 50.0], [50.0, 50.0 + 1e-5])):
        with pytest.raises(ValueError, match="relative"):
            stats.chisquare(observed, expected)
        with pytest.raises(ValueError, match="relative"):
            analysis._chisquare(observed, expected)
    # a relative mismatch of 2e-9 passes both checks
    assert analysis._chisquare([50.0, 50.0], [50.0, 50.0 + 1e-7]) == tuple(
        stats.chisquare([50.0, 50.0], [50.0, 50.0 + 1e-7])
    )


def test_product_chisquare_calibration_and_power():
    rng = np.random.default_rng(9)
    ind = np.column_stack([rng.poisson(1.0, 20_000), rng.poisson(2.0, 20_000)])
    assert product_poisson_chisquare(ind, np.array([1.0, 2.0])).pvalue >= 1e-3
    x = rng.poisson(1.5, 20_000)
    coupled = np.column_stack([x, x])
    assert product_poisson_chisquare(coupled, np.array([1.5, 1.5])).pvalue < 1e-6


def test_empirical_tv_edge_cases():
    xs = np.zeros(100, dtype=int)
    assert empirical_tv(xs, xs) == 0.0
    assert empirical_tv(xs, np.ones(100, dtype=int)) == 1.0
    half = np.concatenate([np.zeros(50, dtype=int), np.ones(50, dtype=int)])
    assert empirical_tv(xs, half) == pytest.approx(0.5)


@pytest.mark.parametrize("empty", ["xs", "ys"])
def test_empirical_tv_rejects_an_empty_sample(empty):
    samples = {"xs": np.array([1, 2]), "ys": np.array([1, 2]), empty: np.array([], dtype=int)}
    with pytest.raises(ValueError, match=f"{empty} is empty"):
        empirical_tv(samples["xs"], samples["ys"])
