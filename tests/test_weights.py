"""Tests for weight marginals, models, moments and serialization.

Moment formulas are checked against numerical integration of the Pareto
density (an independent oracle), and the inverse-uniform sampler against
the Kolmogorov-Smirnov test.
"""

import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

from poisson_digraph.streams import stream
from poisson_digraph.weights import (
    Constant,
    ConstantMarginal,
    IndependentProduct,
    MirroredCapacity,
    NormalizerMode,
    ParetoMarginal,
    ParetoMirrored,
    WeightSequence,
    critical_pareto_mirrored,
    model_from_json,
    model_to_json,
    moments,
    normalizer,
    parse_model,
    sample_weights,
)


def pareto_density(x, tau, xmin):
    return (tau - 1.0) / xmin * (x / xmin) ** (-tau)


# -- marginals ----------------------------------------------------------------


def test_pareto_moments_match_quadrature():
    for tau, xmin in ((3.5, 1.0), (4.0, 0.5), (3.2, 2.0), (5.0, 1.0)):
        m = ParetoMarginal(tau, xmin)
        mean_num, _ = integrate.quad(
            lambda x: x * pareto_density(x, tau, xmin), xmin, np.inf
        )
        second_num, _ = integrate.quad(
            lambda x: x * x * pareto_density(x, tau, xmin), xmin, np.inf
        )
        assert m.mean() == pytest.approx(mean_num, rel=1e-8)
        assert m.second_moment() == pytest.approx(second_num, rel=1e-6)


def test_pareto_infinite_second_moment_at_tau_3():
    assert math.isinf(ParetoMarginal(3.0, 1.0).second_moment())
    assert math.isinf(ParetoMarginal(2.5, 1.0).second_moment())


def test_pareto_inverse_uniform_matches_cdf():
    m = ParetoMarginal(3.5, 1.0)
    u = stream(5, "test-ks").random(20_000)
    draws = m.from_uniform(u)
    assert np.all(draws >= m.xmin)
    result = stats.kstest(draws, m.cdf)
    assert result.pvalue > 0.01


def test_cdf_inverse_consistency():
    m = ParetoMarginal(4.0, 2.0)
    u = np.linspace(0.0, 0.999, 100)
    assert np.allclose(m.cdf(m.from_uniform(u)), u, atol=1e-12)


def test_constant_marginal():
    m = ConstantMarginal(2.0)
    assert m.mean() == 2.0
    assert m.second_moment() == 4.0
    assert np.all(m.from_uniform(np.array([0.0, 0.5, 0.99])) == 2.0)


def test_marginal_validation():
    with pytest.raises(ValueError):
        ParetoMarginal(2.0, 1.0)
    with pytest.raises(ValueError):
        ParetoMarginal(3.5, 0.0)
    with pytest.raises(ValueError):
        ConstantMarginal(0.0)
    with pytest.raises(ValueError):
        ConstantMarginal(-1.0)


# -- models and moments -------------------------------------------------------


def test_independent_product_requires_equal_means():
    with pytest.raises(ValueError):
        IndependentProduct(ConstantMarginal(2.0), ConstantMarginal(3.0))
    # means agree: constant 2 against Pareto with mean 2
    IndependentProduct(ConstantMarginal(2.0), ParetoMarginal(3.5, 1.2))


def test_is_mirrored_and_capacity():
    # the mirrored constructors build a MirroredCapacity around their marginal
    assert Constant(2.0) == MirroredCapacity(ConstantMarginal(2.0))
    assert ParetoMirrored(3.5, 1.0) == MirroredCapacity(ParetoMarginal(3.5, 1.0))
    assert ParetoMirrored(3.5).capacity == ParetoMarginal(3.5, 1.0)
    assert not isinstance(
        IndependentProduct(ConstantMarginal(2.0), ConstantMarginal(2.0)), MirroredCapacity
    )


def test_moments_constant():
    mom = moments(Constant(2.0))
    assert (mom.mu, mom.nu_in, mom.nu_out, mom.rho) == (2.0, 4.0, 4.0, 4.0)


def test_moments_independent_product_factorizes():
    mom = moments(IndependentProduct(ConstantMarginal(2.0), ParetoMarginal(3.5, 1.2)))
    assert mom.mu == 2.0
    assert mom.rho == pytest.approx(4.0)  # independence: rho = mu_in * mu_out
    assert mom.nu_in == 4.0
    assert mom.nu_out == pytest.approx(ParetoMarginal(3.5, 1.2).second_moment())


def test_moments_mirrored_heavy_tail_infinite_rho():
    mom = moments(ParetoMirrored(3.0, 1.0))
    assert math.isinf(mom.rho)
    assert math.isinf(mom.nu_in)


def test_critical_tuning():
    for tau in (3.2, 3.5, 4.0, 6.0):
        model = critical_pareto_mirrored(tau)
        mom = moments(model)
        assert mom.nu_in / mom.mu == pytest.approx(1.0, abs=1e-12)
    assert critical_pareto_mirrored(3.5).capacity.xmin == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        critical_pareto_mirrored(3.0)


# -- sampling -----------------------------------------------------------------


def test_sample_weights_deterministic_and_prefix_stable():
    model = ParetoMirrored(3.5, 1.0)
    w10 = sample_weights(model, 10, seed=9)
    w4 = sample_weights(model, 4, seed=9)
    assert np.array_equal(w10.w_in[:4], w4.w_in)
    assert np.array_equal(w10.w_out[:4], w4.w_out)
    again = sample_weights(model, 10, seed=9)
    assert np.array_equal(w10.w_in, again.w_in)


def test_sample_weights_mirrored_and_independent():
    w = sample_weights(ParetoMirrored(3.5, 1.0), 50, seed=0)
    assert w.is_mirrored()
    w2 = sample_weights(
        IndependentProduct(ParetoMarginal(3.5, 1.0), ParetoMarginal(3.5, 1.0)), 50, 0
    )
    assert not np.array_equal(w2.w_in, w2.w_out)


def test_sample_weights_mean_concentrates():
    model = ParetoMirrored(3.5, 1.0)
    w = sample_weights(model, 200_000, seed=1)
    mu = moments(model).mu
    assert abs(w.sum_in / w.n - mu) < 0.05


def test_weight_sequence_basics():
    w = WeightSequence(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert w.n == 2
    assert (w.w_in[0], w.w_out[0]) == (1.0, 3.0)
    assert w.sum_in == 3.0 and w.sum_out == 7.0
    assert w.sum_products == 1.0 * 3.0 + 2.0 * 4.0
    p = w.prefix(1)
    assert p.n == 1 and p.sum_in == 1.0
    with pytest.raises(ValueError):
        w.prefix(0)
    for bad in ([], [1.0, -1.0], [np.inf, 1.0], [0.0, 1.0]):
        with pytest.raises(ValueError):
            WeightSequence(np.array(bad), np.ones(len(bad)))
        # one array for both sides, as a mirrored model draws it
        with pytest.raises(ValueError):
            WeightSequence(*[np.array(bad)] * 2)
    cap = np.array([1.0, 3.0])
    w = WeightSequence(cap, cap)
    assert w.is_mirrored() and (w.sum_in, w.sum_out, w.sum_products) == (4.0, 4.0, 10.0)


# -- normalizer modes ---------------------------------------------------------


def test_normalizer_modes():
    w = WeightSequence(np.array([1.0, 3.0]), np.array([1.0, 3.0]))
    mu = 2.0
    assert normalizer(w, mu, NormalizerMode.DETERMINISTIC_MU_N) == 4.0
    assert normalizer(w, mu, NormalizerMode.EMPIRICAL_PRODUCT) == pytest.approx(
        4.0 * 4.0 / 4.0
    )
    assert normalizer(w, mu, NormalizerMode.CAPACITY_SUM) == 4.0


def test_capacity_sum_requires_mirrored():
    w = WeightSequence(np.array([1.0, 3.0]), np.array([2.0, 2.0]))
    with pytest.raises(ValueError):
        normalizer(w, 2.0, NormalizerMode.CAPACITY_SUM)


def test_empirical_product_makes_mean_arcs_exact():
    # (sum_out)(sum_in) / L equals mu * n exactly under the empirical mode
    w = WeightSequence(np.array([1.0, 2.0, 4.0]), np.array([0.5, 1.0, 1.5]))
    mu = 1.0
    l_n = normalizer(w, mu, NormalizerMode.EMPIRICAL_PRODUCT)
    assert w.sum_out * w.sum_in / l_n == pytest.approx(mu * w.n)


# -- serialization ------------------------------------------------------------


MODELS = [
    Constant(2.0),
    ParetoMirrored(3.5, 1.0),
    MirroredCapacity(ParetoMarginal(4.0, 0.5)),
    MirroredCapacity(ConstantMarginal(1.5)),
    IndependentProduct(ConstantMarginal(2.0), ParetoMarginal(3.5, 1.2)),
]


def test_model_json_round_trip():
    for model in MODELS:
        assert model_from_json(model_to_json(model)) == model


def test_model_json_canonical_forms():
    assert model_to_json(Constant(2.0)) == '{"c": 2.0, "kind": "constant"}'
    assert model_to_json(ParetoMirrored(3.5, 1.0)) == (
        '{"kind": "pareto-mirrored", "tau": 3.5, "xmin": 1.0}'
    )
    # the capacity kinds are input aliases, written back in canonical form
    for kind in ("mirrored-capacity", "oriented-nr"):
        alias = {"kind": kind, "capacity": {"kind": "pareto", "tau": 3.5, "xmin": 1.0}}
        assert model_from_json(json.dumps(alias)) == ParetoMirrored(3.5, 1.0)


def test_model_json_rejects_unknown_fields():
    with pytest.raises(ValueError):
        model_from_json('{"kind": "constant", "c": 2.0, "extra": 1}')
    with pytest.raises(ValueError):
        model_from_json('{"kind": "no-such-model"}')


def test_parse_model_compact_forms():
    assert parse_model("constant:2") == Constant(2.0)
    assert parse_model("pareto-mirrored:3.5,1") == ParetoMirrored(3.5, 1.0)
    assert parse_model("pareto-mirrored:3.5") == ParetoMirrored(3.5, 1.0)
    assert parse_model("mirrored-capacity:pareto:4,0.5") == MirroredCapacity(
        ParetoMarginal(4.0, 0.5)
    )
    assert parse_model("oriented-nr:constant:2") == MirroredCapacity(ConstantMarginal(2.0))
    for alias in ("mirrored-capacity", "oriented-nr"):
        assert parse_model(f"{alias}:constant:2") == parse_model("constant:2")
        assert parse_model(f"{alias}:pareto:3.5,1") == parse_model("pareto-mirrored:3.5,1")
    assert parse_model("independent-product:constant:2|constant:2") == (
        IndependentProduct(ConstantMarginal(2.0), ConstantMarginal(2.0))
    )


def test_parse_model_accepts_json():
    text = model_to_json(ParetoMirrored(3.5, 1.0))
    assert parse_model(text) == ParetoMirrored(3.5, 1.0)


def test_parse_model_rejects_garbage():
    for bad in ("", "nope:1", "constant:", "pareto-mirrored:abc"):
        with pytest.raises(ValueError):
            parse_model(bad)
