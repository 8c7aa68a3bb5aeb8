"""Fixed-point solvers against quadrature/root-finding oracles.

Expected values are recomputed here with scipy.integrate.quad and
scipy.optimize.brentq, and with the closed forms of the Pareto mixing
integrals as mpmath incomplete gamma functions; neither shares code with
the Gauss-Legendre rule under test.  A few are also frozen as literals so
a silent change in either route shows up.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize

from poisson_digraph.branching import (
    CONFIGURATIONS,
    SurvivalReport,
    _nr_giant_fraction,
    solve_extinction,
    survival_fractions,
)
from poisson_digraph.weights import (
    Constant,
    ConstantMarginal,
    IndependentProduct,
    MirroredCapacity,
    ParetoMarginal,
    ParetoMirrored,
)

# q = exp(-2 (1 - q)), the extinction probability of a Poisson(2) branching
# process, and the derived one-type survival fractions
Q_CONST2 = 0.20318786997997995
ZETA_CONST2 = 1.0 - Q_CONST2
PI_CONST2 = ZETA_CONST2**2
# u = exp(-4 (1 - u)) gives the direction-blind fraction at capacity 2
ZETA_WEAK_CONST2 = 0.9801725987184087


# quad tolerances tight enough for a 1e-9 relative comparison
QUAD = {"epsabs": 1e-15, "epsrel": 1e-13, "limit": 200}


def _pareto_density(tau, xmin):
    return lambda x: (tau - 1.0) * xmin ** (tau - 1.0) * x ** (-tau)


def test_constant_two_extinction_matches_root_oracle():
    oracle = optimize.brentq(lambda q: q - math.exp(-2.0 * (1.0 - q)), 0.0, 1.0 - 1e-12, xtol=1e-14)
    assert oracle == pytest.approx(Q_CONST2, abs=1e-9)
    got = solve_extinction(Constant(2.0), "forward")
    assert got == pytest.approx(oracle, abs=1e-9)
    assert solve_extinction(Constant(2.0), "backward") == pytest.approx(oracle, abs=1e-9)


def test_subcritical_and_critical_return_one():
    assert solve_extinction(Constant(1.0)) == 1.0
    assert solve_extinction(Constant(0.5)) == 1.0
    # critical up to float rounding of the moment ratio, so the solver may
    # take the slow tangential iteration instead of the exact early return
    critical = solve_extinction(ParetoMirrored(3.5, 1.0 / 3.0))
    assert critical == pytest.approx(1.0, abs=1e-6)


def test_direction_validation():
    with pytest.raises(ValueError, match="direction"):
        solve_extinction(Constant(2.0), "sideways")
    with pytest.raises(ValueError, match="tol"):
        solve_extinction(Constant(2.0), tol=0.0)


def test_mirrored_pareto_extinction_matches_quadrature_oracle():
    tau, xmin = 3.5, 1.0
    mu = (tau - 1.0) / (tau - 2.0) * xmin
    dens = _pareto_density(tau, xmin)

    def step_minus_q(q):
        val, _ = integrate.quad(
            lambda x: (x / mu) * math.exp(-x * (1.0 - q)) * dens(x), xmin, np.inf, **QUAD
        )
        return val - q

    oracle = optimize.brentq(step_minus_q, 0.0, 1.0 - 1e-9, xtol=1e-15)
    got = solve_extinction(ParetoMirrored(tau, xmin), seed=1)
    assert got == pytest.approx(oracle, rel=1e-9)
    # the seed is ignored: the rule is deterministic
    assert solve_extinction(ParetoMirrored(tau, xmin), seed=2) == got


def test_independent_product_directions_differ():
    # W_out constant 2, W_in Pareto with matching mean 2
    model = IndependentProduct(ParetoMarginal(3.5, 1.2), ConstantMarginal(2.0))
    q_f = solve_extinction(model, "forward")
    q_b = solve_extinction(model, "backward")
    # forward: the in-weight bias is independent of the constant out-weight,
    # so the map collapses to the Poisson(2) one
    assert q_f == pytest.approx(Q_CONST2, rel=1e-9)

    tau, xmin = 3.5, 1.2
    dens = _pareto_density(tau, xmin)

    def back_step_minus_q(q):
        val, _ = integrate.quad(lambda x: math.exp(-x * (1.0 - q)) * dens(x), xmin, np.inf, **QUAD)
        return val - q

    oracle_b = optimize.brentq(back_step_minus_q, 0.0, 1.0 - 1e-9, xtol=1e-15)
    assert q_b == pytest.approx(oracle_b, rel=1e-9)
    assert abs(q_f - q_b) > 0.02


# -- incomplete-gamma oracle ----------------------------------------------------
#
# For W ~ Pareto(tau, xmin) and z = xmin s the mixing integrals have closed
# forms: E[exp(-s W)] = (tau - 1) z^(tau - 1) Gamma(1 - tau, z), and with
# the size-biased weight W / mu, E[(W / mu) exp(-s W)] =
# (tau - 2) z^(tau - 2) Gamma(2 - tau, z).  Roots are found by bisection on
# log s at 40 digits.


def _laplace(tau, xmin, s, biased):
    """E[exp(-s W)], or E[(W / mu) exp(-s W)] if biased, for W ~ Pareto(tau, xmin)."""
    a = mpmath.mpf(tau) - (2 if biased else 1)
    z = mpmath.mpf(xmin) * s
    return a * z**a * mpmath.gammainc(-a, z)


def _root(laplace):
    """The positive root of s = 1 - laplace(s), to about 1e-22 relative."""
    lo, hi = mpmath.log(mpmath.mpf("1e-40")), mpmath.log(2)
    for _ in range(80):
        mid = (lo + hi) / 2
        s = mpmath.exp(mid)
        lo, hi = (mid, hi) if 1 - laplace(s) > s else (lo, mid)
    return mpmath.exp(lo)


def _assert_report(rep, expect):
    for name, value in expect.items():
        assert getattr(rep, name) == pytest.approx(float(value), rel=1e-9), name
    assert rep.quad_error < 1e-8


@pytest.mark.parametrize(
    "tau, xmin",
    # nu / mu = 3 xmin at tau = 3.5, so the first two are 1e-3 and 1e-4 above critical
    [(3.5, (1 + 1e-3) / 3), (3.5, (1 + 1e-4) / 3), (2.05, 1.0), (2.5, 1.0), (3.0, 1.0)],
    ids=["near-critical-1e-3", "near-critical-1e-4", "tau=2.05", "tau=2.5", "tau=3"],
)
def test_mirrored_pareto_matches_incomplete_gamma_oracle(tau, xmin):
    with mpmath.workdps(40):
        s = _root(lambda s: _laplace(tau, xmin, s, True))
        zeta = 1 - _laplace(tau, xmin, s, False)
        # direction blind: s_i = s_o = u solves u = 1 - E[(W / mu) exp(-2 u W)]
        u = _root(lambda u: _laplace(tau, xmin, 2 * u, True))
        zeta_weak = 1 - _laplace(tau, xmin, 2 * u, False)
        expect = {"q_f": 1 - s, "q_b": 1 - s, "zeta_f": zeta, "zeta_b": zeta}
        # pi = E[(1 - exp(-s W))^2]
        expect["pi"] = 1 - 2 * _laplace(tau, xmin, s, False) + _laplace(tau, xmin, 2 * s, False)
        expect["zeta_weak"] = zeta_weak
    model = ParetoMirrored(tau, xmin)
    for configuration in ("mirrored-sum", "plain"):
        _assert_report(survival_fractions(model, configuration), expect)
    with pytest.raises(ValueError):
        survival_fractions(model, "independent-sum")


def test_independent_pareto_product_matches_incomplete_gamma_oracle():
    # two different tails with the common mean 5/3; tau = 2.5 has nu = inf
    side_in, side_out = (2.5, 5.0 / 9.0), (3.5, 1.0)
    model = IndependentProduct(ParetoMarginal(*side_in), ParetoMarginal(*side_out))
    with mpmath.workdps(40):
        # plain: the forward equation keeps only the plain out-weight law
        s_f = _root(lambda s: _laplace(*side_out, s, False))
        s_b = _root(lambda s: _laplace(*side_in, s, False))
        # independent-sum: each side is a Norros-Reittu constituent
        r_f = _root(lambda s: _laplace(*side_out, s, True))
        r_b = _root(lambda s: _laplace(*side_in, s, True))
        # direction blind: two types, K = exp(-w_out s_i - w_in s_o) factors
        s_i, s_o = mpmath.findroot(
            [
                lambda a, b: 1 - _laplace(*side_in, b, True) * _laplace(*side_out, a, False) - a,
                lambda a, b: 1 - _laplace(*side_in, b, False) * _laplace(*side_out, a, True) - b,
            ],
            (0.5, 0.5),
        )
        zeta_weak = 1 - _laplace(*side_in, s_o, False) * _laplace(*side_out, s_i, False)
        plain = {"q_f": 1 - s_f, "q_b": 1 - s_b, "zeta_f": s_f, "zeta_b": s_b}
        zeta_f = 1 - _laplace(*side_out, r_f, False)
        zeta_b = 1 - _laplace(*side_in, r_b, False)
        nr = {"q_f": 1 - r_f, "q_b": 1 - r_b, "zeta_f": zeta_f, "zeta_b": zeta_b}
    for configuration, expect in (("plain", plain), ("independent-sum", nr)):
        expect.update(zeta=zeta_weak, zeta_weak=zeta_weak, pi=expect["zeta_f"] * expect["zeta_b"])
        _assert_report(survival_fractions(model, configuration), expect)
    with pytest.raises(ValueError):
        survival_fractions(model, "mirrored-sum")


def test_monotone_iteration_from_zero():
    # replicate the iteration directly; it must increase toward the root
    iterates = [0.0]
    for _ in range(60):
        iterates.append(math.exp(-2.0 * (1.0 - iterates[-1])))
    assert all(b >= a for a, b in zip(iterates, iterates[1:]))
    assert iterates[-1] <= Q_CONST2 + 1e-9


def test_nr_giant_fraction_constant_capacity():
    root, frac = _nr_giant_fraction(ConstantMarginal(2.0))
    assert 1.0 - root.s == pytest.approx(Q_CONST2, abs=1e-9)
    assert frac == pytest.approx(ZETA_CONST2, abs=1e-9)
    sub, frac_sub = _nr_giant_fraction(ConstantMarginal(0.8))
    assert (sub.s, frac_sub) == (0.0, 0.0)


def test_mirrored_sum_report_frozen_constants():
    rep = survival_fractions(Constant(2.0), configuration="mirrored-sum")
    assert rep.q_f == pytest.approx(Q_CONST2, abs=1e-9)
    assert rep.q_b == pytest.approx(Q_CONST2, abs=1e-9)
    assert rep.zeta_f == pytest.approx(ZETA_CONST2, abs=1e-9)
    assert rep.zeta == pytest.approx(ZETA_CONST2, abs=1e-9)
    assert rep.pi == pytest.approx(PI_CONST2, abs=1e-9)
    assert rep.zeta_weak == pytest.approx(ZETA_WEAK_CONST2, abs=1e-9)
    assert rep.critical_ratio_in == pytest.approx(2.0)
    assert rep.critical_ratio_out == pytest.approx(2.0)
    assert rep.configuration == "mirrored-sum"
    assert rep.pi_conjectural is False


def test_weak_union_oracle_by_root_finding():
    u = optimize.brentq(lambda s: s - math.exp(-4.0 * (1.0 - s)), 0.0, 1.0 - 1e-12, xtol=1e-14)
    assert 1.0 - u == pytest.approx(ZETA_WEAK_CONST2, abs=1e-12)


def test_critical_mirrored_union_equals_supercritical_one_type():
    """The direction-blind graph at capacity c doubles the rate: a critical
    c = 1 mirrored model has union fraction equal to the c = 2 one-type one."""
    rep = survival_fractions(Constant(1.0), configuration="mirrored-sum")
    assert rep.zeta == 0.0
    assert rep.pi == 0.0
    assert rep.q_f == 1.0
    assert rep.zeta_weak == pytest.approx(ZETA_CONST2, abs=1e-9)


def test_subcritical_union_still_percolates():
    rep = survival_fractions(Constant(0.9), configuration="mirrored-sum")
    assert rep.zeta == rep.pi == 0.0
    assert rep.critical_ratio_in == pytest.approx(0.9)
    u = optimize.brentq(lambda s: s - math.exp(-1.8 * (1.0 - s)), 0.0, 1.0 - 1e-12, xtol=1e-14)
    assert rep.zeta_weak == pytest.approx(1.0 - u, abs=1e-9)


def test_deeply_subcritical_union_dies():
    rep = survival_fractions(Constant(0.4), configuration="mirrored-sum")
    assert rep.zeta_weak == 0.0


def test_jensen_gap_mirrored():
    flat = survival_fractions(Constant(2.0), configuration="mirrored-sum")
    assert flat.pi == pytest.approx(flat.zeta**2, abs=1e-9)
    spread = survival_fractions(ParetoMirrored(3.5, 1.0), configuration="mirrored-sum")
    assert spread.pi > spread.zeta**2 + 1e-3
    assert spread.pi <= min(spread.zeta_f, spread.zeta_b) + 1e-9


def test_independent_sum_strong_fraction_factorizes():
    model = IndependentProduct(ConstantMarginal(2.0), ConstantMarginal(2.0))
    rep = survival_fractions(model, configuration="independent-sum")
    assert rep.pi == pytest.approx(rep.zeta_f * rep.zeta_b, abs=1e-12)
    assert rep.pi == pytest.approx(PI_CONST2, abs=1e-9)
    assert rep.pi_conjectural is False
    assert rep.zeta == pytest.approx(rep.zeta_weak, abs=1e-12)


def test_plain_configuration_flags_conjecture():
    rep = survival_fractions(Constant(2.0), configuration="plain")
    assert rep.pi_conjectural is True
    assert rep.pi == pytest.approx(PI_CONST2, abs=1e-9)
    assert rep.zeta == pytest.approx(rep.zeta_weak, abs=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_survival_fractions_rejects_nonpositive_tol(tol):
    for configuration in ("mirrored-sum", "plain"):
        with pytest.raises(ValueError, match="tol must be positive"):
            survival_fractions(Constant(2.0), configuration, tol=tol)


def test_configuration_validation():
    with pytest.raises(ValueError, match="configuration"):
        survival_fractions(Constant(2.0), configuration="bogus")
    with pytest.raises(ValueError):
        survival_fractions(
            IndependentProduct(ConstantMarginal(2.0), ConstantMarginal(2.0)),
            configuration="mirrored-sum",
        )
    with pytest.raises(ValueError):
        survival_fractions(Constant(2.0), configuration="independent-sum")
    assert set(CONFIGURATIONS) == {"mirrored-sum", "independent-sum", "plain"}


def test_report_json_round_trip_keys():
    rep = survival_fractions(Constant(2.0), configuration="mirrored-sum")
    payload = json.loads(rep.to_json())
    expect = {
        "q_f",
        "q_b",
        "zeta_f",
        "zeta_b",
        "zeta",
        "pi",
        "zeta_weak",
        "critical_ratio_in",
        "critical_ratio_out",
        "configuration",
        "pi_conjectural",
        "iterations",
        "residual",
        "quad_error",
    }
    assert set(payload) == expect
    assert payload["pi"] == pytest.approx(PI_CONST2, abs=1e-9)


def test_report_rejects_inconsistent_values():
    with pytest.raises(ValueError):
        SurvivalReport(
            q_f=0.2,
            q_b=0.2,
            zeta_f=0.5,
            zeta_b=0.5,
            zeta=0.5,
            pi=0.9,  # exceeds min(zeta_f, zeta_b)
            zeta_weak=0.9,
            critical_ratio_in=2.0,
            critical_ratio_out=2.0,
            configuration="plain",
            pi_conjectural=True,
        )
    with pytest.raises(ValueError):
        SurvivalReport(
            q_f=1.2,
            q_b=0.2,
            zeta_f=0.5,
            zeta_b=0.5,
            zeta=0.5,
            pi=0.2,
            zeta_weak=0.9,
            critical_ratio_in=2.0,
            critical_ratio_out=2.0,
            configuration="plain",
            pi_conjectural=True,
        )
