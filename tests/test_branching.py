"""Fixed-point solvers against quadrature/root-finding oracles.

Expected values are recomputed here with scipy.optimize.brentq and
scipy.integrate.quad, which share no code with the monotone-iteration
solver under test.  A few are also frozen as literals so a silent change
in either route shows up.
"""

import json
import math

import numpy as np
import pytest
from scipy import integrate, optimize

from poisson_digraph.branching import (
    CONFIGURATIONS,
    ConvergenceError,
    SurvivalReport,
    nr_giant_fraction,
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
Q_CONST2 = 0.20318786991843468
ZETA_CONST2 = 1.0 - Q_CONST2
PI_CONST2 = ZETA_CONST2**2
# u = exp(-4 (1 - u)) gives the direction-blind fraction at capacity 2
ZETA_WEAK_CONST2 = 0.9801725987184087


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
        val, _ = integrate.quad(lambda x: (x / mu) * math.exp(-x * (1.0 - q)) * dens(x), xmin, np.inf)
        return val - q

    oracle = optimize.brentq(step_minus_q, 0.0, 1.0 - 1e-9, xtol=1e-12)
    got = solve_extinction(ParetoMirrored(tau, xmin), mc_samples=400_000, seed=1)
    assert got == pytest.approx(oracle, abs=5e-3)
    again = solve_extinction(ParetoMirrored(tau, xmin), mc_samples=400_000, seed=2)
    assert again == pytest.approx(oracle, abs=5e-3)


def test_independent_product_directions_differ():
    # W_out constant 2, W_in Pareto with matching mean 2
    model = IndependentProduct(ParetoMarginal(3.5, 1.2), ConstantMarginal(2.0))
    q_f = solve_extinction(model, "forward", mc_samples=400_000, seed=3)
    q_b = solve_extinction(model, "backward", mc_samples=400_000, seed=3)
    # forward: the in-weight bias is independent of the constant out-weight,
    # so the map collapses to the Poisson(2) one
    assert q_f == pytest.approx(Q_CONST2, abs=2e-3)

    tau, xmin = 3.5, 1.2
    dens = _pareto_density(tau, xmin)

    def back_step_minus_q(q):
        val, _ = integrate.quad(lambda x: math.exp(-x * (1.0 - q)) * dens(x), xmin, np.inf)
        return val - q

    oracle_b = optimize.brentq(back_step_minus_q, 0.0, 1.0 - 1e-9, xtol=1e-12)
    assert q_b == pytest.approx(oracle_b, abs=5e-3)
    assert abs(q_f - q_b) > 0.02


def test_monotone_iteration_from_zero():
    # replicate the iteration directly; it must increase toward the root
    iterates = [0.0]
    for _ in range(60):
        iterates.append(math.exp(-2.0 * (1.0 - iterates[-1])))
    assert all(b >= a for a, b in zip(iterates, iterates[1:]))
    assert iterates[-1] <= Q_CONST2 + 1e-9


def test_convergence_error_carries_last_iterate():
    with pytest.raises(ConvergenceError) as err:
        solve_extinction(Constant(2.0), max_iter=3)
    assert 0.0 < err.value.last_iterate < 1.0


def test_nr_giant_fraction_constant_capacity():
    q, frac = nr_giant_fraction(ConstantMarginal(2.0))
    assert q == pytest.approx(Q_CONST2, abs=1e-9)
    assert frac == pytest.approx(ZETA_CONST2, abs=1e-9)
    q_sub, frac_sub = nr_giant_fraction(ConstantMarginal(0.8))
    assert (q_sub, frac_sub) == (1.0, 0.0)


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
    spread = survival_fractions(
        ParetoMirrored(3.5, 1.0), configuration="mirrored-sum", mc_samples=400_000
    )
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
