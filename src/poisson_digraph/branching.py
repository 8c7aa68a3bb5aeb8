"""Survival probabilities of the branching approximation to neighbourhoods.

The forward exploration of a vertex is approximated by a weighted Poisson
branching process: the root spawns Poisson(w_out) children and every later
individual carries weights from the in-weight size-biased law and spawns
Poisson(its w_out) children.  Extinction probabilities are the minimal
fixed points of the associated generating-function equations; survival
fractions of graph-level clusters follow by averaging over the root weight.

All expectations run over a fixed quadrature sample from the mixing law:
a single atom for degenerate models (making the iteration a closed-form
evaluation) and a seeded Monte Carlo sample otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from .analysis import mixing_pairs
from .weights import (
    IndependentProduct,
    Marginal,
    MirroredCapacity,
    WeightModel,
    is_mirrored,
    moments,
)

__all__ = [
    "ConvergenceError",
    "SurvivalReport",
    "CONFIGURATIONS",
    "solve_extinction",
    "survival_fractions",
    "nr_giant_fraction",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
DEFAULT_MC_SAMPLES = 1_000_000

CONFIGURATIONS = ("mirrored-sum", "independent-sum", "plain")


class ConvergenceError(RuntimeError):
    """Fixed-point iteration ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def _fixed_point(step: Callable, start, tol: float, max_iter: int):
    """Iterate ``step`` from ``start`` until successive values differ < tol.

    The maps used here are monotone in each coordinate, so iteration from
    zero converges upward to the minimal fixed point.
    """
    current = start
    for _ in range(max_iter):
        nxt = step(current)
        gap = np.max(np.abs(np.asarray(nxt) - np.asarray(current)))
        current = nxt
        if gap < tol:
            return current
    raise ConvergenceError(
        f"no convergence within {max_iter} iterations (tol={tol})", current
    )


def solve_extinction(
    model: WeightModel,
    direction: str = "forward",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> float:
    """Extinction probability q of the forward or backward exploration.

    Solves q = E[(w_in / mu) exp(-w_out (1 - q))] for the forward
    direction (roles swapped for backward) by monotone iteration from 0.
    Returns 1 immediately when the size-biased mean offspring
    E[w_in w_out] / mu is at most 1 (subcritical or critical).
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    _check_tol(tol)
    mom = moments(model)
    if mom.rho / mom.mu <= 1.0:
        return 1.0
    w_in, w_out = mixing_pairs(model, mc_samples, seed)
    if direction == "backward":
        w_in, w_out = w_out, w_in
    # normalizing by the sample mean keeps q = 1 an exact fixed point of
    # the empirical map
    bias = w_in / w_in.mean()

    def step(q: float) -> float:
        return float(np.mean(bias * np.exp(-w_out * (1.0 - q))))

    return min(_fixed_point(step, 0.0, tol, max_iter), 1.0)


def nr_giant_fraction(
    capacity: Marginal,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> tuple[float, float]:
    """Extinction probability and giant fraction of one undirected constituent.

    The constituent with capacity law C has vertex degree mixing
    Poisson(C), so its giant fraction is 1 - E[exp(-C (1 - q))] with q the
    single-type extinction probability.  Returns (q, fraction).
    """
    model = MirroredCapacity(capacity)
    q = solve_extinction(model, "forward", tol, max_iter, mc_samples, seed)
    if q >= 1.0:
        return 1.0, 0.0
    cap, _ = mixing_pairs(model, mc_samples, seed)
    return q, float(1.0 - np.mean(np.exp(-cap * (1.0 - q))))


def _weak_union_fractions(
    w_in: np.ndarray,
    w_out: np.ndarray,
    mom,
    tol: float,
    max_iter: int,
) -> float:
    """Giant fraction of the graph with orientations ignored.

    Ignoring orientation, a vertex neighbours Poisson(w_out) arc targets
    (in-weight size-biased) and Poisson(w_in) arc sources (out-weight
    size-biased), giving a two-type fixed point; for mirrored weights both
    types coincide.  The offspring mean matrix has spectral radius
    (rho + sqrt(nu_in nu_out)) / mu, which decides criticality.
    """
    radius = (mom.rho + math.sqrt(mom.nu_in * mom.nu_out)) / mom.mu
    if radius <= 1.0:
        return 0.0
    bias_i = w_in / w_in.mean()
    bias_o = w_out / w_out.mean()

    def step(q):
        q_i, q_o = q
        kernel = np.exp(-w_out * (1.0 - q_i) - w_in * (1.0 - q_o))
        return (float(np.mean(bias_i * kernel)), float(np.mean(bias_o * kernel)))

    q_i, q_o = _fixed_point(step, (0.0, 0.0), tol, max_iter)
    kernel = np.exp(-w_out * (1.0 - q_i) - w_in * (1.0 - q_o))
    return float(1.0 - np.mean(kernel))


@dataclass(frozen=True)
class SurvivalReport:
    """Extinction probabilities and limiting cluster fractions.

    zeta follows the sum-graph identity for the mirrored configuration
    (the average of the conditional survival 1 - exp(-capacity (1 - q))),
    while zeta_weak always carries the two-type orientation-blind giant
    fraction; the two disagree for mirrored models because discarding
    orientation merges two constituents.  pi is the strong-giant
    fraction and is a proven identity except in the plain configuration,
    where it is a heuristic and pi_conjectural is set.
    """

    q_f: float
    q_b: float
    zeta_f: float
    zeta_b: float
    zeta: float
    pi: float
    zeta_weak: float
    critical_ratio_in: float
    critical_ratio_out: float
    configuration: str
    pi_conjectural: bool

    def __post_init__(self):
        for name in ("q_f", "q_b", "zeta_f", "zeta_b", "zeta", "pi", "zeta_weak"):
            value = getattr(self, name)
            if not -1e-9 <= value <= 1.0 + 1e-9:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if self.pi > min(self.zeta_f, self.zeta_b) + 1e-9:
            raise ValueError("pi must not exceed min(zeta_f, zeta_b)")

    def to_json(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, sort_keys=True, indent=2)


def survival_fractions(
    model: WeightModel,
    configuration: str = "plain",
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    mc_samples: int = DEFAULT_MC_SAMPLES,
) -> SurvivalReport:
    """Limiting cluster fractions for a weight model in a given configuration.

    mirrored-sum requires mirrored weights and reports
    zeta = E[1 - exp(-capacity (1 - q))] and pi = E[(1 - exp(-capacity (1 - q)))^2];
    independent-sum requires an independent-product model read as two
    constituent capacity laws (marginal_out first, marginal_in second) and
    reports pi = zeta_f * zeta_b; plain reports the forward and backward
    fractions of any model with pi the conjectural product average.
    Subcritical models yield zero fractions rather than an error.
    """
    if configuration not in CONFIGURATIONS:
        raise ValueError(
            f"configuration must be one of {CONFIGURATIONS}, got {configuration!r}"
        )
    _check_tol(tol)
    mom = moments(model)
    ratio_in = mom.nu_in / mom.mu
    ratio_out = mom.nu_out / mom.mu
    w_in, w_out = mixing_pairs(model, mc_samples, seed)
    zeta_weak = _weak_union_fractions(w_in, w_out, mom, tol, max_iter)

    if configuration == "mirrored-sum":
        if not is_mirrored(model):
            raise ValueError("mirrored-sum configuration needs a mirrored model")
        q = solve_extinction(model, "forward", tol, max_iter, mc_samples, seed)
        survival = 1.0 - np.exp(-w_in * (1.0 - q))
        zeta_f = zeta_b = float(np.mean(survival))
        pi = float(np.mean(survival**2))
        return SurvivalReport(
            q_f=q,
            q_b=q,
            zeta_f=zeta_f,
            zeta_b=zeta_b,
            zeta=zeta_f,
            pi=pi,
            zeta_weak=zeta_weak,
            critical_ratio_in=ratio_in,
            critical_ratio_out=ratio_out,
            configuration=configuration,
            pi_conjectural=False,
        )

    if configuration == "independent-sum":
        if not isinstance(model, IndependentProduct):
            raise ValueError(
                "independent-sum configuration needs an independent-product model"
            )
        q_f, zeta_f = nr_giant_fraction(
            model.marginal_out, tol, max_iter, mc_samples, seed
        )
        q_b, zeta_b = nr_giant_fraction(
            model.marginal_in, tol, max_iter, mc_samples, seed + 1
        )
        return SurvivalReport(
            q_f=q_f,
            q_b=q_b,
            zeta_f=zeta_f,
            zeta_b=zeta_b,
            zeta=zeta_weak,
            pi=zeta_f * zeta_b,
            zeta_weak=zeta_weak,
            critical_ratio_in=ratio_in,
            critical_ratio_out=ratio_out,
            configuration=configuration,
            pi_conjectural=False,
        )

    q_f = solve_extinction(model, "forward", tol, max_iter, mc_samples, seed)
    q_b = solve_extinction(model, "backward", tol, max_iter, mc_samples, seed)
    forward_survival = 1.0 - np.exp(-w_out * (1.0 - q_f))
    backward_survival = 1.0 - np.exp(-w_in * (1.0 - q_b))
    return SurvivalReport(
        q_f=q_f,
        q_b=q_b,
        zeta_f=float(np.mean(forward_survival)),
        zeta_b=float(np.mean(backward_survival)),
        zeta=zeta_weak,
        pi=float(np.mean(forward_survival * backward_survival)),
        zeta_weak=zeta_weak,
        critical_ratio_in=ratio_in,
        critical_ratio_out=ratio_out,
        configuration="plain",
        pi_conjectural=True,
    )
