"""Survival probabilities of the branching approximation to neighbourhoods.

The forward exploration of a vertex is approximated by a weighted Poisson
branching process: the root spawns Poisson(w_out) children and every later
individual carries weights from the in-weight size-biased law and spawns
Poisson(its w_out) children.  Extinction probabilities are the minimal
fixed points of the associated generating-function equations; survival
fractions of graph-level clusters follow by averaging over the root weight.

Every expectation is a sum over the quadrature rule of one weight marginal
(``analysis._quadrature``), and every equation is solved for the survival
probability s = 1 - q by a bracketed root (Brent's method), so a root
near criticality keeps its relative precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, replace
from typing import Callable, NamedTuple

import numpy as np

from .analysis import QUAD_NODES, _quadrature
from .weights import IndependentProduct, Marginal, MirroredCapacity, WeightModel, moments

__all__ = ["SurvivalReport", "CONFIGURATIONS", "solve_extinction", "survival_fractions"]

DEFAULT_TOL = 1e-10

CONFIGURATIONS = ("mirrored-sum", "independent-sum", "plain")

# every equation here reads s = E[...] with E[...] <= 1, so its root lies
# below _S_MAX; a root below _S_MIN is reported as 0
_S_MAX = 2.0
_S_MIN = 1e-290
# brentq's smallest relative tolerance, four machine epsilons
_RTOL_MIN = 4 * np.finfo(np.float64).eps


class _Root(NamedTuple):
    s: float
    iterations: int
    residual: float


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def _largest_root(f: Callable[[float], float], rtol: float) -> _Root:
    """The positive root of the concave f(s) = E[...] - s, f(0) = 0, to relative tolerance rtol.

    f > 0 below the root, so the bracket's lower end steps down from _S_MAX
    by factors of 2**16 until f turns positive; if it never does above
    _S_MIN, the process is subcritical and s = 0.
    """
    from scipy.optimize import brentq

    hi, lo = _S_MAX, _S_MAX / 2**16
    while not f(lo) > 0:
        if lo < _S_MIN:
            return _Root(0.0, 0, 0.0)
        hi, lo = lo, lo / 2**16
    s, info = brentq(f, lo, hi, xtol=_S_MIN, rtol=max(rtol, _RTOL_MIN), full_output=True)
    return _Root(s, info.iterations, f(s))


def _hit(x: np.ndarray, s: float) -> np.ndarray:
    """1 - exp(-x s) per node, without cancellation for small x s."""
    return -np.expm1(-x * s)


def _rule(marginal: Marginal, n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, plain weights and size-biased weights of one marginal's rule."""
    x, p = _quadrature(marginal, False, n_nodes)
    return x, p, _quadrature(marginal, True, n_nodes)[1]


def _one_type(x: np.ndarray, c: np.ndarray, p: np.ndarray, tol: float) -> tuple[_Root, float]:
    """The root of s = sum(c (1 - exp(-x s))) and the fraction sum(p (1 - exp(-x s))).

    As sum(c) = 1, q = 1 - s >= sum(c exp(-x)); scaling tol by that bound
    makes it bound the relative error of q as well as of s.
    """
    rtol = tol * min(1.0, float(c @ np.exp(-x)))
    root = _largest_root(lambda s: float(c @ _hit(x, s)) - s, rtol)
    return root, float(p @ _hit(x, root.s))


def _nr_giant_fraction(capacity: Marginal, tol=DEFAULT_TOL, n_nodes=QUAD_NODES):
    """Survival root and giant fraction of one undirected constituent.

    Its degrees mix Poisson(C) over the capacity law, so the fraction is
    E[1 - exp(-C s)] with s = E[(C / mu) (1 - exp(-C s))].
    """
    x, p, b = _rule(capacity, n_nodes)
    return _one_type(x, b, p, tol)


def _offspring_rule(model: WeightModel, direction: str, n_nodes: int):
    """(x, c, p) with s = sum(c (1 - exp(-x s))) the survival equation.

    Forward, q = E[(w_in / mu) exp(-w_out (1 - q))]: for a mirrored model c
    is the size-biased capacity rule; an independent product drops the
    factor E[w_in / mu] = 1, leaving the plain out-weight rule (in-weight
    backward).  p, the root's weight law, is the plain rule.
    """
    if isinstance(model, MirroredCapacity):
        x, p, b = _rule(model.capacity, n_nodes)
        return x, b, p
    marginal = model.marginal_out if direction == "forward" else model.marginal_in
    x, p = _quadrature(marginal, False, n_nodes)
    return x, p, p


def solve_extinction(
    model: WeightModel, direction: str = "forward", tol: float = DEFAULT_TOL, seed: int = 0
) -> float:
    """Extinction probability q of the forward or backward exploration.

    Solves q = E[(w_in / mu) exp(-w_out (1 - q))] for the forward
    direction (roles swapped for backward) for s = 1 - q, to relative
    tolerance ``tol``.  Returns 1 when the size-biased mean offspring
    E[w_in w_out] / mu is at most 1.  ``seed`` is accepted and ignored.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    _check_tol(tol)
    return 1.0 - _one_type(*_offspring_rule(model, direction, QUAD_NODES), tol)[0].s


def _weak_union(model: WeightModel, tol: float, n_nodes: int) -> tuple[_Root, float]:
    """Giant fraction of the graph with orientations ignored.

    A vertex neighbours Poisson(w_out) arc targets (type i, in-weight
    size-biased) and Poisson(w_in) arc sources (type o).  With
    K = exp(-w_out s_i - w_in s_o), s_i = E[(w_in / mu)(1 - K)],
    s_o = E[(w_out / mu)(1 - K)] and the fraction is E[1 - K].  Mirrored
    weights give s_i = s_o, one type at doubled rates.  For an independent
    product K factors into 1-d sums; s_o is solved for each s_i inside the
    bracket on s_i, whose root is returned with the fraction.
    """
    if isinstance(model, MirroredCapacity):
        x, c, p = _offspring_rule(model, "forward", n_nodes)
        return _one_type(2.0 * x, c, p, tol)
    x_i, p_i, b_i = _rule(model.marginal_in, n_nodes)
    x_o, p_o, b_o = _rule(model.marginal_out, n_nodes)

    def survive(x, c, s):
        # E[1 - exp(-W s)]; for independent factors 1 - E[K] = A + B - A B
        return float(c @ _hit(x, s))

    def s_o_given(s_i):
        d = survive(x_o, b_o, s_i)
        return _largest_root(lambda s_o: (1.0 - d) * survive(x_i, p_i, s_o) + d - s_o, tol).s

    def excess(s_i):
        a, b = survive(x_i, b_i, s_o_given(s_i)), survive(x_o, p_o, s_i)
        return a + b - a * b - s_i

    root = _largest_root(excess, tol)
    c, b = survive(x_i, p_i, s_o_given(root.s)), survive(x_o, p_o, root.s)
    return root, c + b - c * b


_FRACTIONS = ("zeta_f", "zeta_b", "zeta", "pi", "zeta_weak")


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

    The error statement: ``iterations`` sums Brent's iterations over the
    root solves, ``residual`` is the largest |E[...] - s| at a root, and
    ``quad_error`` the largest relative gap of a fraction between the
    N-node and the 2N-node rule (0 for constant marginals, which are exact).
    ``critical_ratio_in/out`` are nu / mu, infinite when the second moment
    is (tau <= 3); JSON writes an infinite ratio as null.
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
    iterations: int = 0
    residual: float = 0.0
    quad_error: float = 0.0

    def __post_init__(self):
        for name in ("q_f", "q_b") + _FRACTIONS:
            value = getattr(self, name)
            if not -1e-9 <= value <= 1.0 + 1e-9:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if self.pi > min(self.zeta_f, self.zeta_b) + 1e-9:
            raise ValueError("pi must not exceed min(zeta_f, zeta_b)")

    def to_json(self) -> str:
        payload = asdict(self)
        for name in ("critical_ratio_in", "critical_ratio_out"):
            if payload[name] == math.inf:
                payload[name] = None
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def survival_fractions(
    model: WeightModel, configuration: str = "plain", tol: float = DEFAULT_TOL, seed: int = 0
) -> SurvivalReport:
    """Limiting cluster fractions for a weight model in a given configuration.

    mirrored-sum requires mirrored weights and reports
    zeta = E[1 - exp(-capacity (1 - q))] and pi = E[(1 - exp(-capacity (1 - q)))^2];
    independent-sum requires an independent-product model read as two
    constituent capacity laws (marginal_out first, marginal_in second) and
    reports pi = zeta_f * zeta_b; plain reports the forward and backward
    fractions of any model with pi the conjectural product average.
    Subcritical models yield zero fractions rather than an error.  Every
    root has relative tolerance ``tol``; ``seed`` is accepted and ignored.
    """
    if configuration not in CONFIGURATIONS:
        raise ValueError(
            f"configuration must be one of {CONFIGURATIONS}, got {configuration!r}"
        )
    _check_tol(tol)
    if configuration == "mirrored-sum" and not isinstance(model, MirroredCapacity):
        raise ValueError("mirrored-sum configuration needs a mirrored model")
    if configuration == "independent-sum" and not isinstance(model, IndependentProduct):
        raise ValueError("independent-sum configuration needs an independent-product model")
    report = _fractions(model, configuration, tol, QUAD_NODES)
    check = _fractions(model, configuration, tol, 2 * QUAD_NODES)
    pairs = [(getattr(report, name), getattr(check, name)) for name in _FRACTIONS]
    gaps = [abs(a - b) / b for a, b in pairs if b > 0]
    return replace(report, quad_error=max(gaps, default=0.0))


def _fractions(model: WeightModel, configuration: str, tol: float, n_nodes: int) -> SurvivalReport:
    """The report of ``survival_fractions`` from the n_nodes-point rules."""
    weak, zeta_weak = _weak_union(model, tol, n_nodes)
    if configuration == "independent-sum":
        forward = _nr_giant_fraction(model.marginal_out, tol, n_nodes)
        backward = _nr_giant_fraction(model.marginal_in, tol, n_nodes)
        roots = (forward[0], backward[0], weak)
        pi = forward[1] * backward[1]
    elif isinstance(model, MirroredCapacity):
        x, c, p = _offspring_rule(model, "forward", n_nodes)
        forward = backward = _one_type(x, c, p, tol)
        roots = (forward[0], weak)
        pi = float(p @ _hit(x, forward[0].s) ** 2)
    else:
        forward = _one_type(*_offspring_rule(model, "forward", n_nodes), tol)
        backward = _one_type(*_offspring_rule(model, "backward", n_nodes), tol)
        roots = (forward[0], backward[0], weak)
        # the forward survival depends on w_out only, the backward on w_in
        pi = forward[1] * backward[1]
    mom = moments(model)
    return SurvivalReport(
        q_f=1.0 - forward[0].s,
        q_b=1.0 - backward[0].s,
        zeta_f=forward[1],
        zeta_b=backward[1],
        zeta=forward[1] if configuration == "mirrored-sum" else zeta_weak,
        pi=pi,
        zeta_weak=zeta_weak,
        critical_ratio_in=mom.nu_in / mom.mu,
        critical_ratio_out=mom.nu_out / mom.mu,
        configuration=configuration,
        pi_conjectural=configuration == "plain",
        iterations=sum(r.iterations for r in roots),
        residual=max(abs(r.residual) for r in roots),
    )
