"""Independent fixed-point oracles for the `predictions` workload.

The one-type forward extinction equation of a mirrored Pareto(tau, xmin)
capacity law, written for the survival probability s = 1 - q, is

    s = E[(X / mu) (1 - exp(-X s))],

and the forward survival fraction is zeta_f = E[1 - exp(-X s)].  Both
expectations are taken here with scipy `quad` and the root with `brentq`,
sharing no code with the package's Monte Carlo fixed-point iteration.
Working in s rather than q keeps the near-critical root (s ~ 1e-4)
resolvable in double precision.
"""

from __future__ import annotations

import math

from scipy import integrate, optimize


def _expect(f, tau: float, xmin: float) -> float:
    """E[f(X)] for X ~ Pareto(tau, xmin)."""
    density = lambda x: (tau - 1.0) * xmin ** (tau - 1.0) * x ** (-tau)
    value, _ = integrate.quad(
        lambda x: f(x) * density(x), xmin, math.inf, epsabs=1e-15, epsrel=1e-12, limit=200
    )
    return value


def pareto_forward(tau: float, xmin: float) -> tuple[float, float]:
    """(q_f, zeta_f) of the mirrored Pareto(tau, xmin) capacity law."""
    mu = (tau - 1.0) / (tau - 2.0) * xmin

    def excess(s: float) -> float:
        return _expect(lambda x: (x / mu) * -math.expm1(-x * s), tau, xmin) - s

    s = optimize.brentq(excess, 1e-12, 1.0, xtol=1e-16, rtol=1e-13)
    return 1.0 - s, _expect(lambda x: -math.expm1(-x * s), tau, xmin)


def constant_forward(c: float) -> tuple[float, float]:
    """(q_f, zeta_f) of constant capacity c > 1: q = exp(-c (1 - q))."""
    q = optimize.brentq(lambda q: q - math.exp(-c * (1.0 - q)), 0.0, 1.0 - 1e-12, xtol=1e-15)
    return q, 1.0 - q
