"""Degree laws: mixed-Poisson limits, goodness of fit, heavy tails.

In-degrees converge to a Poisson distribution mixed by the in-weight; for
constant weight c that is plain Poisson(c), and for Pareto capacities the
tail of the degree law inherits the capacity tail exponent.

Run:  python3 demos/02_degree_distributions.py
"""

import numpy as np

from poisson_digraph import (
    Constant,
    ParetoMirrored,
    degree_arrays,
    degree_fit_test,
    mixed_poisson_tail,
    moments,
    sample_graph_fast,
    sample_weights,
)


def empirical_in_pmf(g, kmax):
    counts = np.bincount(degree_arrays(g).d_in, minlength=kmax + 1)
    return counts[: kmax + 1] / g.n


def main():
    n = 100_000
    model = Constant(2.0)
    w = sample_weights(model, n, seed=1)
    g = sample_graph_fast(w, moments(model).mu * n, seed=1)

    from scipy import stats

    print(f"constant weight 2, n={n}: in-degree pmf vs Poisson(2)")
    emp = empirical_in_pmf(g, 8)
    theo = stats.poisson.pmf(np.arange(9), 2.0)
    for k in range(9):
        bar = "#" * int(200 * emp[k])
        print(f"  k={k}: emp={emp[k]:.4f} theo={theo[k]:.4f} {bar}")

    fit = degree_fit_test(g, model, kmax=40, threshold=0.01)
    print(
        f"joint (in, out) TV against the product law: {fit.statistic:.4f}"
        f" -> {'pass' if fit.passed else 'FAIL'} (threshold {fit.threshold})"
    )

    # a wrong model is rejected decisively
    bad = degree_fit_test(g, Constant(5.0), kmax=40)
    print(f"same graph against constant weight 5: TV={bad.statistic:.3f} -> rejected")

    # heavy tails: P(D >= k) ~ k^(1 - tau) for Pareto(tau) capacities; the
    # limit law is a deterministic Gauss-Legendre sum over the capacity law
    tau = 3.5
    ks = np.unique(np.round(np.logspace(1, 2, 10)).astype(int))
    tails = mixed_poisson_tail(ParetoMirrored(tau, 1.0), ks)
    slope = np.polyfit(np.log(ks), np.log(tails), 1)[0]
    print(f"\nPareto tau={tau}: degree tail P(D >= k) on k in [10, 100]")
    for k, t in zip(ks, tails):
        print(f"  k={k:>3}: {t:.3e}")
    print(
        f"fitted log-log slope {slope:.3f} (limit 1 - tau = {1 - tau};"
        " approached from below as k grows)"
    )


if __name__ == "__main__":
    main()
