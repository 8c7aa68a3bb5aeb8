"""Growing a graph one vertex at a time without changing its law.

Arcs are thinned with probability L_n / L_{n+1} when vertex n + 1 arrives,
then the newcomer attaches with fresh Poisson arcs.  The marginal law at
every size matches direct sampling, so one long run traces a consistent
family of graphs.

Run:  python3 demos/03_growth_chain.py
"""

import numpy as np

from poisson_digraph import (
    Constant,
    empirical_tv,
    evolve,
    evolve_chain,
    moments,
    normalizer,
    sample_graph_fast,
    sample_weights,
)
from poisson_digraph.weights import NormalizerMode


def block_totals(g, n, reps):
    """Arcs in each n-vertex block of a graph made of reps blocks."""
    return np.bincount((g.src - 1) // n, weights=g.mult, minlength=reps).astype(np.int64)


def main():
    model = Constant(2.0)
    mu = moments(model).mu
    n_final = 12
    w = sample_weights(model, n_final, seed=5)

    print("one realization of the chain, 3 -> 12 vertices:")
    l_cur = mu * 3
    g = sample_graph_fast(w.prefix(3), l_cur, seed=5)
    print(f"  n= 3: {g.total_arcs:>3} arcs")
    for n_next in range(4, n_final + 1):
        l_next = normalizer(w.prefix(n_next), mu, NormalizerMode.DETERMINISTIC_MU_N)
        g = evolve(g, w, l_cur, l_next, seed=5)
        l_cur = l_next
        print(f"  n={n_next:>2}: {g.total_arcs:>3} arcs")

    # the chain's endpoint law equals direct sampling at the final size:
    # compare total-arc histograms over many replicates.  Each route draws
    # its replicates as the disjoint 6-vertex blocks of one graph; the
    # blocks share one weight sequence, which loses nothing for constant
    # weights.
    reps = 20_000
    chain = evolve_chain(model, 2, 6, seed=1_000, reps=reps)
    direct = sample_graph_fast(sample_weights(model, 6, 50_000), mu * 6, 50_000, reps=reps)
    chain_totals, direct_totals = (block_totals(g, 6, reps) for g in (chain, direct))
    tv = empirical_tv(chain_totals, direct_totals)
    print(f"\nchain 2->6 vs direct at 6 over {reps} replicates:")
    print(f"  mean arcs {chain_totals.mean():.2f} vs {direct_totals.mean():.2f} (rate 12)")
    print(f"  total-arc TV {tv:.4f} (same law; pure Monte Carlo noise)")


if __name__ == "__main__":
    main()
