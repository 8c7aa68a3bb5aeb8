"""Sampling basics: weight models, the two samplers, and edge-list files.

Run:  python3 demos/01_sampling_basics.py
"""

import tempfile
from pathlib import Path

import numpy as np

from poisson_digraph import (
    Constant,
    ParetoMirrored,
    moments,
    parse_model,
    read_edge_list,
    sample_graph_fast,
    sample_graph_naive,
    sample_weights,
    write_edge_list,
)


def show_model(model):
    mom = moments(model)
    print(f"  {model!r}")
    print(f"    mean weight mu={mom.mu:.4f}, E[w_in w_out]={mom.rho:.4f}")


def main():
    print("Two ways to name the same model:")
    show_model(Constant(2.0))
    show_model(parse_model("constant:2"))
    print("A heavy-tailed mirrored model (w_in = w_out per vertex):")
    show_model(ParetoMirrored(3.5, 1.0))

    # every ordered pair (v, u), the diagonal included, carries an
    # independent Poisson(w_out_v * w_in_u / L) number of arcs
    n = 8
    model = ParetoMirrored(3.5, 1.0)
    w = sample_weights(model, n, seed=42)
    l_n = moments(model).mu * n
    print(f"\nRealized capacities for n={n}: {np.round(w.w_in, 3)}")

    g_fast = sample_graph_fast(w, l_n, seed=7)
    g_naive = sample_graph_naive(w, l_n, seed=7)
    print(f"fast sampler:  {g_fast.total_arcs} arcs, {g_fast.total_loops} loops")
    print(f"naive sampler: {g_naive.total_arcs} arcs (independent draw, same law)")
    arcs = zip(g_fast.src.tolist(), g_fast.dst.tolist(), g_fast.mult.tolist())
    print(f"arc multiset (src, dst, multiplicity) of the fast sample: {list(arcs)}")

    # identical seeds give identical graphs; the two samplers share the
    # law but not the stream, so they differ realization by realization
    assert sample_graph_fast(w, l_n, seed=7) == g_fast

    # graphs round-trip through a commented TSV edge list
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.tsv"
        write_edge_list(g_fast, path, meta={"seed": 7})
        g_back, meta = read_edge_list(path)
        assert g_back == g_fast
        print(f"\nround-tripped through {path.name}, header meta: {meta}")

    # the average arc count over many seeds approaches the rate-matrix sum
    reps = 2_000
    totals = [sample_graph_fast(w, l_n, seed=s).total_arcs for s in range(reps)]
    expected = w.sum_out * w.sum_in / l_n
    print(f"\nmean arcs over {reps} seeds: {np.mean(totals):.2f} (rate sum {expected:.2f})")


if __name__ == "__main__":
    main()
