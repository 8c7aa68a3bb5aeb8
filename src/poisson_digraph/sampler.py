"""Samplers for conditionally Poissonian directed multigraphs.

Given realized weights and a normalizer L, every ordered vertex pair (v, u),
diagonal included, carries an independent Poisson(w_out(v) * w_in(u) / L)
arc count.  Two samplers realize this law: a quadratic per-pair reference
sampler and a near-linear sampler that draws the Poisson total arc count K and
places the K arcs i.i.d. (valid by Poisson superposition).  Endpoints come
from sorted uniforms merged into the weights' cumulative sums (inversion
of a sorted sample, one linear pass); pairing that sorted sample with a
uniformly shuffled independent one gives the same law of arc multisets as
two i.i.d. sequences.

Also provided: one-vertex growth via Poisson thinning, and the mirrored-sum
constructions (two opposedly oriented undirected samples, or one doubled
undirected sample with uniform orientation) that reproduce the direct law
exactly, diagonal included.  The fast sampler and the sum constructions hold
their arcs as codes (``digraph._arc_codes``) until ``MultiDigraph._from_codes``
builds the graph.

Each sampler is one function with a keyword-only replicate count ``reps``
(default 1).  It returns ``reps`` independent samples as the blocks of one
graph on reps * n vertices: block r holds vertices r * n + 1 .. (r + 1) * n
and no arc crosses blocks.  At reps = 1 that graph is the single sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .digraph import _CHUNK_ROWS, MultiDigraph, _arc_codes
from .streams import stream
from .weights import (
    Marginal,
    MirroredCapacity,
    NormalizerMode,
    WeightModel,
    WeightSequence,
    moments,
    normalizer,
    sample_weights,
)

__all__ = [
    "sample_graph_naive",
    "sample_graph_fast",
    "evolve",
    "evolve_chain",
    "sample_oriented_sum",
    "oriented_sum_parts",
    "sample_randomly_oriented_nr",
    "independent_sum_parts",
    "SumParts",
]

NAIVE_DEFAULT_CAP = 10_000
# sorted endpoint keys merged into the cdf at a time, and the most cdf
# entries per key a chunk merges with: past about three, one binary search
# per key is as fast, and a merge of a full chunk (keys plus cdf slice) then
# takes at most 512 KiB for its argsort and the values it sorts
_MERGE_KEYS = _CHUNK_ROWS // 8
_MERGE_SPREAD = 3


def _check(l_n: float, reps: int = 1) -> None:
    if not (l_n > 0 and math.isfinite(l_n)):
        raise ValueError(f"normalizer L must be positive and finite, got {l_n}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")


def sample_graph_naive(w: WeightSequence, l_n: float, seed: int, *, reps: int = 1) -> MultiDigraph:
    """Reference sampler: one Poisson draw per ordered pair, O(n^2) per block.

    Guarded at ``NAIVE_DEFAULT_CAP`` vertices per block; intended as the
    distributional oracle for the fast sampler.
    """
    if w.n > NAIVE_DEFAULT_CAP:
        raise ValueError(
            f"naive sampler is O(n^2); n={w.n} exceeds NAIVE_DEFAULT_CAP={NAIVE_DEFAULT_CAP}"
        )
    _check(l_n, reps)
    n = w.n
    rng = stream(seed, "naive")
    rows_per_block = max(1, 4_000_000 // n)
    parts = []  # (src, dst, mult) of each row block
    for lo in range(0, reps * n, rows_per_block):
        rows = np.arange(lo, min(reps * n, lo + rows_per_block))
        counts = rng.poisson(np.outer(w.w_out[rows % n], w.w_in) / l_n)
        r, c = np.nonzero(counts)
        parts.append((rows[r] + 1, rows[r] // n * n + c + 1, counts[r, c]))
    return MultiDigraph._adopt(reps * n, *map(np.concatenate, zip(*parts)))


def _draw_vertices(cdf: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` i.i.d. 1-based vertex ids with P(v) proportional to weight v, sorted.

    ``cdf`` holds the cumulative sums of the weights.  Inverse CDF of
    sorted uniforms u: key u * total gets id 1 + #{cdf <= key}, as
    ``np.searchsorted(cdf, keys, side="right") + 1`` would give it, and
    u * total < total for every u in [0, 1), so no id exceeds n.  The keys
    are merged into the cdf ``_MERGE_KEYS`` at a time: the chunk's cdf
    slice ``cut`` runs from where the previous chunk's last key fell to
    where its own last key falls, and one stable sort of the slice followed
    by the keys, two sorted runs, merges them in linear time with every cdf
    entry before an equal key.  Key j then sits after the j keys before it
    and after the slice entries <= it.  A chunk whose slice holds more than
    ``_MERGE_SPREAD`` entries per key (a draw of fewer keys than a third of
    the vertices) is looked up by one binary search per key in its slice
    instead.  The uniforms are drawn into the ids' own buffer, sorted and
    scaled in place, and each chunk of them is replaced by its ids.
    """
    ids = np.empty(size, dtype=np.int64)
    u = ids.view(np.float64)
    rng.random(out=u)
    u.sort()
    u *= cdf[-1]
    start = 0  # cdf[:start] <= every key left
    for lo in range(0, size, _MERGE_KEYS):
        rows = slice(lo, lo + _MERGE_KEYS)
        keys = u[rows]
        # cdf[end:] > every key here
        end = int(np.searchsorted(cdf, keys[-1], side="right"))
        cut = cdf[start:end]
        # each key's count of cut entries <= it
        if cut.size > _MERGE_SPREAD * keys.size:
            at = np.searchsorted(cut, keys, side="right")
        else:
            merged = np.argsort(np.concatenate((cut, keys)), kind="stable")
            at = np.flatnonzero(merged >= cut.size)
            at -= np.arange(keys.size)
        at += start + 1
        ids[rows] = at
        start = end
    return ids


def sample_graph_fast(w: WeightSequence, l_n: float, seed: int, *, reps: int = 1) -> MultiDigraph:
    """Near-linear sampler, O(n + K log K) for K arcs.

    Draws the total arc count K ~ Poisson((sum w_out)(sum w_in) / L), then
    K sources i.i.d. proportional to w_out and K targets proportional to
    w_in.  Superposition and thinning of Poisson processes make the
    per-pair counts independent Poissons with the product rates.  Both
    endpoint samples come out sorted; shuffling the targets makes them an
    i.i.d. sequence independent of the sources, so pairing them with the
    sorted sources gives the same arc multiset law as two i.i.d. sequences.
    """
    return MultiDigraph._from_codes(reps * w.n, _fast_arc_codes(w.n, _arc_draw(w, l_n, reps), seed, reps))


def _arc_draw(w: WeightSequence, l_n: float, reps: int = 1) -> tuple[float, np.ndarray, np.ndarray]:
    """What ``sample_graph_fast`` draws from: the mean arc count and the source and target cdfs.

    A sequence whose w_in is its w_out, as a mirrored model draws it, has
    one cdf for both ends at reps = 1.  The weights are not needed after.
    """
    _check(l_n, reps)
    # sources from w_out tiled reps times pick their block
    cdf_out = np.cumsum(w.w_out if reps == 1 else np.tile(w.w_out, reps))
    cdf_in = cdf_out if reps == 1 and w.w_in is w.w_out else np.cumsum(w.w_in)
    return reps * w.sum_out * w.sum_in / l_n, cdf_out, cdf_in


def _fast_arc_codes(n: int, draw: tuple, seed: int, reps: int = 1) -> np.ndarray:
    """The arcs of ``sample_graph_fast``: K unsorted codes on reps * n vertices.

    ``draw`` is ``_arc_draw(w, l_n, reps)``, so a caller can drop the
    weights before the arcs are drawn.
    """
    mean, cdf_out, cdf_in = draw
    rng = stream(seed, "fast")
    k = int(rng.poisson(mean))
    src = _draw_vertices(cdf_out, k, rng)
    dst = _draw_vertices(cdf_in, k, rng)
    # the same stream as rng.permutation, without its copy
    rng.shuffle(dst)
    if reps > 1:
        # targets join their source's block
        dst += (src - 1) // n * n
    return _arc_codes(reps * n, src, dst, out=src)


# -- growth by one vertex -----------------------------------------------------


def evolve(
    g: MultiDigraph,
    w: WeightSequence,
    l_prev: float,
    l_next: float,
    seed: int,
    *,
    reps: int = 1,
) -> MultiDigraph:
    """One step of the graph process: n vertices to n + 1, in each of g's ``reps`` blocks.

    Existing arcs are kept independently with probability l_prev / l_next
    (binomial thinning per multiplicity), then vertex n + 1 arrives with
    fresh Poisson arcs at rate w_out * w_in / l_next for every ordered pair
    involving it, its loop included.  If g followed the target law at
    (n, l_prev), the result follows it at (n + 1, l_next).

    Requires l_next >= l_prev; the empirical-product normalizer is not
    pathwise monotone and must not be used here.
    """
    _check(l_prev, reps)
    _check(l_next)
    if l_next < l_prev:
        raise ValueError(f"normalizer must be nondecreasing, got {l_prev} -> {l_next}")
    n, rest = divmod(g.n, reps)
    if rest:
        raise ValueError(f"a graph on {g.n} vertices is not {reps} equal blocks")
    n_new = n + 1
    if w.n < n_new:
        raise ValueError(f"weight sequence has {w.n} pairs, need {n_new}")
    rng = stream(seed, "evolve", n_new)
    kept = rng.binomial(g.mult, l_prev / l_next)
    # arcs out of the new vertex (loop included), then arcs into it
    out_counts = rng.poisson(w.w_out[n_new - 1] * w.w_in[:n_new] / l_next, size=(reps, n_new))
    in_counts = rng.poisson(w.w_out[:n] * w.w_in[n] / l_next, size=(reps, n))
    # old vertex x moves to x + (x - 1) // n, in order; block r's new vertex is (r + 1) n_new
    new = np.arange(1, reps + 1) * n_new
    block = (new - n_new)[:, None] + np.arange(1, n_new + 1)
    src = np.concatenate([g.src + (g.src - 1) // n, np.repeat(new, n_new), block[:, :n].ravel()])
    dst = np.concatenate([g.dst + (g.dst - 1) // n, block.ravel(), np.repeat(new, n)])
    mult = np.concatenate([kept, out_counts.ravel(), in_counts.ravel()])
    return MultiDigraph._adopt(reps * n_new, src, dst, mult)


def evolve_chain(
    model: WeightModel,
    n_from: int,
    n_to: int,
    seed: int,
    mode: NormalizerMode = NormalizerMode.DETERMINISTIC_MU_N,
    *,
    reps: int = 1,
) -> MultiDigraph:
    """Sample at n_from and grow one vertex at a time to n_to.

    The weight sequence is drawn once for n_to (prefix stable), so every
    intermediate graph uses the same realized weights; the ``reps`` chains
    share it.  Only the mu-n and capacity-sum normalizers are monotone
    along the chain and allowed.
    """
    if not 1 <= n_from <= n_to:
        raise ValueError(f"need 1 <= n_from <= n_to, got {n_from}, {n_to}")
    if mode is NormalizerMode.EMPIRICAL_PRODUCT:
        raise ValueError("empirical-product normalizer is not monotone under growth")
    mu = moments(model).mu
    w = sample_weights(model, n_to, seed)
    l_cur = normalizer(w.prefix(n_from), mu, mode)
    g = sample_graph_fast(w.prefix(n_from), l_cur, seed, reps=reps)
    for n_next in range(n_from + 1, n_to + 1):
        l_next = normalizer(w.prefix(n_next), mu, mode)
        g = evolve(g, w, l_cur, l_next, seed, reps=reps)
        l_cur = l_next
    return g


# -- mirrored-sum constructions -----------------------------------------------


def _nr_oriented_arcs(
    cap: np.ndarray, l_n: float, orientation: str, rng: np.random.Generator, reps: int
) -> np.ndarray:
    """The arc codes, on reps * cap.size vertices, of ``reps`` undirected inhomogeneous samples.

    Unordered pair {v, w}, v != w, carries Poisson(cap_v cap_w / l_n) edges
    and the diagonal Poisson(cap_v^2 / (2 l_n)), realized by drawing the
    total K ~ Poisson((sum cap)^2 / (2 l_n)) and both endpoints i.i.d.
    proportional to cap: one sorted sample of 2K ids, shuffled into an
    i.i.d. sequence and split into the two endpoint columns.  Orientation:
    'higher' and 'lower' point every edge toward the higher / lower index
    (loops stay loops); 'uniform' keeps the exchangeable endpoint order,
    which is a fair coin per edge.  Block r draws its own K and takes the
    r-th run of consecutive edges.
    """
    k = rng.poisson(float(cap.sum()) ** 2 / (2.0 * l_n), size=reps)
    shift = np.repeat(np.arange(reps) * cap.size, k)
    ids = _draw_vertices(np.cumsum(cap), 2 * int(k.sum()), rng)
    rng.shuffle(ids)
    ids = ids.reshape(2, -1)
    ids += shift
    a, b = ids
    if orientation == "higher":
        a, b = np.minimum(a, b), np.maximum(a, b)
    elif orientation == "lower":
        a, b = np.maximum(a, b), np.minimum(a, b)
    elif orientation != "uniform":
        raise ValueError(f"unknown orientation {orientation!r}")
    return _arc_codes(reps * cap.size, a, b)


@dataclass(frozen=True, eq=False)
class SumParts:
    """A sum-construction sample together with its two constituents.

    Holds each constituent's unsorted arc codes on n vertices; ``graph``,
    ``first`` and ``second`` are each built on first access, from a copy,
    so the codes stay as drawn.
    """

    n: int
    first_codes: np.ndarray
    second_codes: np.ndarray

    @cached_property
    def graph(self) -> MultiDigraph:
        return MultiDigraph._from_codes(self.n, np.concatenate((self.first_codes, self.second_codes)))

    @cached_property
    def first(self) -> MultiDigraph:
        return MultiDigraph._from_codes(self.n, self.first_codes.copy())

    @cached_property
    def second(self) -> MultiDigraph:
        return MultiDigraph._from_codes(self.n, self.second_codes.copy())


def _capacities(w: WeightSequence, l_n: float | None, reps: int) -> tuple[np.ndarray, float]:
    """The capacity array of mirrored weights and L (default: their sum)."""
    if not w.is_mirrored():
        raise ValueError("sum constructions need mirrored capacities (w_in == w_out)")
    if l_n is None:
        l_n = w.sum_in
    _check(l_n, reps)
    return w.w_in, l_n


def _sum_parts(
    cap1: np.ndarray, cap2: np.ndarray, l_n: float, seed: int, tag: str, reps: int = 1
) -> SumParts:
    """Arc sum of two undirected samples at capacities cap1 and cap2.

    The first points toward higher indices and draws from stream
    (seed, tag, 1), the second toward lower indices from (seed, tag, 2).
    """
    return SumParts(
        n=reps * cap1.size,
        first_codes=_nr_oriented_arcs(cap1, l_n, "higher", stream(seed, tag, 1), reps),
        second_codes=_nr_oriented_arcs(cap2, l_n, "lower", stream(seed, tag, 2), reps),
    )


def oriented_sum_parts(
    capacity_weights: WeightSequence, seed: int, l_n: float | None = None, *, reps: int = 1
) -> SumParts:
    """Two independent undirected samples, oppositely oriented, arc-summed.

    The first constituent points every edge toward the higher index, the
    second toward the lower.  With the default l_n = sum of capacities the
    arc-summed graph follows the direct mirrored law exactly, loops
    included (each constituent carries half the diagonal rate).
    """
    cap, l_n = _capacities(capacity_weights, l_n, reps)
    return _sum_parts(cap, cap, l_n, seed, "oriented-sum", reps)


def sample_oriented_sum(
    capacity_weights: WeightSequence, seed: int, l_n: float | None = None
) -> MultiDigraph:
    """Arc sum of two oppositely oriented undirected samples."""
    return oriented_sum_parts(capacity_weights, seed, l_n).graph


def sample_randomly_oriented_nr(
    capacity_weights: WeightSequence, seed: int, l_n: float | None = None, *, reps: int = 1
) -> MultiDigraph:
    """One undirected sample at doubled capacities, uniformly oriented.

    At doubled capacities the unordered pair {v, w} carries rate
    4 cap_v cap_w / (2 l_n) = 2 cap_v cap_w / l_n, exactly the undirected
    intensity of the direct mirrored digraph; a fair coin per edge then
    splits it evenly between the two directions.  Loops keep the full
    diagonal rate cap_v^2 / l_n, again matching the direct law; the coin
    flip on a loop has no observable effect.
    """
    cap, l_n = _capacities(capacity_weights, l_n, reps)
    codes = _nr_oriented_arcs(2.0 * cap, 2.0 * l_n, "uniform", stream(seed, "randomly-oriented"), reps)
    return MultiDigraph._from_codes(reps * cap.size, codes)


# -- independent-sum construction ---------------------------------------------


def _one_sided_capacity(model) -> Marginal:
    if isinstance(model, (int, float)):
        raise TypeError("pass a Marginal or mirrored WeightModel, not a number")
    if isinstance(model, Marginal):
        return model
    if isinstance(model, MirroredCapacity):
        return model.capacity
    raise ValueError(f"independent-sum constituents must be one-sided, got {model!r}")


def independent_sum_parts(model1, model2, n: int, seed: int) -> SumParts:
    """Two undirected samples with independent capacity sequences, summed.

    Constituent capacities are drawn independently from model1 and model2
    (marginals or mirrored models with a common mean mu), both normalized
    by L = mu * n.  The first constituent is oriented toward the higher
    index, the second toward the lower, and the arc multisets are summed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m1, m2 = _one_sided_capacity(model1), _one_sided_capacity(model2)
    mu1, mu2 = m1.mean(), m2.mean()
    if not math.isclose(mu1, mu2, rel_tol=1e-9):
        raise ValueError(f"constituent means must agree, got {mu1} vs {mu2}")
    cap1 = m1.from_uniform(stream(seed, "indep-capacity", 1).random(n))
    cap2 = m2.from_uniform(stream(seed, "indep-capacity", 2).random(n))
    return _sum_parts(cap1, cap2, mu1 * n, seed, "indep-sum")
