"""Distributional checks for sampled graphs.

Contains the exact total-variation distance between Poisson laws, the
mixed-Poisson degree prediction (joint in/out pmf and tail), goodness-of-fit
tests for degrees and loop totals, conditional per-vertex degree rates at
fixed weights, and the exact dependence between the degrees of a fixed set
of tracked vertices.  Every limiting expectation is a weighted sum over the
deterministic quadrature rule of one weight marginal.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .digraph import MultiDigraph
from .structure import degree_arrays
from .streams import stream
from .weights import (
    ConstantMarginal,
    IndependentProduct,
    Marginal,
    MirroredCapacity,
    WeightModel,
    WeightSequence,
    _pairs_from_uniforms,
    moments,
    sample_weights,
)

__all__ = [
    "poisson_tv",
    "Pmf",
    "mixed_poisson_pmf",
    "mixed_poisson_tail",
    "DegreeFitResult",
    "degree_fit_test",
    "ConditionalDegreeParams",
    "conditional_degree_params",
    "IndependenceResult",
    "independence_test",
    "LoopTestResult",
    "loop_test",
    "ChiSquareResult",
    "poisson_chisquare",
    "product_poisson_chisquare",
    "empirical_tv",
    "mixing_pairs",
]

# the chi-square tests merge cells until each expects at least this many samples
MIN_EXPECTED = 5.0
# the loop test's least chi-square p-value
LOOP_ALPHA = 0.01


# -- Poisson and chi-square laws ---------------------------------------------

# These laws take scipy.special through the formulas of scipy's stats
# module: the same bits, without the most of a second that importing that
# module costs.  scipy.special itself is imported where it is called, so
# commands that compute no law (sample, components, scaling) skip its
# import, 0.05-0.07 s on a 2-vCPU VM.


def _poisson_pmf(k, mu):
    """Poisson(mu) pmf at integers k, 0 below 0 (scipy's poisson.pmf)."""
    from scipy import special

    k = np.asarray(k)
    kk = np.maximum(k, 0)
    pmf = np.exp(special.xlogy(kk, mu) - special.gammaln(kk + 1) - mu)
    return np.where(k >= 0, np.clip(pmf, 0.0, 1.0), 0.0)


def _poisson_sf(k, mu):
    """P(Poisson(mu) > k), 1 below 0 (scipy's poisson.sf)."""
    from scipy import special

    k = np.asarray(k)
    sf = special.pdtrc(np.floor(np.maximum(k, 0)), mu)
    return np.where(k >= 0, np.clip(sf, 0.0, 1.0), 1.0)


def _poisson_isf(q: float, mu: float) -> float:
    """Least k with P(Poisson(mu) > k) <= q, for 0 < q < 1 (scipy's poisson.isf)."""
    from scipy import special

    p = 1.0 - q
    vals = np.ceil(special.pdtrik(p, mu))
    below = np.maximum(vals - 1, 0)
    return float(np.where(special.pdtr(below, mu) >= p, below, vals))


def _chisquare(observed, expected) -> tuple[float, float]:
    """Pearson's statistic and its chi-square p-value (scipy's chisquare).

    Raises ValueError unless the two totals agree to a relative sqrt(eps).
    """
    from scipy import special

    observed, expected = np.asarray(observed, dtype=np.float64), np.asarray(expected)
    o_sum, e_sum = observed.sum(), expected.sum()
    rtol = np.finfo(np.float64).eps ** 0.5
    if abs(o_sum - e_sum) / min(o_sum, e_sum) > rtol:
        raise ValueError(
            f"observed total {o_sum} and expected total {e_sum} differ by more than"
            f" a relative {rtol}"
        )
    stat = ((observed - expected) ** 2 / expected).sum()
    return float(stat), float(special.chdtrc(observed.size - 1, stat))


# -- exact Poisson total variation --------------------------------------------


def poisson_tv(u: float, lam: float) -> float:
    """Total-variation distance between Poisson(u) and Poisson(lam).

    Computed as half the l1 distance of the pmfs on 0..J plus the tail
    difference, where J is doubled until the two survival functions at J
    sum to at most 1e-12, which then bounds the absolute error.  Rate 0
    denotes the unit mass at zero, so poisson_tv(0, u) = 1 - exp(-u).
    """
    for r in (u, lam):
        if not (r >= 0 and math.isfinite(r)):
            raise ValueError(f"rates must be finite and nonnegative, got {r}")
    if u == lam:
        return 0.0
    hi = max(u, lam)
    j_max = int(hi + 12.0 * math.sqrt(hi + 1.0)) + 30
    while _poisson_sf(j_max, u) + _poisson_sf(j_max, lam) > 1e-12:
        j_max *= 2
    j = np.arange(j_max + 1)
    body = np.abs(_poisson_pmf(j, u) - _poisson_pmf(j, lam)).sum()
    tail = abs(_poisson_sf(j_max, u) - _poisson_sf(j_max, lam))
    return float(min(0.5 * (body + tail), 1.0))


# -- mixed-Poisson degree law -------------------------------------------------

QUAD_NODES = 512
# mixed_poisson_pmf warns when a rule's weights miss more than this much mass
QUAD_MASS_TOL = 1e-9
# nodes are capped at 1e300, where 1 - exp(-x s) for s >= 1e-290, the
# Poisson pmf and its tail have all saturated
_NODE_CAP = 1e300


@functools.lru_cache(maxsize=64)
def _quadrature(marginal: Marginal, size_biased: bool = False, n_nodes: int = QUAD_NODES):
    """Nodes x, weights p: sum(p f(x)) ~ E[f(W)], or E[(W / mu) f(W)] if size_biased.

    A ConstantMarginal is one exact atom.  For a Pareto marginal,
    W = xmin (1 - u)^(-1/(tau - 1)) with 1 - u = t^m makes the expectation
    an integral over t in (0, 1), taken by n_nodes-point Gauss-Legendre;
    m = max(10, ceil(3 (tau - 1) / (tau - 2))) makes even the size-biased
    integrand vanish like t^2 at 0.  Each weight is one power of t, so none
    overflows however large its node.
    """
    if isinstance(marginal, ConstantMarginal):
        return np.array([marginal.value]), np.ones(1)
    tau, xmin = marginal.tau, marginal.xmin
    m = max(10, math.ceil(3.0 * (tau - 1.0) / (tau - 2.0)))
    log_t, g = _legendre(n_nodes)
    nodes = np.exp(np.minimum(math.log(xmin) - m / (tau - 1.0) * log_t, math.log(_NODE_CAP)))
    if size_biased:
        power = m * (tau - 2.0) / (tau - 1.0) - 1.0
        weights = (tau - 2.0) / (tau - 1.0) * m * g * np.exp(power * log_t)
    else:
        weights = m * g * np.exp((m - 1.0) * log_t)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=4)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(log t, weights) of the n-point Gauss-Legendre rule on (0, 1).

    Five Newton steps on P_n(cos theta) from theta = pi (k + 3/4) / (n + 1/2)
    reach rounding; t = sin^2(theta / 2) keeps the nodes near 0 precise, and
    elementwise numpy alone keeps the rule the same on every machine.
    """
    theta = np.pi * (np.arange(n) + 0.75) / (n + 0.5)
    for step in range(6):
        z = np.cos(theta)
        p_prev, p = np.ones(n), z
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * z * p - (k - 1) * p_prev) / k
        slope = n * (z * p - p_prev) / (z * z - 1.0) * np.sin(theta)  # -dP_n/dtheta
        if step < 5:
            theta = theta + p / slope
    return 2.0 * np.log(np.sin(theta / 2.0)), 1.0 / slope**2


def _marginals(model: WeightModel) -> tuple[Marginal, Marginal]:
    """(in, out) marginal laws; both are the capacity law of a mirrored model."""
    if isinstance(model, IndependentProduct):
        return model.marginal_in, model.marginal_out
    return model.capacity, model.capacity


def mixing_pairs(model: WeightModel, size: int = 0, seed: int = 0) -> tuple[np.ndarray, ...]:
    """The rule (w_in, w_out, weights) of the weight-pair law, one node per pair.

    A mirrored model's is its capacity rule, an independent product's the
    outer product of its marginal rules.  ``size`` and ``seed`` are ignored.
    """
    (x_in, p_in), (x_out, p_out) = map(_quadrature, _marginals(model))
    if isinstance(model, MirroredCapacity):
        return x_in, x_out, p_in
    return np.repeat(x_in, x_out.size), np.tile(x_out, x_in.size), np.outer(p_in, p_out).ravel()


def _degenerate(model: WeightModel) -> bool:
    """True when every marginal of the model is a ConstantMarginal."""
    return all(isinstance(m, ConstantMarginal) for m in _marginals(model))


@dataclass(frozen=True)
class Pmf:
    """Joint law of (d_in, d_out) truncated to a square grid.

    masses[j, k] = P(d_in = j, d_out = k) for j, k <= kmax; tail_mass is
    the probability outside the grid, so masses.sum() + tail_mass = 1.
    """

    masses: np.ndarray
    tail_mass: float

    def __post_init__(self):
        if self.masses.ndim != 2 or np.any(self.masses < -1e-15):
            raise ValueError("masses must be a nonnegative 2-d array")
        total = float(self.masses.sum()) + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses plus tail must sum to 1, got {total}")

    @property
    def kmax(self) -> int:
        return self.masses.shape[0] - 1


def mixed_poisson_pmf(model: WeightModel, kmax: int, mc_samples: int = 0, seed: int = 0) -> Pmf:
    """Limiting joint degree pmf E[Poisson(w_in) x Poisson(w_out)].

    A sum over the capacity rule for a mirrored model, the outer product of
    two 1-d pmfs for an independent one.  Warns when a rule misses more
    than QUAD_MASS_TOL of unit mass (a Pareto tau as close to 2 as 2.00001).
    ``mc_samples`` and ``seed`` are accepted for compatibility and ignored.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    k = np.arange(kmax + 1)
    marginals = _marginals(model)
    (x_in, p_in), (x_out, p_out) = map(_quadrature, marginals)
    for marginal in dict.fromkeys(marginals):
        missing = 1.0 - float(_quadrature(marginal)[1].sum())
        if missing > QUAD_MASS_TOL:
            warnings.warn(
                f"the quadrature rule of {marginal!r} misses {missing:.3g} of unit mass;"
                " the limit pmf lacks that much",
                stacklevel=2,
            )
    pois_in = _poisson_pmf(k[None, :], x_in[:, None])
    if isinstance(model, MirroredCapacity):
        joint = (pois_in * p_in[:, None]).T @ pois_in
    else:
        joint = np.outer(p_in @ pois_in, p_out @ _poisson_pmf(k[None, :], x_out[:, None]))
    tail = max(0.0, 1.0 - float(joint.sum()))
    return Pmf(masses=joint, tail_mass=tail)


def mixed_poisson_tail(model: WeightModel, ks: np.ndarray, side: str = "in") -> np.ndarray:
    """Marginal tail P(d >= k) of the limiting in- or out-degree law."""
    if side not in ("in", "out"):
        raise ValueError(f"side must be 'in' or 'out', got {side!r}")
    x, p = _quadrature(_marginals(model)[side == "out"])
    ks = np.asarray(ks, dtype=np.int64)
    return p @ _poisson_sf(ks[None, :] - 1, x[:, None])


# -- degree goodness of fit ---------------------------------------------------


@dataclass(frozen=True)
class DegreeFitResult:
    statistic: float
    threshold: float
    passed: bool
    n: int
    kmax: int
    empirical_tail: float
    model_tail: float


def degree_fit_test(
    g: MultiDigraph,
    model: WeightModel,
    kmax: int = 50,
    threshold: float = 0.01,
    seed: int = 0,
) -> DegreeFitResult:
    """Compare the empirical joint (d_in, d_out) pmf to the mixed-Poisson limit.

    The statistic is the total variation on the truncated grid with all
    overflow lumped into one cell, a lower bound of the full TV.  Degrees
    exclude loops.  The comparison is asymptotic in n; a warning is issued
    for n below 1000.  ``seed`` is accepted for compatibility and ignored.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if g.n < 1000:
        warnings.warn(
            f"degree fit is an asymptotic test; n={g.n} gives little power",
            stacklevel=2,
        )
    arr = degree_arrays(g)
    # cell (i, j) of the (kmax + 2)-square grid, overflow in row and column kmax + 1
    cells = np.minimum(arr.d_in, kmax + 1) * (kmax + 2) + np.minimum(arr.d_out, kmax + 1)
    emp = np.bincount(cells, minlength=(kmax + 2) ** 2).reshape(kmax + 2, kmax + 2) / g.n
    emp_grid = emp[: kmax + 1, : kmax + 1]
    emp_tail = float(1.0 - emp_grid.sum())
    theory = mixed_poisson_pmf(model, kmax)
    statistic = 0.5 * (
        float(np.abs(emp_grid - theory.masses).sum()) + abs(emp_tail - theory.tail_mass)
    )
    return DegreeFitResult(
        statistic=statistic,
        threshold=threshold,
        passed=statistic < threshold,
        n=g.n,
        kmax=kmax,
        empirical_tail=emp_tail,
        model_tail=theory.tail_mass,
    )


# -- conditional degree rates at fixed weights --------------------------------


@dataclass(frozen=True)
class ConditionalDegreeParams:
    """Poisson rates of (d_in, d_out, total degree) of one vertex given weights.

    Forced by the arc law: d_in(v) sums Poisson arcs from all u != v, so its
    rate is w_in(v) (sum w_out - w_out(v)) / L; symmetrically for d_out; the
    total adds the loop rate w_in(v) w_out(v) / L once.
    """

    lam_in: float
    lam_out: float
    lam_total: float


def conditional_degree_params(
    w: WeightSequence, l_n: float, v: int
) -> ConditionalDegreeParams:
    if not (l_n > 0 and math.isfinite(l_n)):
        raise ValueError(f"normalizer must be positive and finite, got {l_n}")
    if not 1 <= v <= w.n:
        raise ValueError(f"vertex {v} out of range 1..{w.n}")
    w_in, w_out = float(w.w_in[v - 1]), float(w.w_out[v - 1])
    lam_in = w_in * (w.sum_out - w_out) / l_n
    lam_out = w_out * (w.sum_in - w_in) / l_n
    lam_total = lam_in + lam_out + w_in * w_out / l_n
    return ConditionalDegreeParams(lam_in=lam_in, lam_out=lam_out, lam_total=lam_total)


# -- dependence between tracked vertices --------------------------------------


@dataclass(frozen=True)
class IndependenceResult:
    statistic: float
    n: int
    k: int
    pairwise: dict = field(repr=False)


def independence_test(
    model: WeightModel,
    n: int,
    k: int,
    seed: int = 0,
) -> IndependenceResult:
    """Exact dependence between the joint degrees of k tracked vertices.

    Weights are realized once from ``seed``, and L = mu n.  ``pairwise``
    maps each pair (i, j) of vertices 1..k to the TV between the joint law
    of X_i = (d_in(i), d_out(i)) and X_j, loops left out, and the product
    of their laws; the statistic is the maximum over pairs.

    Given the weights, d_out(i) and d_in(j) share the arc count A_ij and
    d_in(i) and d_out(j) share A_ji; the four remainders are independent
    Poissons that absorb the other tracked vertices.  So the joint law is
    F(d_out(i), d_in(j)) G(d_in(i), d_out(j)), and the TV is a finite sum.
    Each of the six counts is cut where both its tails are below 1e-16,
    which bounds the absolute error by 2e-15, beside rounding.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    w = sample_weights(model, n, seed)
    l_n = moments(model).mu * n
    pairwise = {}
    for i in range(k):
        for j in range(i + 1, k):
            (in_i, in_j), (out_i, out_j) = w.w_in[[i, j]], w.w_out[[i, j]]
            in_rest, out_rest = w.sum_in - in_i - in_j, w.sum_out - out_i - out_j
            # (shared, left, right) rates of (d_out(i), d_in(j)) and of (d_in(i), d_out(j))
            f = _shared_count_law(np.array([out_i * in_j, out_i * in_rest, in_j * out_rest]) / l_n)
            g = _shared_count_law(np.array([out_j * in_i, in_i * out_rest, out_j * in_rest]) / l_n)
            pairwise[(i + 1, j + 1)] = _product_tv(f, g)
    return IndependenceResult(max(pairwise.values(), default=0.0), n, k, pairwise)


def _shared_count_law(rates: np.ndarray) -> np.ndarray:
    """Joint pmf of (S + X, S + Y) for independent Poisson S, X, Y of these rates."""
    # Bernstein: Poisson(r) has at most exp(-c) = 1e-16 below r - sqrt(2 c r)
    # and above r + t, where t^2 = 2 c (r + t / 3)
    c = 16.0 * math.log(10.0)
    lo = np.floor(np.maximum(rates - np.sqrt(2.0 * c * rates), 0.0))
    hi = np.ceil(rates + c / 3.0 + np.sqrt(c * c / 9.0 + 2.0 * c * rates))
    ps, px, py = (_poisson_pmf(np.arange(a, b + 1), r) for a, b, r in zip(lo, hi, rates))
    law = np.zeros((ps.size + px.size - 1, ps.size + py.size - 1))
    for shift, mass in enumerate(ps):
        law[shift : shift + px.size, shift : shift + py.size] += mass * np.outer(px, py)
    return law


def _product_tv(f: np.ndarray, g: np.ndarray) -> float:
    """TV between f (x) g and the product of the four marginals of the 2-d pmfs f and g.

    With p and q the products of the marginals of f and g, 2 TV is the sum
    of |f g - p q| over pairs of cells.  Summed over the cells of g, it is
    p (2 Q_lo - Q) - f (2 G_lo - G), where Q_lo and G_lo add up q and g over
    the cells with g / q < p / f: one sort of g / q serves every cell of f.
    """
    p, q = (np.outer(t.sum(axis=1), t.sum(axis=0)).ravel() for t in (f, g))
    f, g = f.ravel(), g.ravel()
    s = np.divide(g, q, out=np.zeros_like(q), where=q > 0)  # g = 0 wherever q = 0
    order = np.argsort(s)
    cum_q, cum_g = (np.concatenate([[0.0], np.cumsum(v[order])]) for v in (q, g))
    lo = np.searchsorted(s[order], np.divide(p, f, out=np.full_like(p, np.inf), where=f > 0))
    return 0.5 * float((p * (2 * cum_q[lo] - cum_q[-1]) - f * (2 * cum_g[lo] - cum_g[-1])).sum())


# -- loop totals --------------------------------------------------------------


@dataclass(frozen=True)
class LoopTestResult:
    observed_mean: float
    expected_mean: float
    z: float
    chi2_pvalue: float
    passed: bool
    reps: int


def loop_test(model: WeightModel, n: int, reps: int = 10_000, seed: int = 0) -> LoopTestResult:
    """Total loop count over independent graphs against Poisson(rho / mu).

    Each replicate redraws weights and the loop total, whose conditional
    law is Poisson(sum w_in w_out / L) with L = mu n; the within-replicate
    off-diagonal arcs never contribute and are not sampled.  Passes when the
    chi-square p-value is at least ``LOOP_ALPHA`` and |z| <= 3.  Refuses
    models with rho = E[w_in w_out] infinite, where no limit law exists.
    """
    mom = moments(model)
    if not math.isfinite(mom.rho):
        raise ValueError(
            "E[w_in * w_out] is infinite for this model (mirrored tail exponent"
            " tau <= 3); the loop total has no limiting Poisson law"
        )
    expected = mom.rho / mom.mu
    l_n = mom.mu * n
    rng = stream(seed, "loop-test")
    totals = np.empty(reps, dtype=np.int64)
    if _degenerate(model):
        w = WeightSequence(*_pairs_from_uniforms(model, np.zeros((n, 2))))
        rate = w.sum_products / l_n
        totals[:] = rng.poisson(rate, size=reps)
    else:
        chunk = max(1, 2_000_000 // n)
        for lo in range(0, reps, chunk):
            hi = min(reps, lo + chunk)
            u = rng.random((hi - lo, n, 2))
            rates = np.empty(hi - lo)
            for r in range(hi - lo):
                w = WeightSequence(*_pairs_from_uniforms(model, u[r]))
                rates[r] = w.sum_products / l_n
            totals[lo:hi] = rng.poisson(rates)
    chi2 = poisson_chisquare(totals, expected)
    sd = float(totals.std(ddof=1)) if reps > 1 else float("nan")
    z = (float(totals.mean()) - expected) / (sd / math.sqrt(reps)) if sd > 0 else 0.0
    return LoopTestResult(
        observed_mean=float(totals.mean()),
        expected_mean=expected,
        z=float(z),
        chi2_pvalue=chi2.pvalue,
        passed=chi2.pvalue >= LOOP_ALPHA and abs(z) <= 3.0,
        reps=reps,
    )


# -- chi-square and empirical-TV helpers --------------------------------------


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    pvalue: float
    dof: int
    bins: int


def poisson_chisquare(samples: np.ndarray, rate: float) -> ChiSquareResult:
    """Chi-square test of integer samples against Poisson(rate).

    Cells are merged left to right until each expected count reaches
    ``MIN_EXPECTED``; the final cell absorbs the upper tail.
    """
    samples = np.asarray(samples, dtype=np.int64)
    r = samples.size
    if r == 0:
        raise ValueError("need at least one sample")
    j_max = int(samples.max())
    observed = np.bincount(samples, minlength=j_max + 1).astype(np.float64)
    probs = _poisson_pmf(np.arange(j_max + 1), rate)
    tail = float(_poisson_sf(j_max, rate))
    obs_bins: list[float] = []
    p_bins: list[float] = []
    acc_o = acc_p = 0.0
    for o, p in zip(observed, probs):
        acc_o += o
        acc_p += p
        if acc_p * r >= MIN_EXPECTED:
            obs_bins.append(acc_o)
            p_bins.append(acc_p)
            acc_o = acc_p = 0.0
    # remainder plus the analytic tail go into the last bin
    acc_p += tail
    if obs_bins and acc_p * r < MIN_EXPECTED:
        obs_bins[-1] += acc_o
        p_bins[-1] += acc_p
    else:
        obs_bins.append(acc_o)
        p_bins.append(acc_p)
    if len(obs_bins) < 2:
        raise ValueError(f"rate {rate} leaves fewer than two cells at this sample size")
    stat, pvalue = _chisquare(obs_bins, np.array(p_bins) * r)
    return ChiSquareResult(
        statistic=stat, pvalue=pvalue, dof=len(obs_bins) - 1, bins=len(obs_bins)
    )


def product_poisson_chisquare(samples: np.ndarray, rates: np.ndarray) -> ChiSquareResult:
    """Chi-square of joint integer vectors against a product-Poisson law.

    ``samples`` has shape (r, k); cell probabilities are products of the
    coordinate pmfs on a grid covering all but 1e-9 of the mass, with all
    low-expectation cells and the off-grid remainder merged into one bin.
    """
    samples = np.asarray(samples, dtype=np.int64)
    if samples.ndim != 2:
        raise ValueError("samples must have shape (r, k)")
    r, k = samples.shape
    rates = np.asarray(rates, dtype=np.float64)
    if rates.shape != (k,):
        raise ValueError(f"rates must have shape ({k},)")
    uppers = [int(_poisson_isf(1e-9 / k, rate)) + 1 for rate in rates]
    grid_p = np.ones(1)
    for rate, upper in zip(rates, uppers):
        grid_p = np.multiply.outer(grid_p, _poisson_pmf(np.arange(upper + 1), rate))
    grid_p = grid_p.reshape(-1)
    in_grid = np.all(samples <= np.array(uppers), axis=1)
    codes = np.zeros(r, dtype=np.int64)
    for c, upper in enumerate(uppers):
        codes = codes * (upper + 1) + np.minimum(samples[:, c], upper)
    observed = np.bincount(codes[in_grid], minlength=grid_p.size).astype(np.float64)
    rest_obs = float(r - observed.sum())
    keep = grid_p * r >= MIN_EXPECTED
    rest_p = float(1.0 - grid_p[keep].sum())
    rest_obs += float(observed[~keep].sum())
    obs_bins = np.append(observed[keep], rest_obs)
    p_bins = np.append(grid_p[keep], rest_p)
    if p_bins[-1] * r < MIN_EXPECTED and p_bins.size > 1:
        p_bins[-2] += p_bins[-1]
        obs_bins[-2] += obs_bins[-1]
        obs_bins, p_bins = obs_bins[:-1], p_bins[:-1]
    if p_bins.size < 2:
        raise ValueError("fewer than two cells left after merging")
    stat, pvalue = _chisquare(obs_bins, p_bins * r)
    return ChiSquareResult(statistic=stat, pvalue=pvalue, dof=p_bins.size - 1, bins=p_bins.size)


def empirical_tv(xs: np.ndarray, ys: np.ndarray) -> float:
    """Total variation between the empirical pmfs of two integer samples."""
    xs = np.asarray(xs).reshape(-1)
    ys = np.asarray(ys).reshape(-1)
    values = np.union1d(xs, ys)
    px = np.bincount(np.searchsorted(values, xs), minlength=values.size) / xs.size
    py = np.bincount(np.searchsorted(values, ys), minlength=values.size) / ys.size
    return 0.5 * float(np.abs(px - py).sum())
