"""Vertex weight models, weight sequences and arc-rate normalizers.

A weight model describes the law of the per-vertex weight pair
(w_in, w_out).  The sampled graph then places, independently for every
ordered vertex pair (v, u) including the diagonal, a Poisson number of arcs
with rate w_out(v) * w_in(u) / L_N, where L_N is the normalizer.

Pareto convention used throughout: ``tau`` is the density exponent, so the
tail is P(W > x) = (x / xmin) ** -(tau - 1) for x >= xmin.  The mean is
finite for tau > 2 and the second moment for tau > 3.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .streams import stream

__all__ = [
    "ConstantMarginal",
    "ParetoMarginal",
    "Marginal",
    "Constant",
    "IndependentProduct",
    "MirroredCapacity",
    "ParetoMirrored",
    "WeightModel",
    "Moments",
    "WeightSequence",
    "NormalizerMode",
    "moments",
    "sample_weights",
    "normalizer",
    "critical_pareto_mirrored",
    "model_to_json",
    "model_from_json",
    "parse_model",
]

_REL_TOL = 1e-9


# -- marginal laws ------------------------------------------------------------


@dataclass(frozen=True)
class ConstantMarginal:
    """Degenerate marginal: every draw equals ``value``."""

    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError(f"constant weight must be positive and finite, got {self.value}")

    def mean(self) -> float:
        return self.value

    def second_moment(self) -> float:
        return self.value**2

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.full(np.shape(u), self.value, dtype=np.float64)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) >= self.value).astype(np.float64)


@dataclass(frozen=True)
class ParetoMarginal:
    """Pareto marginal with density exponent tau and scale xmin.

    P(W > x) = (x / xmin) ** -(tau - 1) for x >= xmin.
    """

    tau: float
    xmin: float = 1.0

    def __post_init__(self):
        if not (self.tau > 2):
            raise ValueError(f"tau must exceed 2 for a finite mean, got {self.tau}")
        if not (self.xmin > 0 and math.isfinite(self.xmin)):
            raise ValueError(f"xmin must be positive and finite, got {self.xmin}")

    def mean(self) -> float:
        return (self.tau - 1) * self.xmin / (self.tau - 2)

    def second_moment(self) -> float:
        if self.tau <= 3:
            return math.inf
        return (self.tau - 1) * self.xmin**2 / (self.tau - 3)

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        # inverse tail transform; 1 - u lies in (0, 1] so the result is finite
        return self.xmin * (1.0 - np.asarray(u, dtype=np.float64)) ** (-1.0 / (self.tau - 1))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = 1.0 - (x / self.xmin) ** (-(self.tau - 1))
        return np.where(x < self.xmin, 0.0, out)


Marginal = ConstantMarginal | ParetoMarginal


# -- weight models ------------------------------------------------------------


@dataclass(frozen=True)
class IndependentProduct:
    """Independent in- and out-weight marginals with a common mean."""

    marginal_in: Marginal
    marginal_out: Marginal

    def __post_init__(self):
        mi, mo = self.marginal_in.mean(), self.marginal_out.mean()
        if not math.isclose(mi, mo, rel_tol=_REL_TOL):
            raise ValueError(
                f"independent-product marginals must share a mean, got {mi} vs {mo}"
            )


@dataclass(frozen=True)
class MirroredCapacity:
    """w_in = w_out = capacity draw, a single marginal per vertex.

    With mirrored weights and the capacity-sum normalizer this is the
    Norros-Reittu capacity model oriented into a digraph.
    """

    capacity: Marginal


def Constant(c: float) -> MirroredCapacity:
    """Both weights equal c at every vertex."""
    return MirroredCapacity(ConstantMarginal(c))


def ParetoMirrored(tau: float, xmin: float = 1.0) -> MirroredCapacity:
    """Mirrored Pareto capacities with density exponent tau and scale xmin."""
    return MirroredCapacity(ParetoMarginal(tau, xmin))


WeightModel = IndependentProduct | MirroredCapacity


def critical_pareto_mirrored(tau: float) -> MirroredCapacity:
    """Mirrored Pareto model rescaled so E[W^2] / E[W] = 1.

    Requires tau > 3; the tuning constant is xmin = (tau - 3) / (tau - 2).
    """
    if not tau > 3:
        raise ValueError(f"criticality needs a finite second moment (tau > 3), got {tau}")
    return ParetoMirrored(tau=tau, xmin=(tau - 3) / (tau - 2))


# -- moments ------------------------------------------------------------------


@dataclass(frozen=True)
class Moments:
    """First and second moments of the weight pair.

    mu is the common mean of w_in and w_out, nu_in / nu_out the second
    moments (may be inf), rho = E[w_in * w_out].
    """

    mu: float
    nu_in: float
    nu_out: float
    rho: float


def moments(model: WeightModel) -> Moments:
    """Exact moments of a weight model from the marginal formulas."""
    if isinstance(model, IndependentProduct):
        mu = model.marginal_in.mean()
        return Moments(
            mu=mu,
            nu_in=model.marginal_in.second_moment(),
            nu_out=model.marginal_out.second_moment(),
            rho=model.marginal_in.mean() * model.marginal_out.mean(),
        )
    if isinstance(model, MirroredCapacity):
        cap = model.capacity
        nu = cap.second_moment()
        return Moments(mu=cap.mean(), nu_in=nu, nu_out=nu, rho=nu)
    raise TypeError(f"unknown weight model {model!r}")


# -- weight sequences ---------------------------------------------------------


class WeightSequence:
    """Realized weight pairs for vertices 1..n with cached aggregate sums."""

    def __init__(self, w_in: np.ndarray, w_out: np.ndarray):
        w_in = np.asarray(w_in, dtype=np.float64)
        w_out = np.asarray(w_out, dtype=np.float64)
        if w_in.ndim != 1 or w_in.shape != w_out.shape:
            raise ValueError("w_in and w_out must be 1-d arrays of equal length")
        if w_in.size == 0:
            raise ValueError("weight sequence must be nonempty")
        sides = (w_in,) if w_in is w_out else (w_in, w_out)
        if not all(np.all(np.isfinite(w)) for w in sides):
            raise ValueError("weights must be finite")
        if any(np.any(w <= 0) for w in sides):
            raise ValueError("weights must be positive")
        self.w_in = w_in
        self.w_out = w_out
        self.sum_in = float(w_in.sum())
        self.sum_out = self.sum_in if w_in is w_out else float(w_out.sum())
        self.sum_products = float((w_in * w_out).sum())

    @property
    def n(self) -> int:
        return self.w_in.size

    def prefix(self, n: int) -> "WeightSequence":
        """The first n pairs as a new sequence."""
        if not 1 <= n <= self.n:
            raise ValueError(f"prefix length {n} out of range 1..{self.n}")
        return WeightSequence(self.w_in[:n], self.w_out[:n])

    def is_mirrored(self) -> bool:
        return self.w_in is self.w_out or bool(np.array_equal(self.w_in, self.w_out))

    def __repr__(self) -> str:
        return f"WeightSequence(n={self.n}, sum_in={self.sum_in:.6g}, sum_out={self.sum_out:.6g})"


def sample_weights(model: WeightModel, n: int, seed: int) -> WeightSequence:
    """Draw the weight pairs of vertices 1..n.

    The draw is prefix stable: pair i depends only on (model, seed, i), so
    enlarging n extends the sequence without changing earlier pairs.

    Parameters
    ----------
    model : WeightModel
    n : int
        Number of vertices, n >= 1.
    seed : int

    Returns
    -------
    WeightSequence
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # each vertex consumes exactly one row of uniforms regardless of model,
    # which is what makes prefixes stable across n
    u = stream(seed, "weights").random((n, 2))
    return WeightSequence(*_pairs_from_uniforms(model, u))


def _pairs_from_uniforms(model: WeightModel, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w_in, w_out) from an (m, 2) array of uniforms, one row per pair.

    Column 0 drives w_in (the capacity of a mirrored model) and column 1
    drives w_out; a mirrored model returns the same array twice.
    """
    if isinstance(model, IndependentProduct):
        return model.marginal_in.from_uniform(u[:, 0]), model.marginal_out.from_uniform(u[:, 1])
    if isinstance(model, MirroredCapacity):
        cap = model.capacity.from_uniform(u[:, 0])
        return cap, cap
    raise TypeError(f"unknown weight model {model!r}")


# -- normalizers --------------------------------------------------------------


class NormalizerMode(enum.Enum):
    """How L_N is formed from the weight sequence."""

    DETERMINISTIC_MU_N = "mu-n"
    EMPIRICAL_PRODUCT = "empirical"
    CAPACITY_SUM = "capacity-sum"


def normalizer(w: WeightSequence, mu: float, mode: NormalizerMode) -> float:
    """The arc-rate normalizer L_N for a realized weight sequence.

    mu-n gives L_N = mu * N; empirical gives (sum w_out)(sum w_in) / (mu N),
    which makes the realized mean arc count exact; capacity-sum gives
    L_N = sum of capacities and requires a mirrored sequence.

    Raises
    ------
    ValueError
        If mu is not positive, or capacity-sum is requested for a sequence
        with w_in != w_out.
    """
    if not (mu > 0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if mode is NormalizerMode.DETERMINISTIC_MU_N:
        return mu * w.n
    if mode is NormalizerMode.EMPIRICAL_PRODUCT:
        return w.sum_out * w.sum_in / (mu * w.n)
    if mode is NormalizerMode.CAPACITY_SUM:
        if not w.is_mirrored():
            raise ValueError("capacity-sum normalizer needs mirrored weights (w_in == w_out)")
        return w.sum_in
    raise TypeError(f"unknown normalizer mode {mode!r}")


# -- JSON and compact-string forms --------------------------------------------


def _marginal_to_dict(m: Marginal) -> dict:
    if isinstance(m, ConstantMarginal):
        return {"kind": "constant", "c": m.value}
    return {"kind": "pareto", "tau": m.tau, "xmin": m.xmin}


def _marginal_from_dict(d: dict) -> Marginal:
    kind = d.get("kind")
    if kind == "constant":
        _expect_keys(d, {"kind", "c"})
        return ConstantMarginal(float(d["c"]))
    if kind == "pareto":
        _expect_keys(d, {"kind", "tau", "xmin"}, optional={"xmin"})
        return ParetoMarginal(float(d["tau"]), float(d.get("xmin", 1.0)))
    raise ValueError(f"unknown marginal kind {kind!r}")


def _expect_keys(d: dict, allowed: set, optional: set = frozenset()) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)} in {d!r}")
    missing = allowed - optional - set(d)
    if missing:
        raise ValueError(f"missing fields {sorted(missing)} in {d!r}")


# a mirrored model is written as the dict of its capacity marginal under
# the model kind; "mirrored-capacity" and "oriented-nr" are input aliases
_MIRRORED_KIND = {"constant": "constant", "pareto": "pareto-mirrored"}
_MARGINAL_KIND = {v: k for k, v in _MIRRORED_KIND.items()}
_CAPACITY_ALIASES = ("mirrored-capacity", "oriented-nr")


def model_to_json(model: WeightModel) -> str:
    """Serialize a model to a canonical one-line JSON object."""
    if isinstance(model, IndependentProduct):
        obj = {
            "kind": "independent-product",
            "marginal_in": _marginal_to_dict(model.marginal_in),
            "marginal_out": _marginal_to_dict(model.marginal_out),
        }
    elif isinstance(model, MirroredCapacity):
        obj = _marginal_to_dict(model.capacity)
        obj["kind"] = _MIRRORED_KIND[obj["kind"]]
    else:
        raise TypeError(f"unknown weight model {model!r}")
    return json.dumps(obj, sort_keys=True)


def model_from_json(text: str) -> WeightModel:
    """Parse a model from its JSON form; unknown fields are rejected."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError("model JSON must be an object")
    kind = d.get("kind")
    if kind in _MARGINAL_KIND:
        return MirroredCapacity(_marginal_from_dict({**d, "kind": _MARGINAL_KIND[kind]}))
    if kind in _CAPACITY_ALIASES:
        _expect_keys(d, {"kind", "capacity"})
        return MirroredCapacity(_marginal_from_dict(d["capacity"]))
    if kind == "independent-product":
        _expect_keys(d, {"kind", "marginal_in", "marginal_out"})
        return IndependentProduct(
            _marginal_from_dict(d["marginal_in"]),
            _marginal_from_dict(d["marginal_out"]),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def _parse_marginal_compact(text: str) -> Marginal:
    head, _, rest = text.partition(":")
    if head == "constant":
        return ConstantMarginal(float(rest))
    if head == "pareto":
        parts = rest.split(",")
        if len(parts) not in (1, 2):
            raise ValueError(f"pareto takes tau[,xmin], got {rest!r}")
        return ParetoMarginal(float(parts[0]), float(parts[1]) if len(parts) == 2 else 1.0)
    raise ValueError(f"unknown marginal {text!r}")


def parse_model(text: str) -> WeightModel:
    """Parse either a JSON object or a compact form like 'pareto-mirrored:3.5,1'.

    Compact forms:
        constant:C
        pareto-mirrored:TAU[,XMIN]
        mirrored-capacity:MARGINAL     e.g. mirrored-capacity:pareto:3.5,1
        oriented-nr:MARGINAL           (alias of mirrored-capacity)
        independent-product:MARGINAL|MARGINAL   (in side first)
    """
    text = text.strip()
    if text.startswith("{"):
        return model_from_json(text)
    head, _, rest = text.partition(":")
    if head in _MARGINAL_KIND:
        return MirroredCapacity(_parse_marginal_compact(f"{_MARGINAL_KIND[head]}:{rest}"))
    if head in _CAPACITY_ALIASES:
        return MirroredCapacity(_parse_marginal_compact(rest))
    if head == "independent-product":
        sides = rest.split("|")
        if len(sides) != 2:
            raise ValueError("independent-product takes two '|'-separated marginals")
        return IndependentProduct(
            _parse_marginal_compact(sides[0]), _parse_marginal_compact(sides[1])
        )
    raise ValueError(f"cannot parse model {text!r}")
