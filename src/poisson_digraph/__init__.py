"""Conditionally Poissonian random digraphs.

Given weights (w_in, w_out) per vertex and a normalizer L, every ordered
pair (v, u) of the vertex set, the diagonal included, independently
carries Poisson(w_out(v) w_in(u) / L) arcs.  The package samples this
law in linear time, grows graphs vertex by vertex through thinning,
analyses degrees and components, and evaluates the limiting predictions
(mixed-Poisson degrees, loop counts, survival fractions, critical
cluster scaling) they converge to.
"""

__version__ = "0.1.0"

# each module's __all__ is the one list of what it makes public
from . import analysis, branching, digraph, sampler, scaling, streams, structure, verify, weights
from .analysis import *
from .branching import *
from .digraph import *
from .sampler import *
from .scaling import *
from .streams import *
from .structure import *
from .verify import *
from .weights import *

__all__ = [
    "__version__",
    *weights.__all__,
    *streams.__all__,
    *digraph.__all__,
    *sampler.__all__,
    *structure.__all__,
    *analysis.__all__,
    *branching.__all__,
    *scaling.__all__,
    *verify.__all__,
]
