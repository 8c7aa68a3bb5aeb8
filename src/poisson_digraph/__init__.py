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

from .analysis import (
    ConditionalDegreeParams,
    DegreeFitResult,
    IndependenceResult,
    LoopTestResult,
    Pmf,
    conditional_degree_params,
    degree_fit_test,
    empirical_tv,
    independence_test,
    loop_test,
    mixed_poisson_pmf,
    mixed_poisson_tail,
    mixing_pairs,
    poisson_chisquare,
    poisson_tv,
    product_poisson_chisquare,
)
from .branching import (
    CONFIGURATIONS,
    SurvivalReport,
    solve_extinction,
    survival_fractions,
)
from .digraph import MultiDigraph, edge_list_text, read_edge_list, write_edge_list
from .sampler import (
    SumParts,
    evolve,
    evolve_chain,
    independent_sum_parts,
    oriented_sum_parts,
    sample_graph_fast,
    sample_graph_naive,
    sample_independent_sum,
    sample_oriented_sum,
    sample_randomly_oriented_nr,
)
from .scaling import (
    ScalingResult,
    SlopeFit,
    assert_critical,
    scaling_exponent_experiment,
    theoretical_alpha,
)
from .streams import derive_seed, stream
from .structure import (
    ComponentSummary,
    backward_cluster_size,
    backward_cluster_sizes,
    component_summary,
    degree_arrays,
    forward_cluster_size,
    forward_cluster_sizes,
    strong_components,
    weak_components,
)
from .verify import CheckResult, check_graph_against_model, run_suite
from .weights import (
    Constant,
    ConstantMarginal,
    IndependentProduct,
    Marginal,
    MirroredCapacity,
    Moments,
    NormalizerMode,
    ParetoMarginal,
    ParetoMirrored,
    WeightSequence,
    capacity_marginal,
    critical_pareto_mirrored,
    is_mirrored,
    model_from_json,
    model_to_json,
    moments,
    normalizer,
    parse_model,
    sample_weights,
)

__all__ = [
    "__version__",
    # weights
    "Constant",
    "ConstantMarginal",
    "IndependentProduct",
    "Marginal",
    "MirroredCapacity",
    "Moments",
    "NormalizerMode",
    "ParetoMarginal",
    "ParetoMirrored",
    "WeightSequence",
    "capacity_marginal",
    "critical_pareto_mirrored",
    "is_mirrored",
    "model_from_json",
    "model_to_json",
    "moments",
    "normalizer",
    "parse_model",
    "sample_weights",
    # streams
    "derive_seed",
    "stream",
    # graphs
    "MultiDigraph",
    "edge_list_text",
    "read_edge_list",
    "write_edge_list",
    # samplers
    "SumParts",
    "evolve",
    "evolve_chain",
    "independent_sum_parts",
    "oriented_sum_parts",
    "sample_graph_fast",
    "sample_graph_naive",
    "sample_independent_sum",
    "sample_oriented_sum",
    "sample_randomly_oriented_nr",
    # structure
    "ComponentSummary",
    "backward_cluster_size",
    "backward_cluster_sizes",
    "component_summary",
    "degree_arrays",
    "forward_cluster_size",
    "forward_cluster_sizes",
    "strong_components",
    "weak_components",
    # analysis
    "ConditionalDegreeParams",
    "DegreeFitResult",
    "IndependenceResult",
    "LoopTestResult",
    "Pmf",
    "conditional_degree_params",
    "degree_fit_test",
    "empirical_tv",
    "independence_test",
    "loop_test",
    "mixed_poisson_pmf",
    "mixed_poisson_tail",
    "mixing_pairs",
    "poisson_chisquare",
    "poisson_tv",
    "product_poisson_chisquare",
    # branching
    "CONFIGURATIONS",
    "SurvivalReport",
    "solve_extinction",
    "survival_fractions",
    # scaling
    "ScalingResult",
    "SlopeFit",
    "assert_critical",
    "scaling_exponent_experiment",
    "theoretical_alpha",
    # verify
    "CheckResult",
    "check_graph_against_model",
    "run_suite",
]
