"""Uniform-solution sampling, explicit solution paths, and looseness
certification for random and bounded-degree k-CNFs, checked against a
brute-force enumeration oracle at desk scale."""

from .errors import (
    CapExceededError,
    DomainError,
    InfeasiblePinningError,
    KsatError,
    RegimeError,
    UsageError,
)
from .formula import (
    Formula,
    Literal,
    clause_graph_components,
    connected_component,
    emit_dimacs,
    enumerate_solutions,
    generate_random_kcnf,
    hamming,
    is_satisfying,
    parse_dimacs,
)
from .classify import Classification, classify, good_induced_formula
from .marking import Marking, find_marking, verify_marking
from .marginals import (
    check_local_uniformity,
    exact_marginal,
    sample_conditional,
    tree_excess,
)
from .sampler import (
    SamplerConfig,
    check_chain_uniformity,
    estimate_tv,
    run_block_dynamics,
)
from .paths import SolutionPath, find_path_bounded, find_path_random, validate_path
from .coupling import coupling_influence_bound, exact_influence_matrix, run_coupling
from .geometry import (
    certify_loose,
    check_flippable_all,
    extract_two_tree,
    greenblue_select,
    looseness_report,
    solution_graph,
    verify_dtree_membership,
)

__all__ = [
    "CapExceededError",
    "DomainError",
    "InfeasiblePinningError",
    "KsatError",
    "RegimeError",
    "UsageError",
    "Formula",
    "Literal",
    "clause_graph_components",
    "connected_component",
    "emit_dimacs",
    "enumerate_solutions",
    "generate_random_kcnf",
    "hamming",
    "is_satisfying",
    "parse_dimacs",
    "Classification",
    "classify",
    "good_induced_formula",
    "Marking",
    "find_marking",
    "verify_marking",
    "exact_marginal",
    "sample_conditional",
    "check_local_uniformity",
    "tree_excess",
    "SamplerConfig",
    "run_block_dynamics",
    "estimate_tv",
    "check_chain_uniformity",
    "SolutionPath",
    "find_path_bounded",
    "find_path_random",
    "validate_path",
    "run_coupling",
    "exact_influence_matrix",
    "coupling_influence_bound",
    "certify_loose",
    "looseness_report",
    "solution_graph",
    "check_flippable_all",
    "extract_two_tree",
    "greenblue_select",
    "verify_dtree_membership",
]

__version__ = "0.1.0"
