"""Patrol strategies and defense placement for stochastic surveillance games.

A patroller moves on a graph according to a Markov chain; an omniscient
attacker picks the node and moment that minimize the probability of being
caught within that node's attack duration.  This package synthesizes the
equalizing strategies for complete, complete bipartite, and star graphs,
evaluates exact capture probabilities through the first-hitting-time
recursion, optimally allocates integer defense budgets, and ships the
oracles (exhaustive search, local search, Monte Carlo) that verify every
closed form at desk scale.
"""

from .allocation import (
    AllocationResult,
    allocate,
    allocate_bipartite_side,
    allocate_complete,
    bipartite_side_value,
    co_optimize_bipartite,
    complete_allocation_value,
)
from .errors import (
    BudgetOutOfRange,
    DimensionMismatch,
    InfeasibleTau,
    InvalidSpec,
    NotIrreducible,
    ParityError,
    PatrolGameError,
    SearchSpaceExceeded,
    TrivialGame,
    Unsupported,
)
from .graphs import (
    FeasibilityReport,
    GraphTopology,
    build_bipartite,
    build_complete,
    build_general,
    build_graph,
    build_star,
    eccentricities,
    is_strongly_connected,
    min_full_tour_length,
    validate_attack_durations,
)
from .markov import (
    CaptureReport,
    SimulationReport,
    capture_probability,
    check_transition_matrix,
    simulate_capture,
    stationary_distribution,
)
from .oracles import (
    BoundSuiteConfig,
    CheckResult,
    OracleReport,
    SuiteReport,
    allocation_agreement_suite,
    bound_suite,
    exhaustive_allocation,
    exhaustive_side_allocation,
    local_search_strategy,
    monte_carlo_suite,
    partitions,
)
from .synthesis import (
    BaselineResult,
    BoundReport,
    StrategyResult,
    capture_upper_bound,
    generic_capture_bound,
    solve_equalized_value,
    solve_equalized_values,
    synthesize,
    synthesize_bipartite,
    synthesize_complete,
    synthesize_star,
    uniform_bipartite_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "BaselineResult",
    "BoundReport",
    "BoundSuiteConfig",
    "BudgetOutOfRange",
    "CaptureReport",
    "CheckResult",
    "DimensionMismatch",
    "FeasibilityReport",
    "GraphTopology",
    "InfeasibleTau",
    "InvalidSpec",
    "NotIrreducible",
    "OracleReport",
    "ParityError",
    "PatrolGameError",
    "SearchSpaceExceeded",
    "SimulationReport",
    "StrategyResult",
    "SuiteReport",
    "TrivialGame",
    "Unsupported",
    "allocate",
    "allocate_bipartite_side",
    "allocate_complete",
    "allocation_agreement_suite",
    "bipartite_side_value",
    "bound_suite",
    "build_bipartite",
    "build_complete",
    "build_general",
    "build_graph",
    "build_star",
    "capture_probability",
    "capture_upper_bound",
    "check_transition_matrix",
    "co_optimize_bipartite",
    "complete_allocation_value",
    "eccentricities",
    "exhaustive_allocation",
    "exhaustive_side_allocation",
    "generic_capture_bound",
    "is_strongly_connected",
    "local_search_strategy",
    "min_full_tour_length",
    "monte_carlo_suite",
    "partitions",
    "simulate_capture",
    "solve_equalized_value",
    "solve_equalized_values",
    "stationary_distribution",
    "synthesize",
    "synthesize_bipartite",
    "synthesize_complete",
    "synthesize_star",
    "uniform_bipartite_baseline",
    "validate_attack_durations",
]
