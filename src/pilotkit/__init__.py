"""Pilot assignment toolkit for cell-free massive MIMO.

Models systems of distributed access points serving users, evaluates
uplink rates and the pilot-contamination objective, converts instances
to and from weighted-graph Min-k-Partition form with objective-value
preservation, and solves assignments exactly (desk scale) or
heuristically.
"""

from .objective import (
    ContaminationReport,
    co_pilot_set,
    contamination_objective,
    contamination_report,
    interference_matrix,
    pairwise_interference,
)
from .reductions import (
    InvalidPartitionError,
    MeasureEqualityReport,
    Partition,
    WeightedGraph,
    coloring_to_mkp,
    graphs_equal,
    mkp_objective,
    mkp_solution_to_pa,
    mkp_to_pa,
    pa_solution_to_mkp,
    pa_to_mkp,
    verify_measure_equality,
)
from .solvers import (
    BudgetExceededError,
    SolveReport,
    brute_force_exact,
    brute_force_partition,
    count_surjective_assignments,
    decide,
    greedy_feasible,
    greedy_worst_user,
    local_search_move,
    random_feasible,
)
from .system_model import (
    CfMmimoSystem,
    GenerationConfig,
    InfeasibleAssignmentError,
    PilotAssignment,
    ValidationResult,
    compute_gamma_default,
    generate_system,
    system_throughput,
    uplink_rate,
    uplink_rates,
    validate_system,
)

__version__ = "0.1.0"

__all__ = [
    "CfMmimoSystem",
    "PilotAssignment",
    "GenerationConfig",
    "ValidationResult",
    "InfeasibleAssignmentError",
    "validate_system",
    "generate_system",
    "compute_gamma_default",
    "uplink_rate",
    "uplink_rates",
    "system_throughput",
    "ContaminationReport",
    "co_pilot_set",
    "pairwise_interference",
    "interference_matrix",
    "contamination_objective",
    "contamination_report",
    "WeightedGraph",
    "Partition",
    "InvalidPartitionError",
    "MeasureEqualityReport",
    "mkp_objective",
    "pa_to_mkp",
    "mkp_to_pa",
    "pa_solution_to_mkp",
    "mkp_solution_to_pa",
    "coloring_to_mkp",
    "verify_measure_equality",
    "graphs_equal",
    "SolveReport",
    "BudgetExceededError",
    "count_surjective_assignments",
    "brute_force_exact",
    "brute_force_partition",
    "decide",
    "greedy_feasible",
    "random_feasible",
    "greedy_worst_user",
    "local_search_move",
    "__version__",
]
