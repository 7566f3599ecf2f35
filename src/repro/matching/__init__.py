"""b-matching algorithms — the paper's core contribution.

Centralized references::

    from repro.matching import greedy_b_matching, stack_b_matching
    from repro.matching import flow_b_matching, lp_upper_bound

MapReduce algorithms (the paper's GreedyMR / StackMR / StackGreedyMR)::

    from repro.matching import greedy_mr_b_matching, stack_mr_b_matching

or by name through the registry::

    from repro.matching import solve
    result = solve(graph, "stack_mr", epsilon=1.0, seed=7)
"""

from .assignments import deliveries_by_consumer
from .base import ALGORITHMS, solve
from .bruteforce import bruteforce_b_matching
from .exact import flow_b_matching, lp_upper_bound
from .greedy import greedy_b_matching
from .greedy_mr import greedy_mr_b_matching
from .maximal import (
    MARKING_STRATEGIES,
    is_maximal,
    maximal_b_matching_adjacency,
)
from .maximal_mr import mm_records_from_adjacency, mr_maximal_b_matching
from .stack import StackLayer, layer_capacities, stack_b_matching
from .stack_mr import stack_mr_b_matching
from .types import Matching, MatchingResult

__all__ = [
    "ALGORITHMS",
    "MARKING_STRATEGIES",
    "Matching",
    "MatchingResult",
    "StackLayer",
    "bruteforce_b_matching",
    "deliveries_by_consumer",
    "flow_b_matching",
    "greedy_b_matching",
    "greedy_mr_b_matching",
    "is_maximal",
    "layer_capacities",
    "lp_upper_bound",
    "maximal_b_matching_adjacency",
    "mm_records_from_adjacency",
    "mr_maximal_b_matching",
    "solve",
    "stack_b_matching",
    "stack_mr_b_matching",
]
