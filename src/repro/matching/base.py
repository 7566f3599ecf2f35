"""Algorithm registry: one entry point for every b-matching solver.

The experiment harness and the examples address algorithms by name;
:func:`solve` dispatches and forwards algorithm-specific keyword
arguments (``epsilon``, ``seed``, ``strategy``, ``runtime``, ...).
"""

from __future__ import annotations

from typing import Callable, Dict

from ..graph.bipartite import Graph
from .bruteforce import bruteforce_b_matching
from .exact import flow_b_matching
from .greedy import greedy_b_matching
from .greedy_mr import greedy_mr_b_matching
from .stack import stack_b_matching
from .stack_mr import stack_mr_b_matching
from .types import MatchingResult

__all__ = ["ALGORITHMS", "solve"]


def _stack_centralized(graph: Graph, **kwargs) -> MatchingResult:
    return stack_b_matching(graph, **kwargs)


def _stack_feasible(graph: Graph, **kwargs) -> MatchingResult:
    return stack_b_matching(graph, feasible=True, **kwargs)


def _stack_greedy_centralized(graph: Graph, **kwargs) -> MatchingResult:
    return stack_b_matching(graph, strategy="greedy", **kwargs)


def _stack_greedy_mr(graph: Graph, **kwargs) -> MatchingResult:
    return stack_mr_b_matching(graph, strategy="greedy", **kwargs)


def _stack_weighted_mr(graph: Graph, **kwargs) -> MatchingResult:
    return stack_mr_b_matching(graph, strategy="weighted", **kwargs)


#: Registry of all matching algorithms by harness name.
ALGORITHMS: Dict[str, Callable[..., MatchingResult]] = {
    "greedy": greedy_b_matching,
    "greedy_mr": greedy_mr_b_matching,
    "stack": _stack_centralized,
    "stack_greedy": _stack_greedy_centralized,
    "stack_feasible": _stack_feasible,
    "stack_mr": stack_mr_b_matching,
    "stack_greedy_mr": _stack_greedy_mr,
    "stack_weighted_mr": _stack_weighted_mr,
    "exact_flow": flow_b_matching,
    "bruteforce": bruteforce_b_matching,
}


def solve(graph: Graph, algorithm: str, **kwargs) -> MatchingResult:
    """Run the named algorithm on ``graph``.

    >>> from repro.graph import star_graph
    >>> solve(star_graph(4, 2), "greedy").value
    7.0
    """
    try:
        runner = ALGORITHMS[algorithm]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {known}"
        ) from None
    return runner(graph, **kwargs)
