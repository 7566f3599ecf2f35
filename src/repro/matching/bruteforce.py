"""Brute-force optimal b-matching for tiny graphs (test oracle).

Enumerates subsets of edges by depth-first search with residual-capacity
pruning and a simple optimistic bound.  Exponential — intended for
graphs with at most ~20 edges, where it serves as the ground truth for
property-based tests of every other solver (including the exact flow
solver, and the LP upper bound on *general* graphs where the LP is not
integral).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..graph.bipartite import Graph
from .types import Matching, MatchingResult

__all__ = ["bruteforce_b_matching"]

_MAX_EDGES = 26


def bruteforce_b_matching(graph: Graph) -> MatchingResult:
    """Return a maximum-weight b-matching by exhaustive search."""
    edges: List[Tuple[str, str, float]] = [
        (e.u, e.v, e.weight) for e in graph.edges()
    ]
    if len(edges) > _MAX_EDGES:
        raise ValueError(
            f"brute force limited to {_MAX_EDGES} edges, got {len(edges)}"
        )
    edges.sort(key=lambda row: -row[2])  # heavy first: better pruning
    suffix_weight = [0.0] * (len(edges) + 1)
    for i in range(len(edges) - 1, -1, -1):
        suffix_weight[i] = suffix_weight[i + 1] + edges[i][2]

    residual: Dict[str, int] = graph.capacities()
    best_value = 0.0
    best_choice: List[int] = []
    choice: List[int] = []

    def search(index: int, value: float) -> None:
        nonlocal best_value, best_choice
        if value > best_value:
            best_value = value
            best_choice = list(choice)
        if index == len(edges):
            return
        if value + suffix_weight[index] <= best_value:
            return  # optimistic bound cannot beat the incumbent
        u, v, w = edges[index]
        if residual[u] > 0 and residual[v] > 0:
            residual[u] -= 1
            residual[v] -= 1
            choice.append(index)
            search(index + 1, value + w)
            choice.pop()
            residual[u] += 1
            residual[v] += 1
        search(index + 1, value)

    search(0, 0.0)
    matching = Matching()
    for index in best_choice:
        u, v, w = edges[index]
        matching.add(u, v, w)
    return MatchingResult(
        matching=matching,
        algorithm="BruteForce",
        rounds=1,
        value_history=[matching.value],
    )
