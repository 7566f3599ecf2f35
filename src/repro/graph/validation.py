"""Feasibility checking and violation metrics for b-matchings.

The paper's Figure 4 reports the *average capacity violation*

    ε' = (1/|V|) Σ_v max{|M(v)| − b(v), 0} / b(v)

for StackMR, which is allowed to exceed capacities by a ``(1+ε)`` factor.
This module computes that statistic, plus strict feasibility checks used
as test invariants for every other algorithm.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

from .edges import EdgeKey

__all__ = [
    "matching_degrees",
    "ViolationReport",
    "check_matching",
]


def matching_degrees(edges: Iterable[EdgeKey]) -> Dict[str, int]:
    """Count ``|M(v)|``, the matched degree of every node in ``edges``."""
    degrees: Dict[str, int] = defaultdict(int)
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return dict(degrees)


@dataclass
class ViolationReport:
    """Capacity-violation statistics of a (possibly infeasible) matching.

    Attributes
    ----------
    feasible:
        ``True`` iff no node exceeds its capacity.
    average_violation:
        The paper's ε′ statistic (averaged over **all** nodes of the
        graph, including nodes with no violation, exactly as in §6).
    max_violation_ratio:
        ``max_v max{|M(v)|−b(v),0}/b(v)`` — worst single-node overflow.
    violated_nodes:
        Map from node to its overflow ``|M(v)| − b(v) > 0``.
    num_nodes:
        Number of nodes the average was taken over.
    """

    feasible: bool
    average_violation: float
    max_violation_ratio: float
    violated_nodes: Dict[str, int] = field(default_factory=dict)
    num_nodes: int = 0


def check_matching(
    capacities: Mapping[str, int],
    matched_edges: Iterable[EdgeKey],
    duplicate_check: bool = True,
) -> ViolationReport:
    """Validate a matching against node capacities.

    Parameters
    ----------
    capacities:
        The capacity function ``b`` over **all** graph nodes (the ε′
        average is taken over this full node set).
    matched_edges:
        The matching as an iterable of normalized edge keys.
    duplicate_check:
        When ``True`` (default), raise ``ValueError`` if the same edge
        appears twice — a matching is a *set* of edges.
    """
    edges = list(matched_edges)
    if duplicate_check and len(set(edges)) != len(edges):
        raise ValueError("matching contains duplicate edges")
    for u, v in edges:
        if u not in capacities or v not in capacities:
            raise ValueError(
                f"matched edge ({u!r}, {v!r}) has an endpoint with no "
                "declared capacity"
            )
    degrees = matching_degrees(edges)
    violated: Dict[str, int] = {}
    violation_sum = 0.0
    max_ratio = 0.0
    for node, b in capacities.items():
        matched = degrees.get(node, 0)
        overflow = max(matched - b, 0)
        if overflow > 0:
            if b <= 0:
                raise ValueError(
                    f"node {node!r} has capacity {b} but matched degree "
                    f"{matched}"
                )
            violated[node] = overflow
            ratio = overflow / b
            violation_sum += ratio
            max_ratio = max(max_ratio, ratio)
    num_nodes = len(capacities)
    average = violation_sum / num_nodes if num_nodes else 0.0
    return ViolationReport(
        feasible=not violated,
        average_violation=average,
        max_violation_ratio=max_ratio,
        violated_nodes=violated,
        num_nodes=num_nodes,
    )
