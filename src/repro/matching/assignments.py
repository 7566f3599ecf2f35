"""Turn a matching into the application-level delivery plan.

The matching is a set of undirected edges; applications consume it as
"which items does consumer c receive" (the paper's featured-item
component, §1).  :func:`deliveries_by_consumer` projects a matching onto
a :class:`~repro.graph.bipartite.BipartiteGraph`'s consumers, sparing
callers the normalized-edge-order bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..graph.bipartite import ITEM_SIDE, BipartiteGraph
from .types import Matching

__all__ = ["deliveries_by_consumer"]

Ranked = List[Tuple[str, float]]


def deliveries_by_consumer(
    graph: BipartiteGraph, matching: Matching
) -> Dict[str, Ranked]:
    """Map each matched consumer to its items, best-first.

    >>> # feed = deliveries_by_consumer(graph, result.matching)
    >>> # feed["alice"] -> [("sunset-photo", 0.9), ...]
    """
    plan: Dict[str, Ranked] = {}
    for u, v, weight in matching.edges():
        item, consumer = (u, v) if graph.side(u) == ITEM_SIDE else (v, u)
        plan.setdefault(consumer, []).append((item, weight))
    for ranked in plan.values():
        ranked.sort(key=lambda entry: (-entry[1], entry[0]))
    return plan
