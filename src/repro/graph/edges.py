"""Edge primitives shared by every graph algorithm in the package.

Edges are undirected; an edge between ``u`` and ``v`` is identified by the
*normalized* pair ``edge_key(u, v)`` (lexicographically smaller endpoint
first), so the two directed views of an edge always agree on identity.

A strict total order over edges — weight descending, then key ascending —
is defined by :func:`edge_sort_key`.  The greedy algorithms depend on this
order being *total* (no ties) for determinism and termination, so all
tie-breaking happens on the normalized key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Edge", "EdgeKey", "edge_key", "edge_sort_key"]

#: Normalized identity of an undirected edge.
EdgeKey = Tuple[str, str]


def edge_key(u: str, v: str) -> EdgeKey:
    """Return the normalized ``(min, max)`` identity of edge ``{u, v}``."""
    if u == v:
        raise ValueError(f"self-loops are not allowed: {u!r}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Edge:
    """An undirected weighted edge.

    ``u`` and ``v`` are stored normalized (``u < v``); construct through
    :meth:`make` to guarantee normalization.
    """

    u: str
    v: str
    weight: float

    @staticmethod
    def make(u: str, v: str, weight: float) -> "Edge":
        """Create an edge with normalized endpoint order."""
        a, b = edge_key(u, v)
        return Edge(a, b, weight)

    @property
    def key(self) -> EdgeKey:
        """The normalized identity of this edge."""
        return (self.u, self.v)

    def endpoints(self) -> Tuple[str, str]:
        """Both endpoints, in normalized order."""
        return (self.u, self.v)


def edge_sort_key(key: EdgeKey, weight: float) -> Tuple[float, EdgeKey]:
    """Sort key implementing the strict total order on edges.

    Sorting a list of ``edge_sort_key`` values ascending yields edges by
    *decreasing* weight, ties broken by ascending edge key.  Used by the
    sequential greedy and by GreedyMR's per-node proposal lists, which
    must agree on a single global order for the parallel algorithm to
    simulate the sequential one.
    """
    return (-weight, key)
