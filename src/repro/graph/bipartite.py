"""Weighted graphs with node capacities — the input of b-matching.

:class:`Graph` is a general undirected weighted graph with per-node
integer capacities ``b(v)`` (the paper's budgets).  All matching
algorithms accept a plain :class:`Graph`; :class:`BipartiteGraph` adds
the item/consumer side bookkeeping of Problem 1 and validates that every
edge crosses sides.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .edges import Edge

__all__ = ["Graph", "BipartiteGraph", "ITEM_SIDE", "CONSUMER_SIDE"]

ITEM_SIDE = "item"
CONSUMER_SIDE = "consumer"


class Graph:
    """An undirected weighted graph with integer node capacities.

    Nodes are strings.  Edges carry positive weights.  Capacities default
    to 1 (ordinary matching) and can be set per node.  The structure is
    mutable; algorithms that consume the graph operate on a copy.
    """

    def __init__(self) -> None:
        self._adj: Dict[str, Dict[str, float]] = {}
        self._capacity: Dict[str, int] = {}
        self._num_edges = 0

    # -- construction ------------------------------------------------------

    def add_node(self, node: str, capacity: int = 1) -> None:
        """Add ``node`` (idempotent) and set its capacity."""
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if node not in self._adj:
            self._adj[node] = {}
        self._capacity[node] = int(capacity)

    def add_edge(self, u: str, v: str, weight: float) -> None:
        """Add edge ``{u, v}`` with ``weight``; endpoints are auto-added.

        Re-adding an existing edge overwrites its weight.  Weights must be
        positive and finite: the b-matching objective never benefits from
        non-positive edges, the primal-dual analysis assumes ``w(e) > 0``,
        and greedy's strict weight order has no place for NaN.
        """
        # ``not x > 0`` rather than ``x <= 0``: NaN fails it too.
        if not weight > 0 or not math.isfinite(weight):
            raise ValueError(
                f"edge weights must be positive and finite, got {weight}"
            )
        if u == v:
            raise ValueError(f"self-loops are not allowed: {u!r}")
        for node in (u, v):
            if node not in self._adj:
                self.add_node(node)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)

    def remove_edge(self, u: str, v: str) -> None:
        """Remove edge ``{u, v}``; raises ``KeyError`` if absent."""
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1

    def remove_node(self, node: str) -> None:
        """Remove ``node`` and every incident edge."""
        for neighbor in list(self._adj[node]):
            self.remove_edge(node, neighbor)
        del self._adj[node]
        del self._capacity[node]

    # -- queries -----------------------------------------------------------

    def has_node(self, node: str) -> bool:
        """Whether ``node`` is present."""
        return node in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        """Whether edge ``{u, v}`` is present."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: str, v: str) -> float:
        """The weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        return self._adj[u][v]

    def capacity(self, node: str) -> int:
        """The capacity ``b(node)``."""
        return self._capacity[node]

    def capacities(self) -> Dict[str, int]:
        """A copy of the full capacity function ``b``."""
        return dict(self._capacity)

    def neighbors(self, node: str) -> Iterator[str]:
        """Iterate over the neighbors of ``node``."""
        return iter(self._adj[node])

    def incident(self, node: str) -> Iterator[Tuple[str, float]]:
        """Iterate over ``(neighbor, weight)`` pairs of ``node``."""
        return iter(self._adj[node].items())

    def degree(self, node: str) -> int:
        """Number of edges incident to ``node``."""
        return len(self._adj[node])

    def nodes(self) -> Iterator[str]:
        """Iterate over all nodes."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges once each, endpoints normalized."""
        for u, neighbors in self._adj.items():
            for v, weight in neighbors.items():
                if u < v:
                    yield Edge(u, v, weight)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return self._num_edges

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(edge.weight for edge in self.edges())

    def adjacency_copy(self) -> Dict[str, Dict[str, float]]:
        """A deep copy of the adjacency structure (node -> nbr -> weight).

        Algorithms that mutate the graph as they run (maximal matching,
        the stack push phase) operate on this copy.
        """
        return {node: dict(nbrs) for node, nbrs in self._adj.items()}

    # -- transforms ----------------------------------------------------------

    def copy(self) -> "Graph":
        """Deep copy of structure, weights, and capacities."""
        clone = type(self).__new__(type(self))
        Graph.__init__(clone)
        self._copy_into(clone)
        return clone

    def _copy_into(self, clone: "Graph") -> None:
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        clone._capacity = dict(self._capacity)
        clone._num_edges = self._num_edges

    def thresholded(self, sigma: float) -> "Graph":
        """Return a copy keeping only edges of weight ``>= sigma``.

        This implements the paper's candidate-edge pruning knob: sweeping
        ``sigma`` sweeps the number of edges that participate in the
        matching.  All nodes are kept (capacities unchanged).
        """
        clone = self.copy()
        for edge in list(clone.edges()):
            if edge.weight < sigma:
                clone.remove_edge(edge.u, edge.v)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


class BipartiteGraph(Graph):
    """The bipartite graph of Problem 1: items ``T`` versus consumers ``C``.

    Every edge must connect an item to a consumer; :meth:`add_edge`
    enforces it.  Use :meth:`add_item` / :meth:`add_consumer` to declare
    node sides before adding edges.
    """

    def __init__(self) -> None:
        super().__init__()
        self._side: Dict[str, str] = {}

    def add_item(self, node: str, capacity: int = 1) -> None:
        """Add an item (content) node."""
        self._add_sided(node, ITEM_SIDE, capacity)

    def add_consumer(self, node: str, capacity: int = 1) -> None:
        """Add a consumer (user) node."""
        self._add_sided(node, CONSUMER_SIDE, capacity)

    def _add_sided(self, node: str, side: str, capacity: int) -> None:
        existing = self._side.get(node)
        if existing is not None and existing != side:
            raise ValueError(
                f"node {node!r} already declared as {existing}"
            )
        self._side[node] = side
        self.add_node(node, capacity)

    def side(self, node: str) -> str:
        """Return ``ITEM_SIDE`` or ``CONSUMER_SIDE`` for ``node``."""
        return self._side[node]

    def items(self) -> List[str]:
        """All item nodes (sorted for determinism)."""
        return sorted(
            node for node, side in self._side.items() if side == ITEM_SIDE
        )

    def consumers(self) -> List[str]:
        """All consumer nodes (sorted for determinism)."""
        return sorted(
            node
            for node, side in self._side.items()
            if side == CONSUMER_SIDE
        )

    def add_edge(self, u: str, v: str, weight: float) -> None:
        """Add an item-consumer edge; rejects same-side edges."""
        side_u = self._side.get(u)
        side_v = self._side.get(v)
        if side_u is None or side_v is None:
            raise ValueError(
                "declare sides with add_item/add_consumer before adding "
                f"edge ({u!r}, {v!r})"
            )
        if side_u == side_v:
            raise ValueError(
                f"edge ({u!r}, {v!r}) connects two {side_u} nodes"
            )
        super().add_edge(u, v, weight)

    def _copy_into(self, clone: "Graph") -> None:
        super()._copy_into(clone)
        assert isinstance(clone, BipartiteGraph)
        clone._side = dict(self._side)

    @staticmethod
    def from_edges(
        edges: Iterable[Tuple[str, str, float]],
        item_capacities: Optional[Dict[str, int]] = None,
        consumer_capacities: Optional[Dict[str, int]] = None,
    ) -> "BipartiteGraph":
        """Build a bipartite graph from ``(item, consumer, weight)`` rows.

        Capacities default to 1 for nodes missing from the dictionaries.
        Nodes present in a capacity dictionary but in no edge are added as
        isolated nodes, matching the paper's setting where every node has
        a budget whether or not it has candidate edges.
        """
        graph = BipartiteGraph()
        item_capacities = item_capacities or {}
        consumer_capacities = consumer_capacities or {}
        for node, capacity in item_capacities.items():
            graph.add_item(node, capacity)
        for node, capacity in consumer_capacities.items():
            graph.add_consumer(node, capacity)
        for item, consumer, weight in edges:
            if item not in graph._side:
                graph.add_item(item, 1)
            if consumer not in graph._side:
                graph.add_consumer(consumer, 1)
            graph.add_edge(item, consumer, weight)
        return graph
