"""Exact maximum-weight b-matching for bipartite graphs.

The paper notes that weighted b-matching is solvable in polynomial time
via max-flow techniques [10, 13] but too slowly for web-scale inputs; the
exact solver here plays the same role as those citations — a quality
upper bound for evaluating the approximation algorithms on small and
medium instances.

* :func:`flow_b_matching` — our own successive-shortest-path min-cost
  flow on the layered network ``source → items → consumers → sink``
  (Johnson potentials + Dijkstra, bottleneck augmentation, stopping as
  soon as the cheapest augmenting path stops improving the objective).
  The tests check it against brute-force enumeration.
* :func:`lp_upper_bound` — the value of the LP relaxation, solved with
  ``scipy.optimize.linprog`` (HiGHS).  It bounds the optimum on any
  graph, including the general graphs the flow network cannot model.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from ..graph.bipartite import BipartiteGraph, Graph
from .types import Matching, MatchingResult

__all__ = ["flow_b_matching", "lp_upper_bound"]

_EPS = 1e-9


class _MinCostFlow:
    """A small residual-network min-cost-flow core (adjacency arrays)."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.head: List[List[int]] = [[] for _ in range(num_nodes)]
        self.to: List[int] = []
        self.cap: List[float] = []
        self.cost: List[float] = []

    def add_arc(self, frm: int, to: int, cap: float, cost: float) -> int:
        """Add a forward arc and its zero-capacity reverse; return index."""
        index = len(self.to)
        self.head[frm].append(index)
        self.to.append(to)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[to].append(index + 1)
        self.to.append(frm)
        self.cap.append(0.0)
        self.cost.append(-cost)
        return index

    def _arc_source(self, index: int) -> int:
        """The tail of arc ``index`` (stored implicitly via the pair)."""
        return self.to[index ^ 1]

    def dijkstra(
        self, source: int, potentials: List[float]
    ) -> Tuple[List[float], List[int]]:
        """Shortest reduced-cost distances from ``source``; parents by arc."""
        infinity = float("inf")
        dist = [infinity] * self.num_nodes
        parent_arc = [-1] * self.num_nodes
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node] + _EPS:
                continue
            for arc in self.head[node]:
                if self.cap[arc] <= _EPS:
                    continue
                target = self.to[arc]
                reduced = (
                    self.cost[arc] + potentials[node] - potentials[target]
                )
                candidate = d + reduced
                if candidate < dist[target] - _EPS:
                    dist[target] = candidate
                    parent_arc[target] = arc
                    heapq.heappush(heap, (candidate, target))
        return dist, parent_arc


def flow_b_matching(graph: BipartiteGraph) -> MatchingResult:
    """Exact maximum-weight b-matching by min-cost flow (own solver).

    Augments along the cheapest path while it has negative cost (i.e.
    positive marginal matching weight); by the concavity of the optimal
    weight in the flow value, stopping there is globally optimal.

    The flow network needs the item/consumer sides, so a plain
    :class:`~repro.graph.bipartite.Graph` raises :exc:`TypeError`.
    """
    if not isinstance(graph, BipartiteGraph):
        raise TypeError(
            f"flow_b_matching needs a BipartiteGraph, got "
            f"{type(graph).__name__}"
        )
    items = graph.items()
    consumers = graph.consumers()
    index: Dict[str, int] = {}
    for node in items + consumers:
        index[node] = len(index) + 1  # 0 is the source
    source = 0
    sink = len(index) + 1
    network = _MinCostFlow(sink + 1)

    for item in items:
        capacity = graph.capacity(item)
        if capacity > 0 and graph.degree(item) > 0:
            network.add_arc(source, index[item], float(capacity), 0.0)
    middle_arcs: Dict[int, Tuple[str, str, float]] = {}
    for edge in graph.edges():
        item, consumer = (
            (edge.u, edge.v)
            if graph.side(edge.u) == "item"
            else (edge.v, edge.u)
        )
        arc = network.add_arc(
            index[item], index[consumer], 1.0, -edge.weight
        )
        middle_arcs[arc] = (item, consumer, edge.weight)
    for consumer in consumers:
        capacity = graph.capacity(consumer)
        if capacity > 0 and graph.degree(consumer) > 0:
            network.add_arc(index[consumer], sink, float(capacity), 0.0)

    # Initial potentials via relaxation in layer order (the network is a
    # DAG before any augmentation, so three passes suffice).
    infinity = float("inf")
    potentials = [infinity] * network.num_nodes
    potentials[source] = 0.0
    for _ in range(3):
        for arc_index in range(0, len(network.to), 2):
            frm = network._arc_source(arc_index)
            to = network.to[arc_index]
            if (
                network.cap[arc_index] > _EPS
                and potentials[frm] < infinity
            ):
                candidate = potentials[frm] + network.cost[arc_index]
                if candidate < potentials[to]:
                    potentials[to] = candidate
    # Unreached nodes keep +inf; replace by 0 after checking reachability.
    potentials = [0.0 if p == infinity else p for p in potentials]

    while True:
        dist, parent_arc = network.dijkstra(source, potentials)
        if dist[sink] == float("inf"):
            break
        true_cost = dist[sink] + potentials[sink] - potentials[source]
        if true_cost >= -_EPS:
            break  # further augmentation can only lose weight
        # Bottleneck along the path.
        bottleneck = float("inf")
        node = sink
        while node != source:
            arc = parent_arc[node]
            bottleneck = min(bottleneck, network.cap[arc])
            node = network._arc_source(arc)
        node = sink
        while node != source:
            arc = parent_arc[node]
            network.cap[arc] -= bottleneck
            network.cap[arc ^ 1] += bottleneck
            node = network._arc_source(arc)
        for i in range(network.num_nodes):
            if dist[i] < float("inf"):
                potentials[i] += dist[i]

    matching = Matching()
    for arc, (item, consumer, weight) in middle_arcs.items():
        if network.cap[arc] < 0.5:  # saturated unit arc => matched
            matching.add(item, consumer, weight)
    return MatchingResult(
        matching=matching,
        algorithm="ExactFlow",
        rounds=1,
        value_history=[matching.value],
    )


def lp_upper_bound(graph: Graph) -> float:
    """The LP-relaxation value: an upper bound on OPT for any graph."""
    from scipy.optimize import linprog
    from scipy.sparse import lil_matrix

    edges = [(e.u, e.v, e.weight) for e in graph.edges()]
    if not edges:
        return 0.0
    nodes = sorted(graph.nodes())
    node_index = {node: i for i, node in enumerate(nodes)}
    constraint = lil_matrix((len(nodes), len(edges)))
    for j, (u, v, _) in enumerate(edges):
        constraint[node_index[u], j] = 1.0
        constraint[node_index[v], j] = 1.0
    bounds_b = [float(graph.capacity(node)) for node in nodes]
    objective = [-w for (_, _, w) in edges]
    result = linprog(
        objective,
        A_ub=constraint.tocsr(),
        b_ub=bounds_b,
        bounds=[(0.0, 1.0)] * len(edges),
        method="highs",
    )
    if not result.success:  # pragma: no cover - solver failure
        raise RuntimeError(f"LP solver failed: {result.message}")
    return -float(result.fun)
