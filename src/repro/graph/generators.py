"""Random and adversarial graph generators for tests and ablations.

Includes the two adversarial instances discussed in the paper:

* :func:`ascending_path` — the worst case for GreedyMR (a path with
  non-decreasing weights causes a linear chain of cascading updates, §5.4);
* :func:`greedy_tightness_triangle` — the Appendix-A instance proving the
  ½-approximation of greedy is tight.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .bipartite import BipartiteGraph, Graph

__all__ = [
    "random_bipartite",
    "random_graph",
    "ascending_path",
    "greedy_tightness_triangle",
    "star_graph",
]

WeightSampler = Callable[[random.Random], float]


def _uniform_weights(rng: random.Random) -> float:
    return rng.uniform(0.1, 10.0)


def random_bipartite(
    num_items: int,
    num_consumers: int,
    edge_probability: float,
    rng: Optional[random.Random] = None,
    weight_sampler: WeightSampler = _uniform_weights,
    max_capacity: int = 3,
) -> BipartiteGraph:
    """A G(n, m, p)-style random bipartite instance with random capacities.

    Every item-consumer pair becomes an edge independently with
    ``edge_probability``; weights come from ``weight_sampler`` and
    capacities are uniform integers in ``[1, max_capacity]``.
    """
    rng = rng or random.Random(0)
    graph = BipartiteGraph()
    items = [f"t{i}" for i in range(num_items)]
    consumers = [f"c{j}" for j in range(num_consumers)]
    for node in items:
        graph.add_item(node, rng.randint(1, max_capacity))
    for node in consumers:
        graph.add_consumer(node, rng.randint(1, max_capacity))
    for item in items:
        for consumer in consumers:
            if rng.random() < edge_probability:
                graph.add_edge(item, consumer, weight_sampler(rng))
    return graph


def random_graph(
    num_nodes: int,
    edge_probability: float,
    rng: Optional[random.Random] = None,
    weight_sampler: WeightSampler = _uniform_weights,
    max_capacity: int = 3,
) -> Graph:
    """A general (non-bipartite) random instance for the b-matching core.

    The paper notes all algorithms work on arbitrary undirected graphs;
    this generator exercises that path (e.g. maximal b-matching tests).
    """
    rng = rng or random.Random(0)
    graph = Graph()
    nodes = [f"v{i}" for i in range(num_nodes)]
    for node in nodes:
        graph.add_node(node, rng.randint(1, max_capacity))
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(nodes[i], nodes[j], weight_sampler(rng))
    return graph


def ascending_path(num_nodes: int, base: float = 1.0) -> Graph:
    """The GreedyMR worst case: a path with non-decreasing edge weights.

    ``w(u_i, u_{i+1}) <= w(u_{i+1}, u_{i+2})`` forces GreedyMR through a
    linear chain of cascading updates — Θ(n) MapReduce rounds (§5.4).
    All capacities are 1.
    """
    if num_nodes < 2:
        raise ValueError("a path needs at least 2 nodes")
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(f"u{i:06d}", 1)
    for i in range(num_nodes - 1):
        graph.add_edge(f"u{i:06d}", f"u{i + 1:06d}", base + i)
    return graph


def greedy_tightness_triangle(epsilon: float = 0.1) -> Graph:
    """Appendix A's tight instance for the greedy ½-approximation.

    A triangle ``u, v, z`` with ``b(u)=b(z)=1, b(v)=2`` and weights
    ``w(uv)=w(vz)=1, w(zu)=1+ε``: greedy picks only the ``(1+ε)`` edge
    while the optimum takes both unit edges (value 2).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    graph = Graph()
    graph.add_node("u", 1)
    graph.add_node("v", 2)
    graph.add_node("z", 1)
    graph.add_edge("u", "v", 1.0)
    graph.add_edge("v", "z", 1.0)
    graph.add_edge("z", "u", 1.0 + epsilon)
    return graph


def star_graph(
    num_leaves: int, center_capacity: int, weight_step: float = 1.0
) -> Graph:
    """A star with distinct leaf weights; optimum keeps the heaviest leaves.

    Handy for unit tests: the maximum-weight b-matching is exactly the
    ``center_capacity`` heaviest spokes.
    """
    graph = Graph()
    graph.add_node("center", center_capacity)
    for i in range(num_leaves):
        leaf = f"leaf{i:04d}"
        graph.add_node(leaf, 1)
        graph.add_edge("center", leaf, (i + 1) * weight_step)
    return graph
