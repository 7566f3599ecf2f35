"""The centralized stack (primal-dual) b-matching algorithm (§5.2).

This is the sequential reference for StackMR.  Both the paper's variants
are implemented on a shared push phase:

* **Algorithm 2** (:func:`stack_b_matching` with ``feasible=False``) —
  the StackMR variant evaluated in the paper: the pop phase includes
  entire layers in parallel and may violate capacities by a factor of at
  most ``(1+ε)``.  Approximation guarantee ``1/(6+ε)``.
* **Algorithm 1** (``feasible=True``) — the variant that satisfies all
  capacities exactly: layer edges that would overflow a node become
  *overflow edges* and are repaired afterwards through maximal-matching
  sublayers filtered by the ``(1+ε)·δ`` dominance rule.

Push phase
----------
While edges remain, compute a maximal ``⌈ε·b⌉``-matching (a *layer*),
raise the dual of each stacked edge ``e=(u,v)`` by

    δ(e) = (w(e) − y_u/b(u) − y_v/b(v)) / 2

on both endpoints (all edges of a layer in parallel, i.e. against the
pre-layer duals), then delete every *weakly covered* edge, i.e. any
remaining edge with

    y_u/b(u) + y_v/b(v) ≥ w(e) / (3+2ε)             (Definition 1).

Note on the ε: the paper's text extraction dropped every ε glyph; the
layer capacity must be ``⌈ε·b(v)⌉`` (not ``⌈b(v)⌉``) for the claimed
``(1+ε)`` violation bound to hold — see DESIGN.md.

On termination every original edge is covered at least ``1/(3+2ε)``
of its weight, so the scaled duals ``(3+2ε)·y`` are dual-feasible and
``(3+2ε)·Σ_v y_v`` is a certified upper bound on the optimum (exposed as
``MatchingResult.dual_upper_bound``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..graph.bipartite import Graph
from ..graph.edges import EdgeKey, edge_key
from ..mapreduce.errors import RoundLimitExceeded
from .maximal import check_strategy, maximal_b_matching_adjacency
from .types import Matching, MatchingResult

__all__ = [
    "StackLayer",
    "stack_algorithm_name",
    "stack_b_matching",
    "layer_capacities",
    "COVERAGE_TOLERANCE",
]

#: Numerical slack when testing Definition 1 (weak coverage).
COVERAGE_TOLERANCE = 1e-12

#: Algorithm 2's result name by marking strategy (§6); the MapReduce
#: adaptation appends ``"MR"`` (StackMR, StackGreedyMR, StackWeightedMR).
STACK_NAMES = {
    "uniform": "Stack",
    "greedy": "StackGreedy",
    "weighted": "StackWeighted",
}


def stack_algorithm_name(strategy: str) -> str:
    """Algorithm 2's name under ``strategy``; unknown strategies raise."""
    check_strategy(strategy)
    return STACK_NAMES[strategy]


@dataclass
class StackLayer:
    """One layer of the distributed stack: a maximal ⌈εb⌉-matching.

    ``deltas`` records δ(e) for every stacked edge — needed by
    Algorithm 1's repair phase and by the dual bookkeeping tests.
    """

    edges: Dict[EdgeKey, float] = field(default_factory=dict)
    deltas: Dict[EdgeKey, float] = field(default_factory=dict)


def layer_capacities(
    capacities: Dict[str, int], epsilon: float
) -> Dict[str, int]:
    """Per-layer budgets ``⌈ε·b(v)⌉`` (at least 1 for capacitated nodes)."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return {
        node: max(1, math.ceil(epsilon * b)) if b > 0 else 0
        for node, b in capacities.items()
    }


def _push_phase(
    graph: Graph,
    epsilon: float,
    rng: random.Random,
    strategy: str,
    max_rounds: int,
) -> Tuple[List[StackLayer], Dict[str, float]]:
    """Run the push phase; returns the stack and the final duals."""
    capacities = graph.capacities()
    adjacency = {
        node: {
            nbr: w
            for nbr, w in nbrs.items()
            if capacities.get(nbr, 0) > 0
        }
        for node, nbrs in graph.adjacency_copy().items()
        if capacities.get(node, 0) > 0
    }
    duals = {node: 0.0 for node in adjacency}
    caps_layer = layer_capacities(capacities, epsilon)
    threshold_factor = 1.0 / (3.0 + 2.0 * epsilon)
    layers: List[StackLayer] = []

    for _ in range(max_rounds):
        if not any(adjacency.values()):
            return layers, duals
        matched = maximal_b_matching_adjacency(
            adjacency, caps_layer, rng=rng, strategy=strategy
        )
        layer = StackLayer()
        increments: Dict[str, float] = {}
        for (u, v), weight in matched.items():
            delta = (
                weight
                - duals[u] / capacities[u]
                - duals[v] / capacities[v]
            ) / 2.0
            layer.edges[(u, v)] = weight
            layer.deltas[(u, v)] = delta
            increments[u] = increments.get(u, 0.0) + delta
            increments[v] = increments.get(v, 0.0) + delta
            del adjacency[u][v]
            del adjacency[v][u]
        for node, increment in increments.items():
            duals[node] += increment
        # Delete weakly covered edges (Definition 1) under the new duals.
        for node in list(adjacency):
            neighbors = adjacency[node]
            for nbr in [n for n in neighbors if node < n]:
                weight = neighbors[nbr]
                coverage = (
                    duals[node] / capacities[node]
                    + duals[nbr] / capacities[nbr]
                )
                if coverage >= threshold_factor * weight - COVERAGE_TOLERANCE:
                    del adjacency[node][nbr]
                    del adjacency[nbr][node]
        layers.append(layer)
    raise RoundLimitExceeded("stack-push", max_rounds)


def _pop_violating(
    layers: List[StackLayer], capacities: Dict[str, int]
) -> Matching:
    """Algorithm 2's pop: include whole layers; allow (1+ε) violations."""
    residual = dict(capacities)
    dead: Set[str] = set()
    matching = Matching()
    for layer in reversed(layers):
        included_nodes: Dict[str, int] = {}
        for (u, v), weight in sorted(layer.edges.items()):
            if u in dead or v in dead:
                continue
            matching.add(u, v, weight)
            included_nodes[u] = included_nodes.get(u, 0) + 1
            included_nodes[v] = included_nodes.get(v, 0) + 1
        for node, count in included_nodes.items():
            residual[node] -= count
            if residual[node] <= 0:
                dead.add(node)
    return matching


def _pop_feasible(
    layers: List[StackLayer],
    capacities: Dict[str, int],
    epsilon: float,
    rng: random.Random,
    strategy: str,
    max_rounds: int,
) -> Matching:
    """Algorithm 1's pop: overflow edges are set aside and repaired."""
    residual = dict(capacities)
    dead: Set[str] = set()
    matching = Matching()
    overflow: Dict[EdgeKey, Tuple[float, float]] = {}  # key -> (w, δ)

    for layer in reversed(layers):
        live = {
            key: weight
            for key, weight in layer.edges.items()
            if key[0] not in dead and key[1] not in dead
        }
        counts: Dict[str, int] = {}
        for u, v in live:
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
        exceeded = {
            node
            for node, count in counts.items()
            if count > residual[node]
        }
        for key, weight in sorted(live.items()):
            u, v = key
            if u in exceeded or v in exceeded:
                overflow[key] = (weight, layer.deltas[key])
            else:
                matching.add(u, v, weight)
                residual[u] -= 1
                residual[v] -= 1
        # Nodes whose tentative inclusion overflowed lose their remaining
        # (lower-layer) stacked edges; saturated nodes die as usual.
        dead.update(exceeded)
        dead.update(node for node, r in residual.items() if r <= 0)

    # Repair: drain the overflow edges through dominance-filtered
    # maximal-matching sublayers (lines 19-25 of Algorithm 1).
    for _ in range(max_rounds):
        overflow = {
            key: value
            for key, value in overflow.items()
            if residual[key[0]] > 0 and residual[key[1]] > 0
        }
        if not overflow:
            return matching
        best_delta: Dict[str, float] = {}
        second_delta: Dict[str, float] = {}
        for (u, v), (_, delta) in overflow.items():
            for node in (u, v):
                if delta > best_delta.get(node, float("-inf")):
                    second_delta[node] = best_delta.get(
                        node, float("-inf")
                    )
                    best_delta[node] = delta
                elif delta > second_delta.get(node, float("-inf")):
                    second_delta[node] = delta
        eligible: Dict[EdgeKey, float] = {}
        for key, (weight, delta) in overflow.items():
            dominated = False
            for node in key:
                # The strongest incompatible δ at this endpoint: the best
                # one, unless that best is this edge itself.
                rival = best_delta[node]
                if rival == delta and second_delta[node] <= delta:
                    rival = second_delta[node]
                if rival > (1.0 + epsilon) * delta:
                    dominated = True
                    break
            if not dominated:
                eligible[key] = weight
        adjacency: Dict[str, Dict[str, float]] = {}
        for (u, v), weight in eligible.items():
            adjacency.setdefault(u, {})[v] = weight
            adjacency.setdefault(v, {})[u] = weight
        sublayer = maximal_b_matching_adjacency(
            adjacency, residual, rng=rng, strategy=strategy
        )
        for (u, v), weight in sublayer.items():
            matching.add(u, v, weight)
            residual[u] -= 1
            residual[v] -= 1
            del overflow[(u, v)]
    raise RoundLimitExceeded("stack-repair", max_rounds)


def stack_b_matching(
    graph: Graph,
    epsilon: float = 1.0,
    seed: int = 0,
    strategy: str = "uniform",
    feasible: bool = False,
    max_rounds: int = 100_000,
) -> MatchingResult:
    """Run the centralized stack algorithm on ``graph``.

    Parameters
    ----------
    epsilon:
        The slack parameter ε > 0: layer capacity factor, weak-coverage
        threshold ``1/(3+2ε)``, and (for Algorithm 2) the allowed
        capacity-violation factor ``1+ε``.
    seed, strategy:
        Seed and marking strategy for the randomized maximal-matching
        engine (``"uniform"``, ``"greedy"``, ``"weighted"``).
    feasible:
        ``False`` → Algorithm 2 (may violate capacities, the paper's
        StackMR); ``True`` → Algorithm 1 (strictly feasible).
    """
    name = stack_algorithm_name(strategy)
    rng = random.Random(seed)
    layers, duals = _push_phase(
        graph, epsilon, rng, strategy, max_rounds
    )
    capacities = graph.capacities()
    if feasible:
        matching = _pop_feasible(
            layers, capacities, epsilon, rng, strategy, max_rounds
        )
        name = "StackFeasible"
    else:
        matching = _pop_violating(layers, capacities)
    upper_bound = (3.0 + 2.0 * epsilon) * sum(duals.values())
    return MatchingResult(
        matching=matching,
        algorithm=name,
        rounds=2 * len(layers),  # one push + one pop round per layer
        value_history=[matching.value],
        duals=duals,
        dual_upper_bound=upper_bound,
        layers=len(layers),
    )
