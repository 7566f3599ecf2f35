"""Maximal b-matching via the randomized algorithm of Garrido et al.

This is the inner engine of StackMR (§5.3): each push round stacks a
*maximal* (not maximum) b-matching computed by iterating four stages —

1. **marking**: each node ``v`` marks ``⌈b(v)/2⌉`` incident edges;
2. **selection**: each node ``v`` selects ``max{⌊b(v)/2⌋, 1}`` edges
   *marked by its neighbors*;
3. **matching**: a node with ``b(v) = 1`` and two selected incident edges
   randomly drops one (the only case where stages 1–2 can oversubscribe);
4. **cleanup**: selected edges join the matching, capacities decrease,
   and saturated nodes leave the graph with their edges.

Garrido et al. prove expected ``O(log³ n)`` rounds.  The *marking
strategy* is the knob behind the paper's StackGreedyMR variant (§6):

* ``"uniform"`` — uniform random marks/selections (StackMR);
* ``"greedy"`` — prefer the heaviest edges (StackGreedyMR);
* ``"weighted"`` — random with probability proportional to weight (the
  third variant the paper mentions and dismisses).

This module is the *centralized* implementation, shared by the
centralized stack algorithm and used as the reference for the MapReduce
implementation in :mod:`repro.matching.maximal_mr`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graph.edges import EdgeKey, edge_key
from ..mapreduce.errors import RoundLimitExceeded

__all__ = [
    "MARKING_STRATEGIES",
    "check_strategy",
    "choose_edges",
    "maximal_b_matching_adjacency",
    "is_maximal",
]

MARKING_STRATEGIES = ("uniform", "greedy", "weighted")

Adjacency = Dict[str, Dict[str, float]]


def check_strategy(strategy: str) -> None:
    """Raise ``ValueError`` unless ``strategy`` is a marking strategy.

    Entry points call this up front, so a bad name fails even on a
    graph with no live edge, where no mark is ever drawn.
    """
    if strategy not in MARKING_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of "
            f"{MARKING_STRATEGIES}"
        )


def choose_edges(
    candidates: List[Tuple[str, float]],
    count: int,
    rng: Optional[random.Random],
    strategy: str,
) -> List[str]:
    """Choose up to ``count`` neighbors from ``(neighbor, weight)`` pairs.

    ``candidates`` must be pre-sorted deterministically by the caller
    (the helpers here sort by neighbor id) so that a seeded RNG yields
    reproducible draws.  ``rng`` is drawn from only when ``count <
    len(candidates)`` and the strategy is not ``"greedy"``; it may be
    ``None`` otherwise.
    """
    check_strategy(strategy)
    if count >= len(candidates):
        return [neighbor for neighbor, _ in candidates]
    if strategy == "greedy":
        heaviest = sorted(candidates, key=lambda nw: (-nw[1], nw[0]))
        return [neighbor for neighbor, _ in heaviest[:count]]
    if strategy == "uniform":
        return rng.sample([neighbor for neighbor, _ in candidates], count)
    # strategy == "weighted": sequential weighted sampling w/o replacement
    pool = list(candidates)
    chosen: List[str] = []
    for _ in range(count):
        total = sum(weight for _, weight in pool)
        if total <= 0:
            chosen.extend(n for n, _ in pool[: count - len(chosen)])
            break
        pick = rng.random() * total
        cumulative = 0.0
        for index, (neighbor, weight) in enumerate(pool):
            cumulative += weight
            if pick <= cumulative:
                chosen.append(neighbor)
                pool.pop(index)
                break
        else:  # floating-point tail: take the last candidate
            chosen.append(pool.pop()[0])
    return chosen


def maximal_b_matching_adjacency(
    adjacency: Adjacency,
    capacities: Dict[str, int],
    rng: Optional[random.Random] = None,
    strategy: str = "uniform",
    max_rounds: int = 10_000,
) -> Dict[EdgeKey, float]:
    """Compute a maximal b-matching of an adjacency-dict graph.

    The inputs are not mutated.  Nodes with capacity ``<= 0`` are treated
    as saturated from the start (their edges can never be matched).
    Returns matched edges as ``edge_key -> weight``.
    """
    rng = rng or random.Random(0)
    # Working copies; drop edges at saturated nodes immediately.
    caps = {node: int(b) for node, b in capacities.items()}
    adj: Adjacency = {}
    for node, neighbors in adjacency.items():
        if caps.get(node, 0) <= 0:
            continue
        kept = {
            nbr: w for nbr, w in neighbors.items() if caps.get(nbr, 0) > 0
        }
        if kept:
            adj[node] = kept

    matched: Dict[EdgeKey, float] = {}
    for _ in range(max_rounds):
        if not any(adj.values()):
            return matched
        marked = _marking_stage(adj, caps, rng, strategy)
        selected = _selection_stage(adj, caps, marked, rng, strategy)
        fixed = _matching_stage(adj, caps, selected, rng)
        _cleanup_stage(adj, caps, fixed, matched)
    raise RoundLimitExceeded("maximal-b-matching", max_rounds)


def _marking_stage(
    adj: Adjacency,
    caps: Dict[str, int],
    rng: random.Random,
    strategy: str,
) -> Dict[EdgeKey, Set[str]]:
    """Stage 1: each node marks ``⌈b(v)/2⌉`` incident edges."""
    marked: Dict[EdgeKey, Set[str]] = {}
    for node in sorted(adj):
        neighbors = adj[node]
        if not neighbors:
            continue
        quota = (caps[node] + 1) // 2  # ceil(b/2)
        candidates = sorted(neighbors.items())
        for neighbor in choose_edges(candidates, quota, rng, strategy):
            marked.setdefault(edge_key(node, neighbor), set()).add(node)
    return marked


def _selection_stage(
    adj: Adjacency,
    caps: Dict[str, int],
    marked: Dict[EdgeKey, Set[str]],
    rng: random.Random,
    strategy: str,
) -> Dict[EdgeKey, Set[str]]:
    """Stage 2: each node selects among edges marked by its neighbors."""
    selected: Dict[EdgeKey, Set[str]] = {}
    for node in sorted(adj):
        neighbors = adj[node]
        candidates = sorted(
            (nbr, w)
            for nbr, w in neighbors.items()
            if nbr in marked.get(edge_key(node, nbr), ())
        )
        if not candidates:
            continue
        quota = max(caps[node] // 2, 1)
        for neighbor in choose_edges(candidates, quota, rng, strategy):
            selected.setdefault(edge_key(node, neighbor), set()).add(node)
    return selected


def _matching_stage(
    adj: Adjacency,
    caps: Dict[str, int],
    selected: Dict[EdgeKey, Set[str]],
    rng: random.Random,
) -> Set[EdgeKey]:
    """Stage 3: capacity-1 nodes with two selected edges drop one.

    Decisions are taken simultaneously from the pre-stage selected set,
    mirroring the distributed algorithm; an edge survives only if no
    endpoint dropped it.
    """
    incident: Dict[str, List[EdgeKey]] = {}
    for key in selected:
        for endpoint in key:
            incident.setdefault(endpoint, []).append(key)
    dropped: Set[EdgeKey] = set()
    for node in sorted(incident):
        keys = incident[node]
        if caps[node] == 1 and len(keys) >= 2:
            keep = rng.choice(sorted(keys))
            dropped.update(key for key in keys if key != keep)
    return set(selected) - dropped


def _cleanup_stage(
    adj: Adjacency,
    caps: Dict[str, int],
    fixed: Set[EdgeKey],
    matched: Dict[EdgeKey, float],
) -> None:
    """Stage 4: commit matched edges, update capacities, drop saturated."""
    for u, v in fixed:
        weight = adj[u][v]
        matched[(u, v)] = weight
        del adj[u][v]
        del adj[v][u]
        caps[u] -= 1
        caps[v] -= 1
    saturated = [node for node in adj if caps[node] <= 0]
    for node in saturated:
        for neighbor in list(adj[node]):
            del adj[neighbor][node]
        adj[node] = {}


def is_maximal(
    adjacency: Adjacency,
    capacities: Dict[str, int],
    matched: Iterable[EdgeKey],
) -> bool:
    """Check maximality: no remaining edge could be added to ``matched``.

    Used as a test invariant: a b-matching ``M`` is maximal iff every
    non-matched edge has at least one endpoint whose matched degree
    already equals its capacity.
    """
    matched = set(matched)
    residual = {node: capacities.get(node, 0) for node in adjacency}
    for u, v in matched:
        residual[u] -= 1
        residual[v] -= 1
    if any(r < 0 for r in residual.values()):
        return False  # not even feasible
    for node, neighbors in adjacency.items():
        for neighbor in neighbors:
            key = edge_key(node, neighbor)
            if key in matched:
                continue
            if residual[node] > 0 and residual[neighbor] > 0:
                return False
    return True
