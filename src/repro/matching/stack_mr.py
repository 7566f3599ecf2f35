"""StackMR / StackGreedyMR: the MapReduce stack algorithm (§5.2–5.3).

Each *push* iteration consists of

1. the maximal ``⌈ε·b⌉``-matching subroutine (the stage rules of
   :mod:`repro.matching.maximal` on the MapReduce driver of
   :mod:`repro.matching.maximal_mr`; four MapReduce jobs per inner
   round) producing a stack *layer*,
2. an **update** job that propagates ``y_u/b(u)`` across the layer's
   edges so both endpoints raise their duals by the same
   ``δ(e) = (w(e) − y_u/b(u) − y_v/b(v))/2``, and
3. a **coverage** job that broadcasts the new dual ratios and deletes
   every *weakly covered* edge (Definition 1: coverage at least
   ``w(e)/(3+2ε)``).

The paper folds (2) and (3) into one phase; we split them because the
weak-coverage test needs post-update duals from *both* endpoints, which
costs one extra round of communication per push iteration (job counts
are reported accordingly).  Push iterations run as the
``stack-mr-push`` loop of :class:`~repro.mapreduce.IterativeDriver`,
and each one's subroutine as an ``mr-maximal-b-matching`` loop nested
inside it, so a trace shows the inner rounds under their push round.

The *pop* phase runs one job per layer, from the top of the stack: all
surviving edges of the layer enter the solution in parallel, nodes whose
residual capacity reaches zero drop their remaining stacked edges.  A
node's capacity can overflow by at most the layer size ``⌈ε·b(v)⌉ − 1``
plus one layer, i.e. the (1+ε)-violation guarantee of Theorem 1.

StackGreedyMR is this exact pipeline with ``strategy="greedy"`` (the
maximal-matching marking stage proposes the heaviest edges instead of
uniform-random ones); ``strategy="weighted"`` gives the third variant
mentioned in §6.

The centralized :func:`~repro.matching.stack.stack_b_matching`
(Algorithm 2) runs the same stage rules in process, from the same
per-node random streams (push round ``r`` draws with ``round_offset =
r · MAX_ROUNDS`` under both), so it returns exactly this matching and
layer count for the same graph, ε, seed and strategy.

Resident-state rounds
---------------------

Every push- and pop-phase job runs in scan mode
(:meth:`~repro.mapreduce.runtime.MapReduceRuntime.run_stateful`): the
``StackNode``/``PopNode`` records live in a partition-aligned resident
store (spillable to the runtime's filesystem) and only the lightweight
messages — dual ratios for (2) and (3), pop confirmations for the pop
jobs — flow through the shuffle.  The update job receives the fresh
layer's stacked sets as side data, and nodes outside the layer are
quiescent: the scan visits them, finds nothing changed, and emits no
delta.  The maximal subroutine (1) runs its four stages on the same
plane and ships only marks, selections, demotions and death notices
(:mod:`repro.matching.maximal_mr`).  Every record re-evaluates each
job exactly as in the paper's formulation, so matchings, duals, layer
and round counts, and job counts are those of §5.2–5.3 (pinned by the
golden convergence curves); only node records and unchanged edges
stay out of the shuffle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..graph.bipartite import Graph
from ..graph.edges import EdgeKey
from ..mapreduce import (
    IterativeDriver,
    KeyValue,
    MapReduceJob,
    MapReduceRuntime,
    Retired,
)
from .maximal import MAX_ROUNDS as MAX_INNER_ROUNDS
from .maximal_mr import mr_maximal_b_matching
from .stack import COVERAGE_TOLERANCE, layer_capacities, stack_algorithm_name
from .types import Matching, MatchingResult

__all__ = ["stack_mr_b_matching", "StackNode", "PopNode"]

#: Round cap of the push phase.
MAX_PUSH_ROUNDS = 10_000


@dataclass(frozen=True)
class StackNode:
    """Push-phase node record: original budget, dual, and live edges."""

    b: int
    y: float
    adj: Dict[str, float]


@dataclass(frozen=True)
class PopNode:
    """Pop-phase node record: residual budget and stacked edges by level."""

    residual: int
    stacked: Dict[str, Tuple[int, float]]


class _UpdateJob(MapReduceJob):
    """Raise duals across the freshly stacked layer (push step 2).

    The layer's stacked sets travel as side data
    (``side_data["stacked"]``), and only the stacked nodes exchange
    ratio messages — everyone else is visited by the scan, matches the
    quiescent fast path, and emits nothing.
    """

    name = "stack-update"

    def map_resident(
        self, node: str, state: StackNode
    ) -> Iterable[KeyValue]:
        stacked = self.side_data["stacked"].get(node)
        if not stacked:
            return
        ratio = state.y / state.b
        for neighbor in sorted(stacked):
            yield neighbor, ("ratio", node, ratio)

    def reduce_state(self, node, state: Optional[StackNode], values: List):
        if state is None:
            return None, []
        stacked = self.side_data["stacked"].get(node)
        if not stacked:
            return state, []  # quiescent: no layer edges at this node
        ratios = {value[1]: value[2] for value in values}
        my_ratio = state.y / state.b
        increment = 0.0
        outputs: List[KeyValue] = []
        # Sorted iteration: frozenset order depends on the process's
        # string hash seed, and the dual increment below is a float
        # sum, so a deterministic order is what makes runs (and the
        # golden convergence curves) bit-identical across machines.
        for neighbor in sorted(stacked):
            weight = state.adj[neighbor]
            delta = (weight - ratios[neighbor] - my_ratio) / 2.0
            increment += delta
            if node < neighbor:
                outputs.append((("delta", node, neighbor), delta))
        new_adj = {
            nbr: w
            for nbr, w in state.adj.items()
            if nbr not in stacked
        }
        new_state = StackNode(
            b=state.b, y=state.y + increment, adj=new_adj
        )
        return new_state, outputs


class _CoverageJob(MapReduceJob):
    """Delete weakly covered edges under the new duals (push step 3)."""

    name = "stack-coverage"

    def __init__(self, epsilon: float) -> None:
        super().__init__()
        self.threshold_factor = 1.0 / (3.0 + 2.0 * epsilon)

    def map_resident(
        self, node: str, state: StackNode
    ) -> Iterable[KeyValue]:
        ratio = state.y / state.b
        for neighbor in state.adj:
            yield neighbor, ("ratio", node, ratio)

    def reduce_state(self, node, state: Optional[StackNode], values: List):
        if state is None:
            return None, []
        if not state.adj and not values:
            return state, []  # isolated node: nothing to re-cover
        ratios = {value[1]: value[2] for value in values}
        my_ratio = state.y / state.b
        new_adj: Dict[str, float] = {}
        for neighbor, weight in state.adj.items():
            coverage = my_ratio + ratios[neighbor]
            if (
                coverage
                < self.threshold_factor * weight - COVERAGE_TOLERANCE
            ):
                new_adj[neighbor] = weight
        if new_adj == state.adj:
            return state, []  # quiescent: no edge became covered
        return StackNode(b=state.b, y=state.y, adj=new_adj), []


class _PopLayerJob(MapReduceJob):
    """Pop one stack layer into the solution (Algorithm 2's pop loop)."""

    name = "stack-pop"

    def __init__(self, level: int) -> None:
        super().__init__()
        self.level = level

    def map_resident(
        self, node: str, state: PopNode
    ) -> Iterable[KeyValue]:
        for neighbor, (level, _) in state.stacked.items():
            if level == self.level:
                yield neighbor, ("inc", node)

    def reduce_state(self, node, state: Optional[PopNode], values: List):
        if state is None:
            return None, []  # node died in a higher layer
        confirmations = {value[1] for value in values}
        included: List[Tuple[str, float]] = []
        new_stacked: Dict[str, Tuple[int, float]] = {}
        for neighbor, (level, weight) in state.stacked.items():
            if level == self.level:
                if neighbor in confirmations:
                    included.append((neighbor, weight))
                # else: the neighbor died earlier -> the edge is gone
            else:
                new_stacked[neighbor] = (level, weight)
        outputs: List[KeyValue] = [
            (("matched", node, neighbor), weight)
            for neighbor, weight in included
            if node < neighbor
        ]
        residual = state.residual - len(included)
        if residual > 0 and new_stacked:
            return (
                PopNode(residual=residual, stacked=new_stacked),
                outputs,
            )
        return Retired(), outputs


def _initial_states(
    graph: Graph, capacities: Dict[str, int]
) -> List[Tuple[str, StackNode]]:
    """The push-phase seed records, in sorted node order."""
    states: List[Tuple[str, StackNode]] = []
    for node in sorted(capacities):
        if capacities[node] <= 0:
            continue
        adj = {
            nbr: w
            for nbr, w in graph.incident(node)
            if capacities.get(nbr, 0) > 0
        }
        states.append((node, StackNode(b=capacities[node], y=0.0, adj=adj)))
    return states


def _has_live_edges(snapshot: List[Tuple[str, StackNode]]) -> bool:
    """Whether a push-store snapshot has an edge left to stack."""
    return any(state.adj for _, state in snapshot)


def _stacked_by_node(matched: Dict[EdgeKey, float]) -> Dict[str, frozenset]:
    """Each node's partners in a freshly stacked layer."""
    stacked: Dict[str, set] = {}
    for u, v in matched:
        stacked.setdefault(u, set()).add(v)
        stacked.setdefault(v, set()).add(u)
    return {node: frozenset(partners) for node, partners in stacked.items()}


def stack_mr_b_matching(
    graph: Graph,
    epsilon: float = 1.0,
    seed: int = 0,
    strategy: str = "uniform",
    runtime: Optional[MapReduceRuntime] = None,
) -> MatchingResult:
    """Run StackMR on ``graph`` through the MapReduce simulator.

    Parameters mirror :func:`repro.matching.stack.stack_b_matching`;
    ``strategy="greedy"`` yields StackGreedyMR.  The returned result
    carries the dual variables, the certified dual upper bound
    ``(3+2ε)·Σy_v``, the number of stack layers, and the number of
    simulated MapReduce jobs (the paper's efficiency metric).  Push-
    and pop-phase node records stay resident
    (:meth:`~repro.mapreduce.runtime.MapReduceRuntime.run_stateful`,
    scan mode — the maximal subroutine included).  Each push round
    ends with one snapshot of the push store; the loop stops at a
    snapshot without live edges, and the duals are read off it.
    """
    name = stack_algorithm_name(strategy) + "MR"
    runtime = runtime or MapReduceRuntime()
    jobs_before = runtime.jobs_executed
    capacities = graph.capacities()
    caps_layer = layer_capacities(capacities, epsilon)

    layers: List[Dict[EdgeKey, float]] = []
    update_job = _UpdateJob()
    coverage_job = _CoverageJob(epsilon)
    driver = IterativeDriver(runtime, "stack-mr-push", MAX_PUSH_ROUNDS)

    # No driver-side copy: the store is the single owner, so its
    # out-of-core parking actually bounds between-round memory.
    push_store = runtime.state_store("stack-push")
    push_store.load(_initial_states(graph, capacities))

    def push_round(snapshot, round_number):
        matched, _ = mr_maximal_b_matching(
            {node: state.adj for node, state in snapshot},
            caps_layer,
            runtime,
            seed=seed,
            strategy=strategy,
            round_offset=round_number * MAX_INNER_ROUNDS,
        )
        layers.append(matched)
        runtime.run_stateful(
            update_job,
            push_store,
            scan=True,
            side_data={"stacked": _stacked_by_node(matched)},
        )
        runtime.run_stateful(coverage_job, push_store, scan=True)
        return list(push_store.records())

    try:
        snapshot = driver.iterate(
            push_round, list(push_store.records()), pending=_has_live_edges
        )
    finally:
        push_store.close()
    duals = {node: state.y for node, state in snapshot}
    upper_bound = (3.0 + 2.0 * epsilon) * sum(
        duals[node] for node in sorted(duals)
    )

    # ---- pop phase: one job per layer, from the top of the stack ----
    stacked_edges: Dict[str, Dict[str, Tuple[int, float]]] = {}
    for level, layer in enumerate(layers):
        for (u, v), weight in layer.items():
            stacked_edges.setdefault(u, {})[v] = (level, weight)
            stacked_edges.setdefault(v, {})[u] = (level, weight)
    pop_records: List[KeyValue] = [
        (node, PopNode(residual=capacities[node], stacked=stacked))
        for node, stacked in sorted(stacked_edges.items())
    ]
    matching = Matching()
    pop_store = runtime.state_store("stack-pop")
    pop_store.load(pop_records)
    try:
        for level in range(len(layers) - 1, -1, -1):
            output, _ = runtime.run_stateful(
                _PopLayerJob(level), pop_store, scan=True
            )
            for key, value in output:
                matching.add(key[1], key[2], value)
    finally:
        pop_store.close()

    return MatchingResult(
        matching=matching,
        algorithm=name,
        rounds=driver.rounds_completed + len(layers),
        mr_jobs=runtime.jobs_executed - jobs_before,
        value_history=[matching.value],
        duals=duals,
        dual_upper_bound=upper_bound,
        layers=len(layers),
    )
