"""MapReduce implementation of Garrido et al.'s maximal b-matching (§5.3).

One MapReduce job per stage (marking, selection, matching, cleanup), all
sharing the communication pattern the paper describes: the graph is kept
as node-keyed adjacency lists, each node's local view of every incident
edge reaches the other endpoint, and each reduce unifies the two views
back into a consistent adjacency list.

Edge states of the paper map onto this implementation as follows:

=====  =========================================================
``E``  edge present in ``MMNode.adj`` with empty mark/select sets
``K``  edge present with a non-empty ``marked`` set
``F``  edge present with a non-empty ``selected`` set
``M``  edge emitted as a ``("matched", u, v)`` output record
``D``  edge absent from both endpoints' adjacency lists
=====  =========================================================

Randomness is per-node and derived from ``stable_hash((seed, round,
stage, node))``, so runs are reproducible and independent of task
placement — exactly what a deterministic-seeded Hadoop job would do.

Resident-state rounds
---------------------

Every stage runs as a resident scan round
(:meth:`~repro.mapreduce.runtime.MapReduceRuntime.run_stateful`,
scan mode): the node records stay in a partition-aligned resident
store and each stage's map emits only the *cross* view —
``(neighbor, ("edge", node, view))``.  The reduce recomputes the node's
own local views from resident state (the per-node RNG makes that free
of coordination) and merges them with the arrived neighbor views, so
neither the node record nor its own views enter the shuffle.  The
state-unification rules are symmetric, so merge order cannot matter:
matched edges, round counts, and job counts are those of the paper's
formulation (pinned by the golden convergence curves).  StackMR drives
this loop for its inner subroutine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..graph.edges import EdgeKey, edge_key
from ..mapreduce import (
    IterativeDriver,
    KeyValue,
    MapReduceJob,
    MapReduceRuntime,
    Retired,
    stable_hash,
)
from ..mapreduce.state import ResidentStateStore
from .maximal import check_strategy, choose_edges

__all__ = ["MMEdge", "MMNode", "mm_records_from_adjacency", "mr_maximal_b_matching"]

_EMPTY: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class MMEdge:
    """One endpoint's view of an edge's state in the maximal matching."""

    weight: float
    marked: FrozenSet[str] = _EMPTY
    selected: FrozenSet[str] = _EMPTY


@dataclass(frozen=True)
class MMNode:
    """A node record: remaining capacity and incident edge views."""

    b: int
    adj: Dict[str, MMEdge]


def mm_records_from_adjacency(
    adjacency: Dict[str, Dict[str, float]],
    capacities: Dict[str, int],
) -> List[KeyValue]:
    """Build the initial node records for the subroutine.

    Nodes with no capacity or no live edges are excluded up front (their
    edges can never be matched, mirroring the centralized preprocessing).
    """
    records: List[KeyValue] = []
    for node in sorted(adjacency):
        if capacities.get(node, 0) <= 0:
            continue
        adj = {
            nbr: MMEdge(weight=w)
            for nbr, w in adjacency[node].items()
            if capacities.get(nbr, 0) > 0
        }
        if adj:
            records.append((node, MMNode(b=int(capacities[node]), adj=adj)))
    return records


def _node_rng(seed: int, round_index: int, stage: str, node: str) -> random.Random:
    """A reproducible per-node, per-stage random generator."""
    return random.Random(stable_hash((seed, round_index, stage, node)))


class _StageJob(MapReduceJob):
    """Shared communication pattern for all four stages.

    Subclasses implement :meth:`local_views` (the stage's local decision,
    returning each edge's updated view) and :meth:`merge` (the state
    unification rule applied in the reduce).
    """

    stage = "abstract"

    def __init__(self, seed: int, round_index: int, strategy: str) -> None:
        self.name = f"maximal-{self.stage}"
        super().__init__()
        self.seed = seed
        self.round_index = round_index
        self.strategy = strategy

    # -- to be provided by each stage -------------------------------------

    def local_views(
        self, node: str, state: MMNode, rng: random.Random
    ) -> Dict[str, MMEdge]:
        raise NotImplementedError

    def merge(self, mine: MMEdge, theirs: MMEdge) -> MMEdge:
        raise NotImplementedError

    def new_capacity(self, state: MMNode, views: Dict[str, MMEdge]) -> int:
        """Capacity after this stage (only cleanup changes it)."""
        return state.b

    def extra_output(
        self, node: str, state: MMNode, views: Dict[str, MMEdge]
    ) -> Iterable[KeyValue]:
        """Additional output records (cleanup emits matched edges)."""
        return ()

    def keep_view(self, view: MMEdge) -> bool:
        """Whether the local view keeps the edge alive (cleanup prunes)."""
        return True

    # -- the shared pattern ----------------------------------------------------

    def map_resident(
        self, node: str, state: MMNode
    ) -> Iterable[KeyValue]:
        """Emit only the cross views; the self copy stays resident."""
        rng = _node_rng(self.seed, self.round_index, self.stage, node)
        views = self.local_views(node, state, rng)
        for neighbor, view in views.items():
            if not self.keep_view(view):
                continue
            yield neighbor, ("edge", node, view)
        yield from self.extra_output(node, state, views)

    def reduce_state(self, node, state: Optional[MMNode], values: List):
        if isinstance(node, tuple) and node and node[0] == "matched":
            # Matched-edge records emitted by cleanup maps: pass through
            # (emitted once, from the smaller endpoint).
            return None, [(node, values[0])]
        if state is None:
            # The node itself left earlier; ignore stray messages.
            return None, []
        rng = _node_rng(self.seed, self.round_index, self.stage, node)
        views = self.local_views(node, state, rng)
        theirs: Dict[str, MMEdge] = {}
        for value in values:
            theirs[value[1]] = value[2]
        capacity = self.new_capacity(state, views)
        adj: Dict[str, MMEdge] = {}
        for neighbor in sorted(views):
            view = views[neighbor]
            if not self.keep_view(view):
                continue  # this side dropped the edge -> it is dead
            their_view = theirs.get(neighbor)
            if their_view is None:
                continue  # the neighbor dropped the edge (or died)
            adj[neighbor] = self.merge(view, their_view)
        if capacity > 0 and adj:
            return MMNode(b=capacity, adj=adj), []
        return Retired(), []


class _MarkJob(_StageJob):
    """Stage 1: each node marks ``⌈b/2⌉`` incident edges."""

    stage = "mark"

    def local_views(
        self, node: str, state: MMNode, rng: random.Random
    ) -> Dict[str, MMEdge]:
        quota = (state.b + 1) // 2
        candidates = sorted(
            (nbr, e.weight) for nbr, e in state.adj.items()
        )
        chosen = set(
            choose_edges(candidates, quota, rng, self.strategy)
        )
        return {
            nbr: MMEdge(
                weight=e.weight,
                marked=frozenset({node}) if nbr in chosen else _EMPTY,
            )
            for nbr, e in state.adj.items()
        }

    def merge(self, mine: MMEdge, theirs: MMEdge) -> MMEdge:
        return MMEdge(
            weight=mine.weight,
            marked=mine.marked | theirs.marked,
            selected=_EMPTY,
        )


class _SelectJob(_StageJob):
    """Stage 2: each node selects among edges marked by its neighbors."""

    stage = "select"

    def local_views(
        self, node: str, state: MMNode, rng: random.Random
    ) -> Dict[str, MMEdge]:
        candidates = sorted(
            (nbr, e.weight)
            for nbr, e in state.adj.items()
            if nbr in e.marked
        )
        quota = max(state.b // 2, 1)
        chosen = set(
            choose_edges(candidates, quota, rng, self.strategy)
        )
        return {
            nbr: MMEdge(
                weight=e.weight,
                marked=e.marked,
                selected=frozenset({node}) if nbr in chosen else _EMPTY,
            )
            for nbr, e in state.adj.items()
        }

    def merge(self, mine: MMEdge, theirs: MMEdge) -> MMEdge:
        return MMEdge(
            weight=mine.weight,
            marked=mine.marked | theirs.marked,
            selected=mine.selected | theirs.selected,
        )


class _MatchFixJob(_StageJob):
    """Stage 3: capacity-1 nodes with two selected edges drop one."""

    stage = "matchfix"

    def local_views(
        self, node: str, state: MMNode, rng: random.Random
    ) -> Dict[str, MMEdge]:
        in_f = sorted(
            nbr for nbr, e in state.adj.items() if e.selected
        )
        demoted: set = set()
        if state.b == 1 and len(in_f) >= 2:
            keep = rng.choice(in_f)
            demoted = {nbr for nbr in in_f if nbr != keep}
        views: Dict[str, MMEdge] = {}
        for nbr, e in state.adj.items():
            selected = _EMPTY if nbr in demoted else e.selected
            views[nbr] = MMEdge(
                weight=e.weight, marked=e.marked, selected=selected
            )
        return views

    def merge(self, mine: MMEdge, theirs: MMEdge) -> MMEdge:
        # Demotion by either endpoint wins: intersect the selections.
        return MMEdge(
            weight=mine.weight,
            marked=mine.marked | theirs.marked,
            selected=mine.selected & theirs.selected,
        )


class _CleanupJob(_StageJob):
    """Stage 4: commit F to the matching, shrink budgets, drop saturated."""

    stage = "cleanup"

    def local_views(
        self, node: str, state: MMNode, rng: random.Random
    ) -> Dict[str, MMEdge]:
        matched = {nbr for nbr, e in state.adj.items() if e.selected}
        new_b = state.b - len(matched)
        views: Dict[str, MMEdge] = {}
        for nbr, e in state.adj.items():
            if nbr in matched:
                continue  # leaves the graph as part of the matching
            if new_b <= 0:
                continue  # this node is saturated: its edges die
            views[nbr] = MMEdge(weight=e.weight)
        return views

    def new_capacity(self, state: MMNode, views: Dict[str, MMEdge]) -> int:
        matched = sum(1 for e in state.adj.values() if e.selected)
        return state.b - matched

    def extra_output(
        self, node: str, state: MMNode, views: Dict[str, MMEdge]
    ) -> Iterable[KeyValue]:
        for nbr, e in state.adj.items():
            if e.selected and node < nbr:
                yield ("matched", node, nbr), e.weight

    def merge(self, mine: MMEdge, theirs: MMEdge) -> MMEdge:
        return MMEdge(weight=mine.weight)


#: Round cap of the subroutine.  StackMR also spaces the RNG streams of
#: its push rounds by it (``round_offset``), so changing it changes
#: StackMR's matchings.
MAX_ROUNDS = 10_000

_STAGES = (_MarkJob, _SelectJob, _MatchFixJob, _CleanupJob)


def mr_maximal_b_matching(
    records: List[KeyValue],
    runtime: MapReduceRuntime,
    seed: int = 0,
    strategy: str = "uniform",
    round_offset: int = 0,
) -> Tuple[Dict[EdgeKey, float], int]:
    """Run the four-stage loop to a maximal b-matching.

    Parameters
    ----------
    records:
        Initial node records from :func:`mm_records_from_adjacency`.
    round_offset:
        Distinguishes RNG streams when StackMR invokes the subroutine
        many times with the same seed.

    Returns the matched edges and the number of (four-job) rounds, run
    as the ``mr-maximal-b-matching`` loop of
    :class:`~repro.mapreduce.IterativeDriver`.
    """
    check_strategy(strategy)
    matched: Dict[EdgeKey, float] = {}
    store: ResidentStateStore = runtime.state_store("maximal-mm")
    store.load(records)
    driver = IterativeDriver(runtime, "mr-maximal-b-matching", MAX_ROUNDS)

    def stage_round(live: int, round_number: int) -> int:
        round_index = round_offset + round_number
        for stage_class in _STAGES:
            # Only cleanup emits output: the round's matched edges.
            output, _ = runtime.run_stateful(
                stage_class(seed, round_index, strategy), store, scan=True
            )
            for key, value in output:
                matched[edge_key(key[1], key[2])] = value
        return len(store)

    try:
        driver.iterate(stage_round, len(store))
    finally:
        store.close()
    return matched, driver.rounds_completed
