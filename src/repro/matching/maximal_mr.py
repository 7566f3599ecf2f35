"""MapReduce implementation of Garrido et al.'s maximal b-matching (§5.3).

One MapReduce job per stage (marking, selection, matching, cleanup).
The graph is kept as node-keyed adjacency lists, and each stage tells
an edge's other endpoint only what this endpoint decided about it.

Edge states of the paper map onto this implementation as follows:

=====  =========================================================
``E``  ``v`` in ``u.adj`` and ``u`` in ``v.adj``, no flag set
``K``  ``u`` in ``v.marked_in`` or ``v`` in ``u.marked_in``
``F``  ``v`` in ``u.selected`` and ``u`` in ``v.selected``
``M``  edge emitted as a ``("matched", u, v)`` output record
``D``  edge absent from both endpoints' adjacency lists
=====  =========================================================

Randomness is per-node and derived from ``stable_hash((seed, round,
stage, node))``, so runs are reproducible and independent of task
placement — exactly what a deterministic-seeded Hadoop job would do.

Sparse messages
---------------

Every stage runs as a resident scan round
(:meth:`~repro.mapreduce.runtime.MapReduceRuntime.run_stateful`,
scan mode): the node records stay in a partition-aligned resident
store, and each stage's map emits one ``(neighbor, node)`` message per
non-default fact — a mark, a selection, a demotion, or (cleanup) a
death notice from a saturated node to each unmatched neighbour, next
to the ``("matched", u, v)`` output records.  A neighbour that sends
nothing left the edge unchanged.  That reading rests on one invariant:
after every cleanup the adjacency is symmetric among the nodes still
in the store (:func:`mm_records_from_adjacency` starts it so), so each
end already knows the edge's weight and its own decision, and the
message carries the other end's.  The selection and matchfix reduces
recompute the node's own choice from its per-node RNG.  Matched
edges, round counts and job counts are those of the paper's
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

__all__ = ["MMNode", "mm_records_from_adjacency", "mr_maximal_b_matching"]

_EMPTY: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class MMNode:
    """A node record: remaining capacity, live edges and round flags.

    ``adj`` maps each live neighbour to the edge weight.  ``marked_in``
    names the neighbours that marked their edge to this node (set by
    the mark stage, consumed by selection); ``selected`` names the
    edges either end selected (set by selection, trimmed by matchfix,
    committed by cleanup).
    """

    b: int
    adj: Dict[str, float]
    marked_in: FrozenSet[str] = _EMPTY
    selected: FrozenSet[str] = _EMPTY


def mm_records_from_adjacency(
    adjacency: Dict[str, Dict[str, float]],
    capacities: Dict[str, int],
) -> List[KeyValue]:
    """Build the initial node records for the subroutine.

    Nodes with no capacity or no live edges are excluded up front (their
    edges can never be matched, mirroring the centralized preprocessing),
    so the records' adjacency is symmetric whenever ``adjacency`` is.
    """
    records: List[KeyValue] = []
    for node in sorted(adjacency):
        if capacities.get(node, 0) <= 0:
            continue
        adj = {
            nbr: w
            for nbr, w in adjacency[node].items()
            if capacities.get(nbr, 0) > 0
        }
        if adj:
            records.append((node, MMNode(b=int(capacities[node]), adj=adj)))
    return records


class _StageJob(MapReduceJob):
    """Shared shape of the four stages.

    Each stage's map yields ``(neighbor, node)`` for every edge whose
    state this node changes; the reduce hands the senders to
    :meth:`update` as a set, so message order cannot matter.
    """

    stage = "abstract"

    def __init__(self, seed: int, round_index: int, strategy: str) -> None:
        self.name = f"maximal-{self.stage}"
        super().__init__()
        self.seed = seed
        self.round_index = round_index
        self.strategy = strategy

    def _rng(self, node: str) -> random.Random:
        """The node's reproducible generator for this round and stage."""
        return random.Random(
            stable_hash((self.seed, self.round_index, self.stage, node))
        )

    def _choose(
        self, node: str, candidates: List[Tuple[str, float]], count: int
    ) -> List[str]:
        """:func:`choose_edges`, building the RNG only if it is drawn."""
        rng = None
        if self.strategy != "greedy" and count < len(candidates):
            rng = self._rng(node)
        return choose_edges(candidates, count, rng, self.strategy)

    def update(self, node: str, state: MMNode, senders: FrozenSet[str]):
        """The node's record after this stage (``Retired`` if it leaves)."""
        raise NotImplementedError

    def reduce_state(self, node, state: Optional[MMNode], values: List):
        if state is None:
            # Only cleanup's ("matched", u, v) records have no state:
            # each is emitted once, by the smaller endpoint.
            return None, [(node, values[0])]
        return self.update(node, state, frozenset(values)), []


class _MarkJob(_StageJob):
    """Stage 1: each node marks ``⌈b/2⌉`` incident edges."""

    stage = "mark"

    def map_resident(self, node: str, state: MMNode) -> Iterable[KeyValue]:
        candidates = sorted(state.adj.items())
        for nbr in self._choose(node, candidates, (state.b + 1) // 2):
            yield nbr, node

    def update(self, node, state, senders):
        if senders == state.marked_in:
            return state
        return MMNode(state.b, state.adj, marked_in=senders)


class _SelectJob(_StageJob):
    """Stage 2: each node selects among edges marked by its neighbors."""

    stage = "select"

    def _picks(self, node: str, state: MMNode) -> List[str]:
        if not state.marked_in:
            return []
        candidates = sorted((nbr, state.adj[nbr]) for nbr in state.marked_in)
        return self._choose(node, candidates, max(state.b // 2, 1))

    def map_resident(self, node: str, state: MMNode) -> Iterable[KeyValue]:
        for nbr in self._picks(node, state):
            yield nbr, node

    def update(self, node, state, senders):
        if not state.marked_in and not senders:
            return state
        selected = senders.union(self._picks(node, state))
        return MMNode(state.b, state.adj, selected=selected)


class _MatchFixJob(_StageJob):
    """Stage 3: capacity-1 nodes with two selected edges drop one."""

    stage = "matchfix"

    def _demoted(self, node: str, state: MMNode) -> List[str]:
        if state.b != 1 or len(state.selected) < 2:
            return []
        in_f = sorted(state.selected)
        keep = self._rng(node).choice(in_f)
        return [nbr for nbr in in_f if nbr != keep]

    def map_resident(self, node: str, state: MMNode) -> Iterable[KeyValue]:
        for nbr in self._demoted(node, state):
            yield nbr, node

    def update(self, node, state, senders):
        # Demotion by either endpoint wins.
        dropped = senders.union(self._demoted(node, state))
        if not dropped:
            return state
        return MMNode(state.b, state.adj, selected=state.selected - dropped)


class _CleanupJob(_StageJob):
    """Stage 4: commit F to the matching, shrink budgets, drop saturated."""

    stage = "cleanup"

    def map_resident(self, node: str, state: MMNode) -> Iterable[KeyValue]:
        for nbr in sorted(state.selected):
            if node < nbr:
                yield ("matched", node, nbr), state.adj[nbr]
        if len(state.selected) >= state.b:
            # Saturated: a death notice to every unmatched neighbour.
            # The reduce folds notices into a set, so their order (and
            # the string hash seed behind ``selected``) cannot reach
            # any output.
            for nbr in state.adj:
                if nbr not in state.selected:
                    yield nbr, node

    def update(self, node, state, senders):
        b = state.b - len(state.selected)
        if b <= 0:
            return Retired()
        if not state.selected and not senders:
            return state
        adj = {
            nbr: w
            for nbr, w in state.adj.items()
            if nbr not in state.selected and nbr not in senders
        }
        return MMNode(b, adj) if adj else Retired()


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
