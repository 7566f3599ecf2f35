"""GreedyMR: the MapReduce adaptation of the greedy algorithm (§5.4).

One MapReduce job per iteration (Algorithm 3 of the paper):

* **map** — each node ``v`` proposes its ``b(v)`` incident edges of
  maximum weight to its neighbors;
* **reduce** — each node intersects its own proposals with those of its
  neighbors; mutually proposed edges enter the matching, capacities
  shrink, saturated nodes leave the graph.

Determinism: proposals use the strict total edge order of
:func:`repro.graph.edges.edge_sort_key` (weight descending, edge key
ascending), so the parallel process simulates the sequential greedy —
``greedy_mr_b_matching`` returns exactly the matching of
:func:`repro.matching.greedy.greedy_b_matching` (property-tested), and
therefore inherits its ½-approximation guarantee.  That order never
changes during a run — edges only *leave* — so each node record is
ranked under it exactly once, when it is seeded
(:func:`rank_neighbors`, via :meth:`GreedyDeltaNode.seeded`); a node's
proposals are the first ``b`` names of its ``rank`` tuple, deletions
filter the tuple, and no map or reduce method sorts or builds a sort
key (pinned by the counting test in
``tests/matching/test_greedy_kernel.py``).

Two properties the paper highlights are surfaced here:

* **any-time availability**: the matching is feasible after every
  iteration; ``value_history`` records the Figure 5 convergence curve;
* **worst case**: on an ascending-weight path the number of rounds is
  linear in the graph size (see ``repro.graph.generators.ascending_path``
  and the ablation benchmark).

Frontier rounds
---------------

The any-time curve of Figure 5 flattens fast: after the first few
rounds most nodes are *quiescent* — same capacity, same edges, same
proposals — yet Algorithm 3 as written re-ships every node record and
every proposal through the shuffle each round.  This implementation
runs the same rounds on the runtime's resident-state plane
(:meth:`~repro.mapreduce.runtime.MapReduceRuntime.run_stateful`,
frontier mode):

* node records live in a partition-aligned
  :class:`~repro.mapreduce.state.ResidentStateStore` and never enter
  the shuffle;
* each round, only nodes whose state *changed* last round run map
  — they re-propose to their neighbors and ping themselves — while each
  node's resident ``inbox`` holds the live neighbors that currently
  propose to it, so quiescent neighbors need not re-send;
* an absent inbox entry means "not proposed": a freshly seeded record's
  first broadcast ships only its ``min(b, degree)`` proposals, not a
  bit per edge;
* a record's ``props`` is the set of neighbors whose inboxes hold it
  (``None`` until its first broadcast), and ``flips`` the surviving
  neighbors whose bit changed with its last core change — the only
  ones its next map messages;
* a node that leaves the graph retires with explicit death notices
  (:class:`~repro.mapreduce.state.Retired`) to its surviving
  neighbors, where Algorithm 3 signals a death by the absence of a
  message;
* convergence is an empty delta stream.

Matchings, ``value_history``, round counts and job counts are those of
Algorithm 3 round for round (pinned by the golden convergence curves);
``iteration.quiescent_records`` meters what the frontier skipped.

The reducer decides in O(messages + b).  A ``True`` message adds an
inbox entry and a ``False`` one deletes it; the inbox is copied only
when a message changes it or a departed name is in it, and an inbox
whose contents end the round unchanged (a neighbor that proposes and
is matched in the same round) is the predecessor's, never a rebuilt
one.  Mutual proposals are tested over the at most ``b`` proposed
names, not the adjacency.  A round that brings a node no match and no
death returns the *same* record object (or, when an inbox entry or the
first ``props`` must be remembered, a
:class:`~repro.mapreduce.state.Quiet` record sharing ``adj`` and
``rank`` with its predecessor).  Only a core change — a match or a
dead neighbor — pays O(degree): one copy of ``adj`` minus the departed
names, one filter of ``rank``, and ``flips`` from
``old props ^ new props``.

Two rules the kernel must keep:

* **records are never mutated in place.**  Retry attempts and
  speculative backups re-run a task on the pre-round records, and the
  serving flush's rollback restores shallow snapshots of them; a
  reducer that wrote into its input would make all three silently
  wrong (``test_reduce_state_is_pure``);
* **a node emits its same-round matches in adjacency insertion order,
  not rank order.**  ``Matching`` keeps its value as a running float
  sum in emission order, so ``value_history`` is order-sensitive at
  the last ulp (pinned by ``tests/matching/golden_emission_order.json``,
  frozen before this kernel replaced the per-round sort).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..graph.bipartite import Graph
from ..mapreduce import (
    IterativeDriver,
    KeyValue,
    MapReduceJob,
    MapReduceRuntime,
    Quiet,
    Retired,
)
from .types import Matching, MatchingResult

__all__ = [
    "GreedyDeltaNode",
    "GreedyDeltaRoundJob",
    "default_max_rounds",
    "greedy_mr_b_matching",
    "rank_neighbors",
]


def rank_neighbors(adj: Dict[str, float]) -> Tuple[str, ...]:
    """``adj``'s neighbors, best edge first under the global edge order.

    For a fixed node ``v`` the strict total order of
    :func:`repro.graph.edges.edge_sort_key` restricted to ``v``'s own
    edges is exactly ``(-weight, neighbor)``: for ``x < y``,
    ``edge_key(v, x) < edge_key(v, y)`` wherever ``v`` sorts relative
    to the two (``(v, x) < (v, y)``, ``(x, v) < (v, y)``,
    ``(x, v) < (y, v)``).  So the ranking needs neither ``v`` nor a
    sort key — and since the order never changes during a run (edges
    only leave), it is computed once, when a record is seeded.
    """
    ranked = [(-weight, neighbor) for neighbor, weight in adj.items()]
    ranked.sort()
    return tuple([neighbor for _, neighbor in ranked])


@dataclass(frozen=True)
class GreedyDeltaNode:
    """A resident node record: residual capacity and live incident edges.

    ``rank`` lists ``adj``'s keys by :func:`rank_neighbors`; deletions
    filter it, nothing ever re-sorts it, and the node's proposals are
    its first ``b`` names.  ``adj`` keeps its own insertion order: a
    node emits same-round matches in that order, and the matching value
    is a running float sum in emission order.  Live records always have
    ``b >= 1`` and a non-empty ``adj``.

    The incremental bookkeeping that lets quiescent neighbors stay
    silent:

    * ``inbox`` — the live neighbors that currently propose to the
      node, each mapped to ``True``; a neighbor that does not propose
      has no entry;
    * ``props`` — the neighbors whose inboxes hold the node, i.e.
      ``frozenset(rank[:b])`` as of the last broadcast; ``None`` on a
      freshly seeded record, whose neighbors hold no entry for it yet,
      which tells the next map to send its proposals;
    * ``flips`` — the surviving neighbors whose bit changed with the
      last core change (``old props ^ new props``): the only ones the
      next map must message.

    Records are values: ``reduce_state`` never mutates one in place.
    Retry attempts, speculative backups and the serving flush's
    rollback all re-read the pre-round objects, so a changed container
    is always a fresh copy, while an unchanged one (``adj`` and
    ``rank`` on an inbox-only update, ``inbox`` when no entry changed)
    is shared with its predecessor.
    """

    b: int
    adj: Dict[str, float]
    rank: Tuple[str, ...]
    inbox: Dict[str, bool] = field(default_factory=dict)
    props: Optional[FrozenSet[str]] = None
    flips: Tuple[str, ...] = ()

    @classmethod
    def seeded(cls, b: int, adj: Dict[str, float]) -> "GreedyDeltaNode":
        """A fresh record for ``(b, adj)`` — the one place ranks are made."""
        return cls(b=b, adj=adj, rank=rank_neighbors(adj))


def _proposals(state: GreedyDeltaNode) -> FrozenSet[str]:
    """The neighbors of the node's top-``b`` edges by the global order.

    The set of ``rank[:b]``, the names a first broadcast sends to, so
    the reducer knows them without extra communication.
    """
    return frozenset(state.rank[: state.b])


class GreedyDeltaRoundJob(MapReduceJob):
    """One GreedyMR iteration on the resident plane (frontier mode).

    Algorithm 3's round, expressed over deltas: only changed nodes map,
    proposals from quiescent neighbors come from the resident inbox,
    and departures are announced with explicit ``("dead", node)``
    notices.
    """

    name = "greedy-round"

    def map_delta(self, node: str, delta) -> Iterable[KeyValue]:
        if isinstance(delta, Retired):
            for neighbor in delta.notify:
                yield neighbor, ("dead", node)
            return
        # The self-ping guarantees a changed node re-evaluates even
        # when all its neighbors stayed quiet (its own proposal set may
        # now form a mutual pair with a resident inbox entry).
        yield node, ("ping",)
        if delta.props is None:
            # First broadcast: only the proposals.  An absent inbox
            # entry means "not proposed", and a freshly seeded record's
            # neighbors hold no entry for it.
            for neighbor in delta.rank[: delta.b]:
                yield neighbor, ("prop", node, True)
            return
        # Incremental broadcast: neighbors whose bit did not flip
        # already hold the correct entry (or its absence); a bit that
        # went ``True -> False`` is sent so the neighbor deletes it.
        for neighbor in delta.flips:
            yield neighbor, ("prop", node, neighbor in delta.props)

    def reduce_state(
        self, node: str, state: Optional[GreedyDeltaNode], values: List
    ) -> Tuple[object, List[KeyValue]]:
        if state is None:
            return None, []  # stray messages to a departed node
        adj = state.adj
        inbox = state.inbox
        dead: Set[str] = set()
        for value in values:
            tag = value[0]
            if tag == "prop":
                neighbor, proposed = value[1], value[2]
                if neighbor in adj and (neighbor in inbox) != proposed:
                    if inbox is state.inbox:
                        inbox = dict(inbox)
                    if proposed:
                        inbox[neighbor] = True
                    else:
                        del inbox[neighbor]
            elif tag == "dead" and value[1] in adj:
                dead.add(value[1])  # the neighbor died: retract the edge
        # What the neighbors hold is what the node proposes: ``props``
        # changes only together with ``b`` and ``rank``.
        props = state.props
        if props is None:
            props = _proposals(state)
        matched = [
            neighbor
            for neighbor in props
            if neighbor in inbox and neighbor not in dead
        ]
        if not matched and not dead:
            if inbox is state.inbox and props is state.props:
                return state, []
            # Inbox-only change (or the first broadcast's bookkeeping):
            # nothing this node sends can change — remember it, stay
            # off the frontier.
            return (
                Quiet(
                    GreedyDeltaNode(
                        b=state.b,
                        adj=adj,
                        rank=state.rank,
                        inbox=inbox,
                        props=props,
                    )
                ),
                [],
            )
        mine = [neighbor for neighbor in matched if node < neighbor]
        if len(mine) > 1:
            # Same-round matches leave in adjacency order: the matching
            # value is a float sum in emission order.
            mine = [neighbor for neighbor in adj if neighbor in mine]
        outputs: List[KeyValue] = [
            (("matched", node, neighbor), adj[neighbor])
            for neighbor in mine
        ]
        departed = dead.union(matched)
        new_b = state.b - len(matched)
        new_rank = tuple([n for n in state.rank if n not in departed])
        if new_b > 0 and new_rank:
            # Core change: drop the departed names from copies, read
            # the new proposals off the filtered rank, diff against
            # what the neighbors' inboxes hold (= props), and schedule
            # messages only for the flipped bits.
            new_adj = adj.copy()
            for neighbor in departed:
                del new_adj[neighbor]
                if neighbor in inbox:
                    if inbox is state.inbox:
                        inbox = inbox.copy()
                    del inbox[neighbor]
            if inbox is not state.inbox and inbox == state.inbox:
                # A proposal that arrived and matched in this round
                # leaves the inbox as it was: share it, do not rebuild.
                inbox = state.inbox
            new_props = frozenset(new_rank[:new_b])
            return (
                GreedyDeltaNode(
                    b=new_b,
                    adj=new_adj,
                    rank=new_rank,
                    inbox=inbox,
                    props=new_props,
                    flips=tuple(sorted((props ^ new_props) - departed)),
                ),
                outputs,
            )
        # The node leaves; survivors it still held edges to must hear
        # about it (the runtime prunes peers that left this same round).
        return Retired(new_rank), outputs


def default_max_rounds(graph: Graph) -> int:
    """The round cap derived from GreedyMR's progress guarantee.

    Every GreedyMR round with live edges matches at least one edge (the
    globally maximum edge in the residual graph is mutually proposed),
    and matched edges never return — equivalently, no round's delta
    stream is empty before convergence.  Rounds are therefore bounded
    by the number of edges; the ``+ 1`` covers the empty graph.  The
    previous default (``2·|E| + 4``) was loose enough to make
    :class:`~repro.mapreduce.errors.RoundLimitExceeded` effectively
    unreachable on adversarial inputs like ``ascending_path``.
    """
    return graph.num_edges + 1


def _initial_records(graph: Graph) -> List[KeyValue]:
    """Seeded records for every capacitated node with live edges."""
    capacities = graph.capacities()
    records: List[KeyValue] = []
    for node in sorted(capacities):
        if capacities[node] <= 0 or graph.degree(node) == 0:
            continue
        adj = {
            nbr: w
            for nbr, w in graph.incident(node)
            if capacities.get(nbr, 0) > 0
        }
        if adj:
            records.append(
                (node, GreedyDeltaNode.seeded(capacities[node], adj))
            )
    return records


def greedy_mr_b_matching(
    graph: Graph,
    runtime: Optional[MapReduceRuntime] = None,
) -> MatchingResult:
    """Run GreedyMR on ``graph`` and return the matching with its history.

    ``value_history[i]`` is the (feasible) matching value after round
    ``i+1`` — the any-time property of §5.4 and the series of Figure 5.
    More than :func:`default_max_rounds` rounds raise
    :class:`~repro.mapreduce.errors.RoundLimitExceeded`.
    """
    runtime = runtime or MapReduceRuntime()
    jobs_before = runtime.jobs_executed
    records = _initial_records(graph)
    matching = Matching()
    history: List[float] = []
    if not records:
        return MatchingResult(
            matching=matching,
            algorithm="GreedyMR",
            rounds=0,
            mr_jobs=0,
            value_history=history,
        )
    driver: IterativeDriver = IterativeDriver(
        runtime, name="greedy-mr", max_rounds=default_max_rounds(graph)
    )
    job = GreedyDeltaRoundJob()
    driver.create_store(records)

    def frontier_round(deltas, round_number):
        output, deltas = driver.run_stateful(job, deltas=deltas)
        for key, weight in output:
            matching.add(key[1], key[2], weight)
        history.append(matching.value)
        return deltas

    try:
        driver.iterate(frontier_round, records)
    finally:
        driver.close()
    return MatchingResult(
        matching=matching,
        algorithm="GreedyMR",
        rounds=driver.rounds_completed,
        mr_jobs=runtime.jobs_executed - jobs_before,
        value_history=history,
    )
