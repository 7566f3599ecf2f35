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
(:func:`rank_neighbors`, via :meth:`GreedyNode.seeded`); a node's
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

Delta rounds (the default, ``delta=True``)
------------------------------------------

The any-time curve of Figure 5 flattens fast: after the first few
rounds most nodes are *quiescent* — same capacity, same edges, same
proposals — yet the classic formulation re-ships every node record and
every proposal through the shuffle each round.  The delta path runs the
same Algorithm 3 on the runtime's delta iteration plane instead
(:meth:`~repro.mapreduce.runtime.MapReduceRuntime.run_stateful`,
frontier mode):

* node records live in a partition-aligned
  :class:`~repro.mapreduce.state.ResidentStateStore` and never enter
  the shuffle;
* each round, only nodes whose state *changed* last round run map
  — they re-propose to their neighbors and ping themselves — while each
  node's resident ``inbox`` caches the last proposal received from
  every live neighbor, so quiescent neighbors need not re-send;
* a record's ``props`` is the proposal set its neighbors' inboxes
  currently hold for it (``None`` until its first broadcast), and
  ``flips`` the surviving neighbors whose bit changed with its last
  core change — the only ones its next map messages;
* a node that leaves the graph retires with explicit death notices
  (:class:`~repro.mapreduce.state.Retired`) to its surviving
  neighbors, replacing the full path's absence-of-message signal;
* convergence is an empty delta stream.

The reducer decides in O(messages + b).  It copies the inbox only when
a received bit differs from the cached one and tests mutual proposals
over the at most ``b`` proposed names, not the adjacency.  A round that
brings a node no match and no death returns the *same* record object
(or, when a bit or the first ``props`` must be remembered, a
:class:`~repro.mapreduce.state.Quiet` record sharing ``adj`` and
``rank`` with its predecessor).  Only a core change — a match or a
dead neighbor — pays O(degree): one copy of ``adj`` and ``inbox``
minus the departed names, one filter of ``rank``, and ``flips`` from
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

The two paths produce bit-identical matchings, ``value_history``,
round counts, and job counts (property-tested and pinned by the golden
convergence curves); only the shuffle volume differs, which is the
point — ``iteration.quiescent_records`` meters what the frontier
skipped.
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
    "GreedyNode",
    "GreedyDeltaNode",
    "GreedyRoundJob",
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
class GreedyNode:
    """A node record: residual capacity and live incident edges.

    ``rank`` lists ``adj``'s keys by :func:`rank_neighbors`; deletions
    filter it, nothing ever re-sorts it, and the node's proposals are
    its first ``b`` names.  ``adj`` keeps its own insertion order: a
    node emits same-round matches in that order, and the matching value
    is a running float sum in emission order.  Live records always have
    ``b >= 1`` and a non-empty ``adj``.
    """

    b: int
    adj: Dict[str, float]
    rank: Tuple[str, ...]

    @classmethod
    def seeded(cls, b: int, adj: Dict[str, float]):
        """A fresh record for ``(b, adj)`` — the one place ranks are made."""
        return cls(b=b, adj=adj, rank=rank_neighbors(adj))


@dataclass(frozen=True)
class GreedyDeltaNode(GreedyNode):
    """A resident node record of the delta path.

    On top of :class:`GreedyNode`'s fields it carries the incremental
    bookkeeping that lets quiescent neighbors stay silent:

    * ``inbox`` — the last proposal bit received from each live
      neighbor (the full-state path re-receives every bit every round);
    * ``props`` — the proposal set the node's neighbors currently hold
      in *their* inboxes, i.e. ``frozenset(rank[:b])`` as of the last
      broadcast; ``None`` on a freshly seeded record, which tells the
      next map to broadcast every bit;
    * ``flips`` — the surviving neighbors whose bit changed with the
      last core change (``old props ^ new props``): the only ones the
      next map must message.

    Records are values: ``reduce_state`` never mutates one in place.
    Retry attempts, speculative backups and the serving flush's
    rollback all re-read the pre-round objects, so a changed container
    is always a fresh copy, while an unchanged one (``adj`` and
    ``rank`` on an inbox-only update) is shared with its predecessor.
    """

    inbox: Dict[str, bool] = field(default_factory=dict)
    props: Optional[FrozenSet[str]] = None
    flips: Tuple[str, ...] = ()


def _proposals(state: GreedyNode) -> FrozenSet[str]:
    """The neighbors of the node's top-``b`` edges by the global order.

    Called identically from map and reduce, so both phases agree without
    extra communication.
    """
    return frozenset(state.rank[: state.b])


class GreedyRoundJob(MapReduceJob):
    """One GreedyMR iteration (Algorithm 3's parallel loop body)."""

    name = "greedy-round"

    def map(self, node: str, state: GreedyNode) -> Iterable[KeyValue]:
        proposals = _proposals(state)
        yield node, ("self", state)
        for neighbor in state.adj:
            yield neighbor, ("prop", node, neighbor in proposals)

    def reduce(self, node: str, values: List) -> Iterable[KeyValue]:
        state: Optional[GreedyNode] = None
        neighbor_proposals: Dict[str, bool] = {}
        for value in values:
            if value[0] == "self":
                state = value[1]
            else:
                _, neighbor, proposed = value
                neighbor_proposals[neighbor] = proposed
        if state is None:
            # This node's record died in an earlier round; stray proposal
            # messages are ignored (the sender drops the edge likewise).
            return
        my_proposals = _proposals(state)
        new_adj: Dict[str, float] = {}
        matched: List[Tuple[str, float]] = []
        for neighbor, weight in state.adj.items():
            if neighbor not in neighbor_proposals:
                continue  # the neighbor died: retract the edge
            if neighbor in my_proposals and neighbor_proposals[neighbor]:
                matched.append((neighbor, weight))
            else:
                new_adj[neighbor] = weight
        for neighbor, weight in matched:
            if node < neighbor:
                yield ("matched", node, neighbor), weight
        new_b = state.b - len(matched)
        if new_b > 0 and new_adj:
            new_rank = tuple([n for n in state.rank if n in new_adj])
            yield node, GreedyNode(b=new_b, adj=new_adj, rank=new_rank)


class GreedyDeltaRoundJob(MapReduceJob):
    """One GreedyMR iteration on the delta plane (frontier mode).

    Same round semantics as :class:`GreedyRoundJob`, expressed over
    deltas: only changed nodes map, proposals from quiescent neighbors
    come from the resident inbox, and departures are announced with
    explicit ``("dead", node)`` notices instead of message absence.
    The job name is shared so job logs and counter groups line up
    across the two paths.
    """

    name = "greedy-round"

    def map_delta(self, node: str, delta) -> Iterable[KeyValue]:
        if isinstance(delta, Retired):
            for neighbor in delta.notify:
                yield neighbor, ("dead", node)
            return
        # The self-ping guarantees a changed node re-evaluates even
        # when all its neighbors stayed quiet (its own proposal set may
        # now form a mutual pair with a cached inbox entry).
        yield node, ("ping",)
        if delta.props is None:
            # First broadcast: every neighbor needs every bit.
            proposals = _proposals(delta)
            for neighbor in delta.adj:
                yield neighbor, ("prop", node, neighbor in proposals)
            return
        # Incremental broadcast: neighbors whose bit did not flip
        # already hold the correct value in their inbox.
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
                if neighbor in adj and inbox.get(neighbor) != proposed:
                    if inbox is state.inbox:
                        inbox = dict(inbox)
                    inbox[neighbor] = proposed
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
            if inbox.get(neighbor) and neighbor not in dead
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
            if inbox is state.inbox:
                inbox = inbox.copy()
            for neighbor in departed:
                del new_adj[neighbor]
                inbox.pop(neighbor, None)
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
    """The round cap derived from the delta plane's progress guarantee.

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


def _initial_records(graph: Graph, record_class) -> List[KeyValue]:
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
                (node, record_class.seeded(capacities[node], adj))
            )
    return records


def _collect_round(
    output: List[KeyValue], matching: Matching
) -> List[KeyValue]:
    """Split one round's output into matches (applied) and records."""
    records: List[KeyValue] = []
    for key, value in output:
        if isinstance(key, tuple) and key[0] == "matched":
            matching.add(key[1], key[2], value)
        else:
            records.append((key, value))
    return records


def greedy_mr_b_matching(
    graph: Graph,
    runtime: Optional[MapReduceRuntime] = None,
    max_rounds: Optional[int] = None,
    delta: bool = True,
    on_round_end=None,
) -> MatchingResult:
    """Run GreedyMR on ``graph`` and return the matching with its history.

    ``value_history[i]`` is the (feasible) matching value after round
    ``i+1`` — the any-time property of §5.4 and the series of Figure 5.

    ``delta`` selects the execution plane: ``True`` (default) runs
    resident-state frontier rounds, ``False`` the classic
    full-state-per-round formulation.  Matchings, ``value_history``,
    round counts, and job counts are bit-identical either way; only
    shuffle volume and wall-clock differ (see
    ``benchmarks/bench_matching_rounds.py``).  ``on_round_end(state,
    round_number)`` is forwarded to the :class:`IterativeDriver` for
    per-round instrumentation.
    """
    runtime = runtime or MapReduceRuntime()
    if max_rounds is None:
        max_rounds = default_max_rounds(graph)
    jobs_before = runtime.jobs_executed
    records = _initial_records(
        graph, GreedyDeltaNode if delta else GreedyNode
    )
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
        runtime,
        name="greedy-mr",
        max_rounds=max_rounds,
        on_round_end=on_round_end,
    )
    if delta:
        job = GreedyDeltaRoundJob()
        driver.create_store(records)

        def step(deltas, round_number):
            output, next_deltas = driver.run_stateful(job, deltas=deltas)
            _collect_round(output, matching)
            history.append(matching.value)
            return next_deltas, not next_deltas

        try:
            driver.iterate(step, records)
        finally:
            driver.close()
    else:
        job = GreedyRoundJob()

        def step(records, round_number):
            output = runtime.run(job, records)
            next_records = _collect_round(output, matching)
            history.append(matching.value)
            return next_records, not next_records

        driver.iterate(step, records)
    return MatchingResult(
        matching=matching,
        algorithm="GreedyMR",
        rounds=driver.rounds_completed,
        mr_jobs=runtime.jobs_executed - jobs_before,
        value_history=history,
    )
