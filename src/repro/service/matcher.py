"""Incremental GreedyMR: re-decide only the rank suffixes a batch can reach.

:class:`OnlineMatcher` keeps two :class:`~repro.mapreduce.state.
ResidentStateStore`\\ s alive across MapReduce jobs, both created once
through :meth:`~repro.mapreduce.runtime.MapReduceRuntime.state_store`
and aligned with the runtime's shuffle partitioning:

* the **graph store** — the authoritative candidate graph, one
  ``node -> (capacity, {neighbor: weight})`` record per live node.
  This is the store that stays *populated* between flushes: past the
  runtime's spill threshold it parks out-of-core, and per-event
  admission then flows through the store's single-key apply path
  (:meth:`~repro.mapreduce.state.ResidentStateStore.put` /
  ``discard`` overlays, :meth:`~repro.mapreduce.state.
  ResidentStateStore.get` point reads) — touching one key never
  reloads a parked partition;
* the **match store** — GreedyMR's working records, seeded from the
  repair plan each flush and drained by frontier rounds
  (:meth:`~repro.mapreduce.runtime.MapReduceRuntime.run_stateful`
  from an externally-owned store).  It is empty between flushes: a
  converged GreedyMR run has retired every record.

Correctness anchor — *why incremental equals cold batch*
--------------------------------------------------------

Sequential greedy decides edges one by one in the strict, tie-free
order of :func:`~repro.graph.edges.edge_sort_key` — an edge's **rank**
``(-w, edge_key(u, v))`` — and takes an edge iff both endpoints still
have a free slot.  The result is unique, and a decision at rank ρ
depends only on decisions ranked before ρ at the same two endpoints.
So a change at rank ρ can never alter an edge ranked before ρ, and it
cannot pass through a node that better-ranked matched edges already
saturate.  A flush turns that into a **repair plan**: a driver-side map
``node -> threshold rank`` meaning *this node's incident edges ranked at
or after the threshold must be re-decided; everything before it,
matched or not, stands*.

Write ``M`` for the matching before the batch (``_partners``), ``b'``
for the capacities after it, and call ``y`` **blocked at ρ** when it is
not planned at a threshold ≤ ρ and already holds ≥ ``b'(y)`` edges of
``M`` ranked before ρ.  Equivalently, ``y``'s **full-at rank** — the
rank of its ``b'(y)``-th best ``M``-edge; before every rank when
``b'(y) ≤ 0``, after every rank when ``y`` holds fewer than ``b'(y)``
— is below ρ.  The plan (:meth:`OnlineMatcher._repair_plan`)
is the least map closed under three rules:

1. *Sources*, read off the pre-batch record of every node the batch
   wrote (snapshotted on its first write):

   * a removed or re-weighted edge matters only if it was in ``M`` —
     both live endpoints are planned at its old rank;
   * an added or re-weighted edge at its new rank ρ plans both
     endpoints at ρ unless one of them is blocked at ρ;
   * a capacity ``b -> b'`` at ``s`` whose ``M``-edges rank
     ``m0 < m1 < ...``: raised with ``s`` saturated → the first edge
     of ``s`` ranked after ``m[b-1]`` (every edge when ``b = 0``);
     lowered with more than ``b'`` matched → ``m[b']``; else nothing.

   A retired node's partners are sources through the removed-edge
   rule.  Removing unmatched edges, retiring an unmatched node, or
   raising the capacity of an unsaturated node plans nothing — zero
   rounds, zero jobs.
2. *Closure*: if ``x`` is planned at ``t``, every edge ``(x, y)`` of the
   new graph ranked ρ ≥ ``t`` plans ``y`` at ρ unless ``y`` is blocked
   at ρ (a min-heap on the threshold: each node settles when popped).
   Neither ``M`` nor ``b'`` changes while the plan is built, so each
   node's full-at rank is computed once, the first time the plan asks
   about it, and "blocked" is then one comparison.
3. *Seeding* (:meth:`OnlineMatcher._reconverge`): a planned ``x`` keeps
   its ``M``-edges ranked before ``t(x)`` and drops the rest (their
   partners are planned at or before that rank — asserted); its residual
   capacity is ``b'(x)`` minus the kept; its **dirty** adjacency is the
   edges ranked ≥ ``t(x)`` whose other end is planned at or before that
   rank with residual capacity left.  Nodes with residual capacity and
   a dirty edge are seeded as fresh
   :class:`~repro.matching.greedy_mr.GreedyDeltaNode` records (ranked
   once, by the same :meth:`~repro.matching.greedy_mr.GreedyDeltaNode.seeded`
   cold-batch GreedyMR seeds with) and the unchanged GreedyMR frontier
   rounds run until the delta stream drains.

*Induction over the rank order of the new graph.*  Call an edge *clean*
when it ranks before both endpoints' thresholds (unplanned = +∞),
*dirty* when at or after both, *half-dirty* otherwise.

* A **half-dirty** edge ``(x, y)`` at ρ, ``t(x) ≤ ρ < t(y)``: the
  closure did not plan ``y`` at ρ, so ``y`` is blocked — it holds
  ``b'(y)`` edges of ``M`` ranked before ρ, all clean (were one of them
  dirty at its other end, the closure would have planned ``y`` there, or
  found it over capacity, which the lowered-capacity source plans), so
  by induction all matched: ``y`` is full, the edge is unmatched now,
  and it was not in ``M`` either.
* A **clean** edge that the batch added has a blocked endpoint (else
  rule 1 planned it) and is unmatched for the same reason.  A clean edge
  that existed before sees, at each endpoint ``x``, exactly the
  ``M``-edges ranked before it — clean ones are unchanged by induction,
  half-dirty ones are unmatched then and now, removed matched ones would
  have planned ``x`` earlier — and the capacity sources guarantee that
  count leaves a free slot under ``b'`` iff it did under ``b`` wherever
  the edge's old decision could depend on it.  Its decision stands.
* So when the order reaches ``t(x)``, ``x`` holds exactly its kept
  edges, i.e. the residual capacity it is seeded with; from there on its
  clean and half-dirty edges are unmatched, and what remains is the
  sequential greedy on the **dirty sub-instance with residual
  capacities** — the tail of the cold run — which GreedyMR computes.

Bootstrap is the same path with every node planned before every rank.
The re-converged matching therefore equals a cold-batch GreedyMR run on
the final graph — same edges, same weights — for *any* event sequence
(property-tested across executors × filesystems, ``verify()`` after
every flush, in ``tests/service/test_matcher.py``).  The closure is
conservative: it stops at nodes saturated *before* the batch, not at
the nodes whose decisions really change, so ``affected_nodes`` is an
upper bound on the true repair region; the ``reconverge.changed_nodes``
counter reports the planned nodes whose partners did change, read off
the flush's journal of partner writes.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graph import Graph
from ..mapreduce import IterativeDriver, MapReduceRuntime, canonical_bytes
from ..mapreduce.faults import FAULT_COUNTER_GROUP, InjectedFault, RetryPolicy
from ..telemetry.metrics import TIMING_BUCKETS
from ..matching.greedy_mr import GreedyDeltaNode, GreedyDeltaRoundJob
from .events import (
    Arrival,
    CapacityChange,
    EdgeArrival,
    Event,
    EventError,
    plain_graph,
    validate_event,
)

__all__ = ["FlushReport", "OnlineMatcher", "SERVICE_COUNTER_GROUP"]

#: Counter group the matcher meters into (on the runtime's counters).
SERVICE_COUNTER_GROUP = "service"

#: One resident graph record: ``(capacity, {neighbor: weight})``.
NodeRecord = Tuple[int, Dict[str, float]]

#: An edge's place in the strict total order greedy decides in
#: (:func:`~repro.graph.edges.edge_sort_key`); also a plan threshold.
Rank = Tuple

#: The threshold before every rank: re-decide the node's whole ranking.
_WHOLE_RANKING: Rank = (-math.inf,)

#: The full-at rank of a node its pre-batch matching cannot fill: after
#: every rank, so it is never blocked.
_NEVER_FULL: Rank = (math.inf,)


def _rank(u: str, v: str, weight: float) -> Rank:
    """``edge_sort_key(edge_key(u, v), weight)`` without the self-loop
    check (admission rejects self-loops); hot loops inline this."""
    return (-weight, (u, v) if u < v else (v, u))


@dataclass(frozen=True)
class FlushReport:
    """What one micro-batch flush did.

    ``rejected`` pairs each invalid event with its reason.
    ``dead_lettered`` is always ``0``: the matcher keeps no dead-letter
    queue (an event either is invalid, and rejected, or is admitted,
    retried with its whole batch on a transient failure).  The field
    stays for readers of the report.
    """

    admitted: int
    rejected: Tuple[Tuple[Event, str], ...]
    affected_nodes: int
    rounds: int
    seconds: float
    dead_lettered: int = 0


class OnlineMatcher:
    """The synchronous engine under the asyncio service facade.

    Parameters
    ----------
    runtime:
        The simulated cluster every re-convergence runs on (fresh
        default if omitted).  Both resident stores are created through
        it, so admission and frontier rounds follow its backend /
        storage / spill-threshold configuration.
    graph:
        Optional bootstrap graph (a :class:`~repro.graph.
        BipartiteGraph` is accepted; sides are not needed for events).
        Its records are loaded into the graph store — the caller's
        graph is never referenced afterwards.
    """

    def __init__(
        self,
        runtime: Optional[MapReduceRuntime] = None,
        graph: Optional[Graph] = None,
    ) -> None:
        self.runtime = runtime or MapReduceRuntime()
        self.graph_store = self.runtime.state_store("serve-graph")
        self.match_store = self.runtime.state_store("serve-matching")
        self._job = GreedyDeltaRoundJob()
        self._partners: Dict[str, Dict[str, float]] = {}
        self._num_edges = 0
        #: Per-flush read cache over the graph store: point reads on a
        #: parked partition scan its file, so each flush remembers the
        #: records it already fetched (cleared at flush end to keep the
        #: driver's footprint bounded by the planned neighborhood).
        self._cache: Dict[str, Optional[NodeRecord]] = {}
        #: Pre-batch record of every node the open batch wrote (``None``
        #: for a node that did not exist), taken on its first write —
        #: the repair plan's sources are the difference to the final
        #: records.  Emptied at flush end and on rollback.
        self._before: Dict[str, Optional[NodeRecord]] = {}
        #: Wall-clock of every event-batch flush, as a volatile
        #: sample-keeping histogram on the runtime's registry
        #: (diagnostic, like the phase gauges — never part of the
        #: determinism contract).  ``flush_seconds`` below exposes the
        #: raw samples in flush order.
        self._flush_hist = self.runtime.metrics.histogram(
            SERVICE_COUNTER_GROUP,
            "flush_seconds",
            TIMING_BUCKETS,
            volatile=True,
            keep_samples=True,
        )
        #: Recovery configuration piggybacks on the runtime's: the
        #: same retry budget that re-executes tasks also re-admits
        #: faulted flush attempts, and the same fault plan injects
        #: mid-reconvergence faults.
        self._retry_policy = self.runtime.retry_policy
        self._fault_plan = self.runtime.fault_plan
        self._flush_index = 0
        #: Copy-on-write journal of the open flush transaction: every
        #: node whose partner dict the flush wrote, mapped to that dict
        #: as it was before the first write (``None``: it had none).
        #: ``None`` outside a flush; the edge count is snapshotted
        #: beside it.
        self._journal: Optional[
            Dict[str, Optional[Dict[str, float]]]
        ] = None
        self._txn_num_edges = 0
        bootstrap = plain_graph(graph)
        if bootstrap.num_nodes:
            self._num_edges = bootstrap.num_edges
            self.graph_store.load(
                (node, (bootstrap.capacity(node),
                        dict(bootstrap.incident(node))))
                for node in sorted(bootstrap.nodes())
            )
            rounds = self._reconverge(
                dict.fromkeys(bootstrap.nodes(), _WHOLE_RANKING)
            )
            self._meter("bootstrap.rounds", rounds)
            self._end_flush()

    # -- graph-store access ------------------------------------------------

    def _node(self, node: str) -> Optional[NodeRecord]:
        """The node's graph record via the per-flush read cache."""
        try:
            return self._cache[node]
        except KeyError:
            record = self.graph_store.get(node)
            self._cache[node] = record
            return record

    def _put_node(self, node: str, record: NodeRecord) -> None:
        self._before.setdefault(node, self._node(node))
        self.graph_store.put(canonical_bytes(node), node, record)
        self._cache[node] = record

    def _discard_node(self, node: str) -> None:
        self._before.setdefault(node, self._node(node))
        self.graph_store.discard(canonical_bytes(node))
        self._cache[node] = None

    def _end_flush(self) -> None:
        self._cache.clear()
        self._before.clear()
        # Both stores follow the runtime's spill threshold between
        # flushes: the graph store parks its (populated) partitions,
        # so the next batch's admission exercises the single-key path.
        self.graph_store.maybe_park()
        self.match_store.maybe_park()

    # -- transactional flush ----------------------------------------------

    def _begin_flush_txn(self) -> None:
        """Open what a failed flush attempt must restore.

        Both resident stores open a transaction (shallow snapshots;
        parked files are left untouched until commit).  The
        driver-side matching is not copied: ``_partners`` opens an
        empty journal that :meth:`_journal_partners` fills on each
        node's first write, so the cost is O(touched nodes), not
        O(matching).  The edge count is one integer.
        """
        self.graph_store.begin_transaction()
        self.match_store.begin_transaction()
        self._journal = {}
        self._txn_num_edges = self._num_edges

    def _journal_partners(self, node: str) -> None:
        """Record ``node``'s partner dict before the open flush's first
        write to it (a no-op outside a flush, i.e. at bootstrap)."""
        journal = self._journal
        if journal is not None and node not in journal:
            peers = self._partners.get(node)
            journal[node] = None if peers is None else dict(peers)

    def _commit_flush_txn(self) -> int:
        """Commit both stores and drop the journal; returns how many
        live nodes' partner dicts the flush changed (the journal's
        touched nodes are the only candidates)."""
        self.graph_store.commit_transaction()
        self.match_store.commit_transaction()
        assert self._journal is not None
        changed = sum(
            1
            for node, peers in self._journal.items()
            if self._partners.get(node) != peers
            and self.graph_store.contains(node)
        )
        self._journal = None
        return changed

    def _rollback_flush_txn(self) -> None:
        """Restore both stores, and put back exactly the partner dicts
        the journal recorded — each node's prior dict, in its own
        order, or its absence.  O(touched nodes).  Where in
        ``_partners`` a restored key sits is not state: every reader
        looks nodes up or sorts them (:meth:`matching_edges`)."""
        self.graph_store.rollback_transaction()
        self.match_store.rollback_transaction()
        assert self._journal is not None
        for node, peers in self._journal.items():
            if peers is None:
                self._partners.pop(node, None)
            else:
                self._partners[node] = peers
        self._num_edges = self._txn_num_edges
        self._journal = None
        # The read cache may hold rolled-back records, and the retry
        # snapshots its writes afresh.
        self._cache.clear()
        self._before.clear()

    def flush(self, events: List[Event]) -> FlushReport:
        """Admit one micro-batch and re-converge once for all of it.

        Events apply in order; an invalid event is rejected (reported
        with its reason) without disturbing the rest of the batch or
        leaving partial state behind.  All admitted events share a
        single incremental re-convergence — the coalescing the
        service's micro-batching exists to buy.

        The flush is **transactional**: a transient failure anywhere —
        admission, re-convergence rounds, storage — rolls the graph
        and match stores and the driver-side matching back to their
        pre-flush state, and the whole batch re-admits on the next
        attempt (budgeted by the runtime's
        :class:`~repro.mapreduce.faults.RetryPolicy`; one attempt
        without a policy).  Validation is deterministic, so a rejected
        event is rejected on every attempt and never retried.  When
        every attempt fails, the last exception propagates — with the
        stores still at the pre-flush state.
        """
        policy = self._retry_policy or RetryPolicy(max_attempts=1)
        started = time.perf_counter()

        def attempt_fn(attempt: int) -> FlushReport:
            self._begin_flush_txn()
            try:
                report = self._flush_once(events, attempt)
            except BaseException:
                # Even a non-retryable failure (validation bugs,
                # round-limit blowups) leaves consistent pre-flush
                # state behind.
                self._rollback_flush_txn()
                raise
            return report, self._commit_flush_txn()

        report, changed = policy.run(
            attempt_fn, lambda _retry: self._meter_fault("flush.retries")
        )
        self._flush_index += 1
        seconds = time.perf_counter() - started
        self._flush_hist.observe(seconds)
        self._meter("events.admitted", report.admitted)
        self._meter("events.rejected", len(report.rejected))
        self._meter("batches.flushed", 1)
        self._meter("reconverge.rounds", report.rounds)
        self._meter("reconverge.affected_nodes", report.affected_nodes)
        self._meter("reconverge.changed_nodes", changed)
        return FlushReport(
            admitted=report.admitted,
            rejected=report.rejected,
            affected_nodes=report.affected_nodes,
            rounds=report.rounds,
            seconds=seconds,
        )

    def _flush_once(self, events: List[Event], attempt: int) -> FlushReport:
        """One flush attempt inside an open transaction."""
        plan = self._fault_plan
        admitted = 0
        rejected: List[Tuple[Event, str]] = []
        with self.runtime._span("flush", kind="flush", events=len(events)):
            stage_started = time.perf_counter()
            with self.runtime._span("admit", kind="stage"):
                for event in events:
                    try:
                        self._admit(event)
                    except EventError as exc:
                        rejected.append((event, str(exc)))
                        continue
                    admitted += 1
            self._stage_gauge("admit").add(
                time.perf_counter() - stage_started
            )
            stage_started = time.perf_counter()
            inject = plan is not None and plan.flush_fault(
                self._flush_index, attempt
            )
            with self.runtime._span("reconverge", kind="stage"):
                repair = self._repair_plan()
                rounds = self._reconverge(repair, inject_fault=inject)
            self._stage_gauge("reconverge").add(
                time.perf_counter() - stage_started
            )
            self._end_flush()
        return FlushReport(
            admitted=admitted,
            rejected=tuple(rejected),
            affected_nodes=len(repair),
            rounds=rounds,
            seconds=0.0,  # the committed report carries the real time
        )

    def _meter_fault(self, name: str, value: int = 1) -> None:
        self.runtime.counters.increment(FAULT_COUNTER_GROUP, name, value)

    # -- event admission ---------------------------------------------------

    def _admit(self, event: Event) -> None:
        """Validate + apply one event to the graph store.

        :func:`~repro.service.events.validate_event` runs before the
        first write, so a rejected event leaves no partial state.
        Every write goes through ``_put_node``/``_discard_node``, which
        is where the repair plan's pre-batch snapshots are taken.
        """
        validate_event(event, self.graph_store.contains)
        if isinstance(event, Arrival):
            self._put_node(
                event.node, (event.capacity, dict(event.edges))
            )
            for neighbor, weight in event.edges:
                capacity, adj = self._node(neighbor)
                self._put_node(
                    neighbor,
                    (capacity, {**adj, event.node: weight}),
                )
            self._num_edges += len(event.edges)
        elif isinstance(event, EdgeArrival):
            cap_u, adj_u = self._node(event.u)
            cap_v, adj_v = self._node(event.v)
            if event.v not in adj_u:
                self._num_edges += 1
            self._put_node(
                event.u, (cap_u, {**adj_u, event.v: event.weight})
            )
            self._put_node(
                event.v, (cap_v, {**adj_v, event.u: event.weight})
            )
        elif isinstance(event, CapacityChange):
            _, adj = self._node(event.node)
            self._put_node(event.node, (event.capacity, adj))
        else:
            _, adj = self._node(event.node)
            for neighbor in adj:
                capacity, nbr_adj = self._node(neighbor)
                nbr_adj = dict(nbr_adj)
                nbr_adj.pop(event.node, None)
                self._put_node(neighbor, (capacity, nbr_adj))
            self._discard_node(event.node)
            self._num_edges -= len(adj)

    # -- the repair plan ---------------------------------------------------

    def _full_at(self, node: str) -> Rank:
        """The rank of ``node``'s ``b'``-th best pre-batch matched edge:
        ``node`` is saturated by matched edges ranked before ρ (which
        therefore all stand) iff this is below ρ.  ``_WHOLE_RANKING``
        when ``b' ≤ 0``, ``_NEVER_FULL`` when it holds fewer than
        ``b'`` matched edges."""
        capacity = self._node(node)[0]
        if capacity <= 0:
            return _WHOLE_RANKING
        peers = self._partners.get(node)
        if peers is None or len(peers) < capacity:
            return _NEVER_FULL
        return sorted(
            (-weight, (node, peer) if node < peer else (peer, node))
            for peer, weight in peers.items()
        )[capacity - 1]

    def _repair_plan(self) -> Dict[str, Rank]:
        """``node -> threshold rank`` for the open batch.

        Sources from the pre-batch snapshots, then the closure over the
        new graph — rules 1 and 2 of the module docstring.  The plan is
        the least map closed under them, so it does not depend on the
        order sources are read in; iteration is sorted anyway.

        ``_partners`` and the capacities are read-only here, so each
        node's full-at rank (:meth:`_full_at`) is memoised for this
        call only.
        """
        plan: Dict[str, Rank] = {}
        heap: List[Tuple[Rank, str]] = []
        full_at: Dict[str, Rank] = {}

        def lower(node: str, rank: Rank) -> None:
            threshold = plan.get(node)
            if threshold is None or rank < threshold:
                plan[node] = rank
                heapq.heappush(heap, (rank, node))

        def full(node: str) -> Rank:
            at = full_at.get(node)
            if at is None:
                at = full_at[node] = self._full_at(node)
            return at

        def blocked(node: str, rank: Rank) -> bool:
            threshold = plan.get(node)
            if threshold is not None and threshold <= rank:
                return False
            return full(node) < rank

        for node, old in sorted(self._before.items()):
            new = self._node(node)
            old_adj = old[1] if old is not None else {}
            new_adj = new[1] if new is not None else {}
            matched = self._partners.get(node, {})
            for peer in old_adj:
                if peer in matched and new_adj.get(peer) != old_adj[peer]:
                    rank = _rank(node, peer, matched[peer])
                    for end in (node, peer):
                        if self._node(end) is not None:
                            lower(end, rank)
            for peer, weight in new_adj.items():
                if old_adj.get(peer) != weight:
                    rank = _rank(node, peer, weight)
                    if not (blocked(node, rank) or blocked(peer, rank)):
                        lower(node, rank)
                        lower(peer, rank)
            if old is None or new is None or old[0] == new[0]:
                continue
            held = sorted(
                _rank(node, peer, weight)
                for peer, weight in matched.items()
            )
            if new[0] < len(held):
                lower(node, held[new[0]])  # overfull from here on
            elif new[0] > old[0] and len(held) == old[0]:
                # Was saturated: every edge it lost only for want of
                # a slot ranks after its last matched one.
                last = held[-1] if held else _WHOLE_RANKING
                for peer, weight in new_adj.items():
                    rank = _rank(node, peer, weight)
                    if rank > last:
                        lower(node, rank)
        while heap:
            threshold, node = heapq.heappop(heap)
            if plan[node] != threshold:
                continue  # settled earlier at a better rank
            for peer, weight in self._node(node)[1].items():
                rank = (-weight, (node, peer) if node < peer else (peer, node))
                if rank < threshold:
                    continue
                current = plan.get(peer)
                if current is not None and current <= rank:
                    continue  # lowering there would be a no-op
                if not full(peer) < rank:  # not blocked: lower it
                    plan[peer] = rank
                    heapq.heappush(heap, (rank, peer))
        return plan

    # -- incremental re-convergence ----------------------------------------

    def _reconverge(
        self, plan: Dict[str, Rank], inject_fault: bool = False
    ) -> int:
        """Re-decide the planned rank suffixes; returns rounds run.

        Rule 3 of the module docstring: drop each planned node's
        matched edges from its threshold on, seed the dirty
        sub-instance with residual capacities, run frontier rounds as
        the ``online-matching`` loop of :class:`~repro.mapreduce.
        IterativeDriver` (under the flush's ``reconverge`` span when
        traced).  Its ``online-matching.rounds`` counter counts the
        rounds of every attempt, rolled back or not; the service's
        ``reconverge.rounds`` counts committed flushes only.  The round
        is GreedyMR's, but it folds into ``_partners`` and runs on the
        matcher's own match store, so it does not share GreedyMR's body.

        ``inject_fault`` makes the re-convergence fail transiently
        after its first round's partner updates (or immediately when
        there is nothing to converge) — the worst spot for the flush
        transaction: stores and driver-side matching are maximally
        mid-update.
        """
        assert not len(self.match_store), "match store did not drain"
        for node in self._before:
            if self._node(node) is None:  # retired: nothing stands
                for peer in list(self._partners.get(node, ())):
                    self._unmatch(node, peer)
        for node, threshold in plan.items():
            peers = self._partners.get(node)
            if peers is None:
                continue
            for peer, weight in list(peers.items()):
                rank = (-weight, (node, peer) if node < peer else (peer, node))
                if rank >= threshold:
                    assert peer in plan and plan[peer] <= rank, (node, peer)
                    self._unmatch(node, peer)
        residual = {
            node: self._node(node)[0] - len(self._partners.get(node, ()))
            for node in plan
        }
        assert min(residual.values(), default=0) >= 0, residual
        deltas: List[Tuple[str, GreedyDeltaNode]] = []
        local_edges = 0
        for node in sorted(plan):
            if residual[node] == 0:
                continue
            threshold = plan[node]
            adj: Dict[str, float] = {}
            for peer, weight in self._node(node)[1].items():
                if residual.get(peer, 0) > 0:
                    rank = (
                        -weight, (node, peer) if node < peer else (peer, node)
                    )
                    if rank >= threshold:
                        # A peer planned later than this rank is
                        # blocked at it: no residual capacity.
                        assert rank >= plan[peer], (node, peer, rank)
                        adj[peer] = weight
            if adj:
                state = GreedyDeltaNode.seeded(residual[node], adj)
                self.match_store.put(canonical_bytes(node), node, state)
                deltas.append((node, state))
                local_edges += len(adj)
        # Every round with live eligible edges matches at least one, so
        # rounds are bounded by the dirty edge count (cf.
        # ``default_max_rounds``); the +1 covers the seedless flush.
        driver = IterativeDriver(
            self.runtime, "online-matching", local_edges // 2 + 1
        )

        def frontier_round(deltas, round_number):
            output, deltas = self.runtime.run_stateful(
                self._job, self.match_store, deltas=deltas
            )
            partners = self._partners
            for key, weight in output:  # ("matched", u, v) only
                u, v = key[1], key[2]
                self._journal_partners(u)
                self._journal_partners(v)
                partners.setdefault(u, {})[v] = weight
                partners.setdefault(v, {})[u] = weight
            if inject_fault:
                self._inject_reconverge_fault()
            return deltas

        driver.iterate(frontier_round, deltas)
        if inject_fault:
            self._inject_reconverge_fault()
        return driver.rounds_completed

    def _unmatch(self, u: str, v: str) -> None:
        """Forget the matched edge ``{u, v}`` (journalled)."""
        for node, peer in ((u, v), (v, u)):
            self._journal_partners(node)
            peers = self._partners[node]
            del peers[peer]
            if not peers:
                del self._partners[node]

    def _inject_reconverge_fault(self) -> None:
        self._meter_fault("injected_flush")
        self._meter_fault("injected_total")
        raise InjectedFault("injected mid-reconvergence flush fault")

    def _meter(self, name: str, value: int = 1) -> None:
        self.runtime.counters.increment(
            SERVICE_COUNTER_GROUP, name, value
        )

    def _stage_gauge(self, stage: str):
        """Cumulative wall-clock gauge for one flush stage.

        Accumulates across *all* flushes on the runtime's registry, so
        ``repro serve --profile`` can report admit/re-converge seconds
        for the whole session, not just the last flush.
        """
        return self.runtime.metrics.gauge(
            SERVICE_COUNTER_GROUP, f"{stage}_seconds"
        )

    @property
    def flush_seconds(self) -> List[float]:
        """Wall-clock seconds of every flush, in order (the histogram's
        retained samples — kept for exact percentiles)."""
        return list(self._flush_hist.samples or ())

    # -- queries -----------------------------------------------------------

    def match_lookup(self, node: str) -> Dict[str, float]:
        """Current partners of ``node`` as ``{partner: weight}``."""
        return dict(self._partners.get(node, {}))

    def matching_edges(self) -> List[Tuple[str, str, float]]:
        """Every matched edge once, endpoints normalized, sorted."""
        return sorted(
            (u, v, weight)
            for u, peers in self._partners.items()
            for v, weight in peers.items()
            if u < v
        )

    @property
    def value(self) -> float:
        """Total weight of the current matching."""
        return sum(weight for _, _, weight in self.matching_edges())

    @property
    def num_nodes(self) -> int:
        """Live nodes (from the store's in-memory key index)."""
        return len(self.graph_store)

    @property
    def num_edges(self) -> int:
        """Live candidate edges (maintained incrementally)."""
        return self._num_edges

    def export_graph(self) -> Graph:
        """The full current graph as a driver-side :class:`Graph`.

        Diagnostic only (verification, CLI reports): it scans every
        record of the graph store, un-parking partitions — the one
        full-state read the service itself never needs.
        """
        graph = Graph()
        records = list(self.graph_store.records())
        for node, (capacity, _) in records:
            graph.add_node(node, capacity)
        for node, (_, adj) in records:
            for neighbor, weight in adj.items():
                if node < neighbor:
                    graph.add_edge(node, neighbor, weight)
        return graph

    def snapshot(self) -> Dict[str, object]:
        """A consistent view of the live state and service counters."""
        edges = self.matching_edges()
        return {
            "nodes": self.num_nodes,
            "candidate_edges": self.num_edges,
            "matched_edges": len(edges),
            "matching": edges,
            "value": sum(weight for _, _, weight in edges),
            "counters": self.runtime.counters.group(
                SERVICE_COUNTER_GROUP
            ),
        }

    def verify(self) -> Tuple[bool, float]:
        """Check the incremental matching against a cold batch.

        Runs sequential greedy (provably equal to GreedyMR) on the
        exported full graph and compares edge sets and weights; returns
        ``(identical, cold_value)``.  Diagnostic — the service never
        needs this for correctness, but the CLI and the serving
        benchmark assert it on every run.
        """
        from ..matching import greedy_b_matching

        cold = greedy_b_matching(self.export_graph())
        cold_edges = sorted(cold.matching.edges())
        return cold_edges == self.matching_edges(), cold.value

    def close(self) -> None:
        """Release both resident stores (parked datasets included)."""
        self.graph_store.close()
        self.match_store.close()

    def __enter__(self) -> "OnlineMatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

