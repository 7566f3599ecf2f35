"""Incremental GreedyMR: re-converge only what an event batch touched.

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
  perturbed keys each flush and drained by frontier rounds
  (:meth:`~repro.mapreduce.runtime.MapReduceRuntime.run_stateful`
  from an externally-owned store).

Correctness anchor — *why incremental equals cold batch*
--------------------------------------------------------

Greedy b-matching decomposes exactly over the connected components of
the **eligible subgraph** (edges whose two endpoints both have positive
capacity): whether an edge is matched depends only on the strict total
edge order restricted to its own component, never on other components.
The matcher exploits this:

1. every event *seeds* the nodes whose eligible adjacency it may have
   changed (an arrival and its edge endpoints; both endpoints of a new
   edge; a retuned node and its neighbors; a retiree's former
   neighbors);
2. the **affected set** is the union of the final graph's eligible
   components containing a live seed (plus live-but-ineligible seeds,
   whose stale matches must drop);
3. affected nodes' matched edges are dropped and fresh
   :class:`~repro.matching.greedy_mr.GreedyDeltaNode` records are
   re-seeded from the final graph (each ranked once, by the same
   :meth:`~repro.matching.greedy_mr.GreedyNode.seeded` cold-batch
   GreedyMR seeds with — the order events inserted a node's edges in
   never decides a proposal) — a matched edge never crosses out of
   the affected set, because any neighbor it could reach is either in
   the same eligible component (hence affected) or had its adjacency
   changed (hence seeded);
4. GreedyMR frontier rounds run from exactly those seeds until the
   delta stream drains.  Unaffected components are never messaged, so
   their state partitions are never even loaded.

The re-converged matching therefore equals a cold-batch GreedyMR run on
the final graph — same edges, same weights — for *any* event sequence
(property-tested across executors × filesystems in
``tests/service/test_matcher.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..graph import Graph
from ..mapreduce import MapReduceRuntime, canonical_bytes
from ..mapreduce.errors import RoundLimitExceeded
from ..mapreduce.faults import (
    FAULT_COUNTER_GROUP,
    InjectedFault,
    PoisonedEvent,
)
from ..telemetry.metrics import TIMING_BUCKETS
from ..matching.greedy_mr import GreedyDeltaNode, GreedyDeltaRoundJob
from .events import (
    Arrival,
    CapacityChange,
    EdgeArrival,
    Event,
    EventError,
    Retirement,
    plain_graph,
)

__all__ = ["FlushReport", "OnlineMatcher", "SERVICE_COUNTER_GROUP"]

#: Counter group the matcher meters into (on the runtime's counters).
SERVICE_COUNTER_GROUP = "service"

#: One resident graph record: ``(capacity, {neighbor: weight})``.
NodeRecord = Tuple[int, Dict[str, float]]


@dataclass(frozen=True)
class FlushReport:
    """What one micro-batch flush did.

    ``dead_lettered`` counts the batch's events that sit in the
    matcher's dead-letter queue after the flush — events whose
    admission kept failing transiently until their retry budget ran
    out (they are *not* in ``rejected``, which is for deterministic
    validation failures).
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
        #: driver's footprint bounded by the affected neighborhood).
        self._cache: Dict[str, Optional[NodeRecord]] = {}
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
        #: poisoned events / mid-reconvergence faults.
        self._retry_policy = self.runtime.retry_policy
        self._fault_plan = self.runtime.fault_plan
        #: Events whose admission kept failing *transiently* until the
        #: retry budget ran out, with the reason — the dead-letter
        #: queue.  Deterministic validation failures never land here
        #: (those are ``rejected`` in the flush report).
        self.dead_letters: List[Tuple[Event, str]] = []
        self._dead_set: Set[int] = set()
        #: Admission sequence numbers: the global position of a batch's
        #: first event.  Only *committed* flushes advance it, so a
        #: re-admitted batch reuses the same sequence numbers — fault
        #: identity (poisoning, dead-lettering) is per event, not per
        #: attempt.
        self._event_seq = 0
        self._event_attempts: Dict[int, int] = {}
        self._flush_index = 0
        #: Open-transaction snapshot of the driver-side matching state
        #: (``None`` outside a flush).
        self._txn_matching: Optional[
            Tuple[Dict[str, Dict[str, float]], int]
        ] = None
        bootstrap = plain_graph(graph)
        if bootstrap.num_nodes:
            self._num_edges = bootstrap.num_edges
            self.graph_store.load(
                (node, (bootstrap.capacity(node),
                        dict(bootstrap.incident(node))))
                for node in sorted(bootstrap.nodes())
            )
            rounds = self._reconverge(set(bootstrap.nodes()))
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
        self.graph_store.put(canonical_bytes(node), node, record)
        self._cache[node] = record

    def _discard_node(self, node: str) -> None:
        self.graph_store.discard(canonical_bytes(node), node)
        self._cache[node] = None

    def _end_flush(self) -> None:
        self._cache.clear()
        # Both stores follow the runtime's spill threshold between
        # flushes: the graph store parks its (populated) partitions,
        # so the next batch's admission exercises the single-key path.
        self.graph_store.maybe_park()
        self.match_store.maybe_park()

    # -- transactional flush ----------------------------------------------

    def _begin_flush_txn(self) -> None:
        """Snapshot everything a failed flush attempt must restore.

        Both resident stores open a transaction (shallow snapshots;
        parked files are left untouched until commit), and the
        driver-side matching (``_partners`` + the edge count) is
        copied two levels deep — the inner partner dicts mutate in
        place during re-convergence.
        """
        self.graph_store.begin_transaction()
        self.match_store.begin_transaction()
        self._txn_matching = (
            {node: dict(peers) for node, peers in self._partners.items()},
            self._num_edges,
        )

    def _commit_flush_txn(self) -> None:
        self.graph_store.commit_transaction()
        self.match_store.commit_transaction()
        self._txn_matching = None

    def _rollback_flush_txn(self) -> None:
        self.graph_store.rollback_transaction()
        self.match_store.rollback_transaction()
        assert self._txn_matching is not None
        self._partners, self._num_edges = self._txn_matching
        self._txn_matching = None
        # The read cache may hold rolled-back records.
        self._cache.clear()

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
        without a policy).  An event that keeps failing transiently is
        dead-lettered after its per-event budget rather than poisoning
        the batch forever (see :attr:`dead_letters`); deterministic
        failures still reject immediately.  When every attempt fails,
        the last exception propagates — with the stores still at the
        pre-flush state.
        """
        policy = self._retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        started = time.perf_counter()
        attempt = 0
        while True:
            self._begin_flush_txn()
            try:
                report = self._flush_once(events, attempt, max_attempts)
            except PoisonedEvent:
                # A poisoned event consumes *its own* per-event budget
                # (tracked in ``_event_attempts``), not the flush's:
                # a batch with several poisoned events may roll back
                # more times than max_attempts before each has been
                # retried to death and dead-lettered.  Termination is
                # still bounded — every pass increments some event's
                # attempt counter, and saturated events stop raising.
                self._rollback_flush_txn()
                continue
            except (InjectedFault, OSError):
                self._rollback_flush_txn()
                self._meter_fault("flush.retries")
                attempt += 1
                if attempt >= max_attempts:
                    raise
                delay = policy.retry_delay(attempt) if policy else 0.0
                if delay:
                    time.sleep(delay)
                continue
            except BaseException:
                # Non-retryable (validation bugs, round-limit blowups):
                # still leave consistent pre-flush state behind.
                self._rollback_flush_txn()
                raise
            self._commit_flush_txn()
            break
        self._event_seq += len(events)
        self._flush_index += 1
        seconds = time.perf_counter() - started
        self._flush_hist.observe(seconds)
        self._meter("events.admitted", report.admitted)
        self._meter("events.rejected", len(report.rejected))
        self._meter("batches.flushed", 1)
        self._meter("reconverge.rounds", report.rounds)
        self._meter("reconverge.affected_nodes", report.affected_nodes)
        return FlushReport(
            admitted=report.admitted,
            rejected=report.rejected,
            affected_nodes=report.affected_nodes,
            rounds=report.rounds,
            seconds=seconds,
            dead_lettered=report.dead_lettered,
        )

    def _flush_once(
        self, events: List[Event], attempt: int, max_attempts: int
    ) -> FlushReport:
        """One flush attempt inside an open transaction."""
        plan = self._fault_plan
        admitted = 0
        rejected: List[Tuple[Event, str]] = []
        seeds: Set[str] = set()
        retired: Set[str] = set()
        with self.runtime._span("flush", kind="flush", events=len(events)):
            stage_started = time.perf_counter()
            with self.runtime._span("admit", kind="stage"):
                for offset, event in enumerate(events):
                    sequence = self._event_seq + offset
                    if sequence in self._dead_set:
                        continue
                    if plan is not None and plan.event_poisoned(sequence):
                        self._admission_fault(event, sequence, max_attempts)
                        continue
                    try:
                        seeds |= self._admit(event, retired)
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
                affected = self._affected(seeds)
                rounds = self._reconverge(
                    affected, retired, inject_fault=inject
                )
            self._stage_gauge("reconverge").add(
                time.perf_counter() - stage_started
            )
            self._end_flush()
        dead = sum(
            1
            for offset in range(len(events))
            if self._event_seq + offset in self._dead_set
        )
        return FlushReport(
            admitted=admitted,
            rejected=tuple(rejected),
            affected_nodes=len(affected),
            rounds=rounds,
            seconds=0.0,  # the committed report carries the real time
            dead_lettered=dead,
        )

    def _admission_fault(
        self, event: Event, sequence: int, max_attempts: int
    ) -> None:
        """Handle one poisoned admission: retry or dead-letter.

        Raises :class:`PoisonedEvent` (failing the whole attempt, so
        the transaction rolls back and the batch re-admits) until the
        event's per-event budget is spent, then routes it to the
        dead-letter queue — subsequent attempts skip it via
        ``_dead_set`` and the rest of the batch goes through.
        """
        self._meter_fault("injected_poison")
        self._meter_fault("injected_total")
        attempts = self._event_attempts.get(sequence, 0) + 1
        self._event_attempts[sequence] = attempts
        if attempts >= max_attempts:
            self._dead_set.add(sequence)
            self.dead_letters.append(
                (
                    event,
                    f"admission failed transiently {attempts}x "
                    f"(event seq {sequence})",
                )
            )
            self._meter_fault("events.dead_lettered")
            return
        raise PoisonedEvent(
            f"injected admission fault for event seq {sequence} "
            f"(attempt {attempts})"
        )

    def _meter_fault(self, name: str, value: int = 1) -> None:
        self.runtime.counters.increment(FAULT_COUNTER_GROUP, name, value)

    # -- event admission ---------------------------------------------------

    def _admit(self, event: Event, retired: Set[str]) -> Set[str]:
        """Validate + apply one event to the graph store; return seeds.

        Validation is all-or-nothing: every check precedes the first
        write, so a rejected event leaves no partial state.  The seed
        rule: every node whose *eligible adjacency* the event may
        change must be seeded (see the module docstring).
        """
        if isinstance(event, Arrival):
            _require(not self.graph_store.contains(event.node),
                     f"arrival of existing node {event.node!r}")
            _require(event.capacity >= 0,
                     "arrival capacity must be >= 0, got "
                     f"{event.capacity}")
            seen: Set[str] = set()
            for neighbor, weight in event.edges:
                _require(neighbor != event.node,
                         f"arrival {event.node!r} carries a self-loop")
                _require(neighbor not in seen,
                         f"arrival {event.node!r} repeats edge to "
                         f"{neighbor!r}")
                seen.add(neighbor)
                _require(self.graph_store.contains(neighbor),
                         f"arrival {event.node!r} references unknown "
                         f"neighbor {neighbor!r}")
                _require(weight > 0,
                         f"edge weights must be positive, got {weight}")
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
            retired.discard(event.node)
            return {event.node} | seen
        if isinstance(event, EdgeArrival):
            _require(event.u != event.v, f"self-loop on {event.u!r}")
            for node in (event.u, event.v):
                _require(self.graph_store.contains(node),
                         f"unknown node {node!r}")
            _require(event.weight > 0,
                     "edge weights must be positive, got "
                     f"{event.weight}")
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
            return {event.u, event.v}
        if isinstance(event, CapacityChange):
            _require(self.graph_store.contains(event.node),
                     f"capacity change for unknown node {event.node!r}")
            _require(event.capacity >= 0,
                     f"capacity must be >= 0, got {event.capacity}")
            _, adj = self._node(event.node)
            self._put_node(event.node, (event.capacity, adj))
            # Retuning b(v) can flip every incident edge's eligibility.
            return {event.node} | set(adj)
        if isinstance(event, Retirement):
            _require(self.graph_store.contains(event.node),
                     f"retirement of unknown node {event.node!r}")
            _, adj = self._node(event.node)
            for neighbor in adj:
                capacity, nbr_adj = self._node(neighbor)
                nbr_adj = dict(nbr_adj)
                nbr_adj.pop(event.node, None)
                self._put_node(neighbor, (capacity, nbr_adj))
            self._discard_node(event.node)
            self._num_edges -= len(adj)
            retired.add(event.node)
            return set(adj)
        raise EventError(f"unknown event type: {event!r}")

    def _affected(self, seeds: Set[str]) -> Set[str]:
        """Eligible components of the final graph containing a seed.

        Live-but-ineligible seeds (``b = 0`` or no eligible edge) are
        included as singletons: they cannot match, but their stale
        matched edges must be dropped.
        """
        live: Set[str] = set()
        frontier: List[str] = []
        for node in seeds:
            record = self._node(node)
            if record is None:
                continue  # retired later in the batch
            live.add(node)
            if record[0] > 0:
                frontier.append(node)
        visited: Set[str] = set(frontier)
        while frontier:
            node = frontier.pop()
            for neighbor in self._node(node)[1]:
                if neighbor in visited:
                    continue
                record = self._node(neighbor)
                if record is not None and record[0] > 0:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        return live | visited

    # -- incremental re-convergence ----------------------------------------

    def _reconverge(
        self,
        affected: Set[str],
        retired: Optional[Set[str]] = None,
        inject_fault: bool = False,
    ) -> int:
        """Recompute the affected components; returns rounds run.

        ``inject_fault`` makes the re-convergence fail transiently
        after its first round's partner updates (or immediately when
        there is nothing to converge) — the worst spot for the flush
        transaction: stores and driver-side matching are maximally
        mid-update.
        """
        for node in retired or ():
            self.match_store.discard(canonical_bytes(node), node)
            self._drop_matches(node)
        deltas: List[Tuple[str, GreedyDeltaNode]] = []
        local_edges = 0
        for node in sorted(affected):
            self._drop_matches(node)
            key_bytes = canonical_bytes(node)
            b, full_adj = self._node(node)
            adj: Dict[str, float] = {}
            if b > 0:
                for neighbor, weight in full_adj.items():
                    if self._node(neighbor)[0] > 0:
                        adj[neighbor] = weight
            if adj:
                state = GreedyDeltaNode.seeded(b, adj)
                self.match_store.put(key_bytes, node, state)
                deltas.append((node, state))
                local_edges += len(adj)
            else:
                self.match_store.discard(key_bytes, node)
        # Every round with live eligible edges matches at least one, so
        # rounds are bounded by the affected edge count (cf.
        # ``default_max_rounds``); the +1 covers the seedless flush.
        max_rounds = local_edges // 2 + 1
        rounds = 0
        while deltas:
            if rounds >= max_rounds:
                raise RoundLimitExceeded("online-matching", max_rounds)
            output, deltas = self.runtime.run_stateful(
                self._job, self.match_store, deltas=deltas
            )
            rounds += 1
            for key, weight in output:
                if isinstance(key, tuple) and key[0] == "matched":
                    self._partners.setdefault(key[1], {})[key[2]] = weight
                    self._partners.setdefault(key[2], {})[key[1]] = weight
            if inject_fault:
                self._inject_reconverge_fault()
        if inject_fault:
            self._inject_reconverge_fault()
        return rounds

    def _inject_reconverge_fault(self) -> None:
        self._meter_fault("injected_flush")
        self._meter_fault("injected_total")
        raise InjectedFault("injected mid-reconvergence flush fault")

    def _drop_matches(self, node: str) -> None:
        """Forget every matched edge incident to ``node``."""
        for partner in self._partners.pop(node, {}):
            peers = self._partners.get(partner)
            if peers is not None:
                peers.pop(node, None)
                if not peers:
                    del self._partners[partner]

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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise EventError(message)
