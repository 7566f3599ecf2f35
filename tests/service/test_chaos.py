"""Serving-layer chaos: transactional flushes and rejection.

The serving layer's recovery contract mirrors the runtime's: a flush
that faults mid-reconvergence rolls both resident stores and the
driver-side matching back to the pre-flush state, the whole batch
re-admits on the retry, and the converged matching is bit-identical
to the fault-free run.  Invalid events are rejected without ever
touching the resident graph store — even when submitted concurrently
through the asyncio facade.
"""

import asyncio
import copy

import pytest

from repro.mapreduce import (
    Counters,
    FaultPlan,
    InjectedFault,
    MapReduceRuntime,
    RetryPolicy,
)
from repro.service import (
    Arrival,
    EdgeArrival,
    MatchingService,
    OnlineMatcher,
)
from repro.telemetry.loadgen import zipf_events

from .test_matcher import _seeded_graph

def _faulted_runtime(retry_policy=None, fault_plan=None):
    return MapReduceRuntime(
        num_map_tasks=4,
        num_reduce_tasks=4,
        counters=Counters(),
        retry_policy=retry_policy,
        fault_plan=fault_plan,
    )


def _reference_matching(graph, batches):
    with OnlineMatcher(graph=graph) as matcher:
        for batch in batches:
            matcher.flush(list(batch))
        return matcher.matching_edges()


def _batches(events, size=8):
    return [events[i : i + size] for i in range(0, len(events), size)]


# -- transactional flush: fault, roll back, retry, converge ----------------


def test_flush_fault_retries_and_matches_fault_free():
    graph = _seeded_graph(3)
    events, _ = zipf_events(graph, 16, seed=3)
    batches = _batches(events)
    reference = _reference_matching(_seeded_graph(3), batches)
    # flush_rate=1.0: attempt 0 of *every* flush faults mid-
    # reconvergence; MAX_FAULTS_PER_SITE = 1 leaves attempt 1 clean, so
    # a 2-attempt budget always recovers.
    plan = FaultPlan(1, flush_rate=1.0)
    matcher = OnlineMatcher(
        runtime=_faulted_runtime(
            retry_policy=RetryPolicy(max_attempts=2), fault_plan=plan
        ),
        graph=graph,
    )
    with matcher:
        reports = [matcher.flush(list(batch)) for batch in batches]
        ok, value = matcher.verify()
        assert ok, value
        assert matcher.matching_edges() == reference
    faults = matcher.runtime.counters.group("faults")
    assert faults["injected_flush"] == len(batches)
    assert faults["flush.retries"] == len(batches)
    assert faults["injected_total"] >= len(batches)
    # The committed reports describe the successful attempts.
    assert sum(r.admitted + len(r.rejected) for r in reports) == len(
        events
    )


def test_exhausted_flush_budget_rolls_back_and_raises():
    graph = _seeded_graph(5)
    events, _ = zipf_events(graph, 8, seed=5)
    # No retry policy: a single attempt, so the injected fault
    # propagates — but the matcher must stay at the pre-flush state.
    matcher = OnlineMatcher(
        runtime=_faulted_runtime(fault_plan=FaultPlan(1, flush_rate=1.0)),
        graph=graph,
    )
    with matcher:
        before = (
            matcher.matching_edges(),
            matcher.num_nodes,
            matcher.num_edges,
            matcher.snapshot(),
        )
        with pytest.raises(InjectedFault):
            matcher.flush(list(events))
        assert (
            matcher.matching_edges(),
            matcher.num_nodes,
            matcher.num_edges,
            matcher.snapshot(),
        ) == before
        ok, value = matcher.verify()
        assert ok, value
        # The batch was not consumed: disarm the plan and re-flush —
        # recovery-by-operator, same events, converges normally.
        matcher._fault_plan = None
        report = matcher.flush(list(events))
        assert report.admitted + len(report.rejected) == len(events)
        assert matcher.matching_edges() == _reference_matching(
            _seeded_graph(5), [events]
        )


def test_failed_flush_without_a_policy_meters_no_retry():
    """``flush.retries`` counts retries made: a single attempt that
    fails and raises made none."""
    matcher = OnlineMatcher(
        runtime=_faulted_runtime(fault_plan=FaultPlan(1, flush_rate=1.0)),
        graph=_seeded_graph(5),
    )
    events, _ = zipf_events(_seeded_graph(5), 8, seed=5)
    with matcher:
        with pytest.raises(InjectedFault):
            matcher.flush(list(events))
    faults = matcher.runtime.counters.group("faults")
    assert faults["injected_flush"] == 1
    assert faults.get("flush.retries", 0) == 0


def test_rolled_back_flush_replans_the_same_set():
    """The repair plan is a function of (pre-batch state, batch): a
    mid-reconvergence fault rolls matching, stores *and* the pre-batch
    snapshots back, so the retry reads the same sources and plans the
    same nodes at the same thresholds as the attempt that died — and
    as a matcher that never faulted."""
    events, _ = zipf_events(_seeded_graph(9, n=12), 8, seed=9)

    def planned(matcher):
        plans = []
        repair_plan = matcher._repair_plan

        def spy():
            plans.append(repair_plan())
            return dict(plans[-1])

        matcher._repair_plan = spy
        report = matcher.flush(list(events))
        return plans, report

    with OnlineMatcher(graph=_seeded_graph(9, n=12)) as clean:
        (reference,), clean_report = planned(clean)
        expected = clean.matching_edges()
    assert reference, "the batch must reach something to re-plan"

    matcher = OnlineMatcher(
        runtime=_faulted_runtime(
            retry_policy=RetryPolicy(max_attempts=2),
            fault_plan=FaultPlan(1, flush_rate=1.0),
        ),
        graph=_seeded_graph(9, n=12),
    )
    with matcher:
        plans, report = planned(matcher)
        assert plans == [reference, reference]
        assert report.affected_nodes == clean_report.affected_nodes
        assert matcher._before == {} and matcher._cache == {}
        assert matcher.matching_edges() == expected
        faults = matcher.runtime.counters.group("faults")
        assert faults["injected_flush"] == 1
        assert faults["flush.retries"] == 1

    # Budget exhausted: the fault propagates, and nothing of the dead
    # attempt's snapshots survives the rollback.
    matcher = OnlineMatcher(
        runtime=_faulted_runtime(fault_plan=FaultPlan(1, flush_rate=1.0)),
        graph=_seeded_graph(9, n=12),
    )
    with matcher:
        with pytest.raises(InjectedFault):
            matcher.flush(list(events))
        assert matcher._before == {} and matcher._cache == {}
        assert not len(matcher.match_store)
        matcher._fault_plan = None
        plans, _ = planned(matcher)
        assert plans == [reference]
        assert matcher.matching_edges() == expected


# -- rollback restores the driver-side matching exactly --------------------


def _reweight_a_matched_edge(matcher):
    """Re-weighting a matched edge plans both ends at its old rank, so
    ``_unmatch`` drops it before any round runs — and before the
    fault.  Returns the batch and a node the journal must hold."""
    u, v, weight = matcher.matching_edges()[0]
    return [EdgeArrival(u, v, weight / 4)], u


def _heavy_arrival(matcher):
    """A newcomer's heavy edge is matched by the first round, after
    which the fault fires: the journal must hold the newcomer as a
    node that had no partners."""
    u, _, _ = matcher.matching_edges()[0]
    return [Arrival("fresh", capacity=1, edges=((u, 100.0),))], "fresh"


@pytest.mark.parametrize("retried", [False, True], ids=["failed", "retried"])
@pytest.mark.parametrize(
    "make_batch",
    [_reweight_a_matched_edge, _heavy_arrival],
    ids=["unmatch-before-fault", "fault-after-round-writes"],
)
def test_rollback_restores_partners_exactly(make_batch, retried):
    policy = RetryPolicy(max_attempts=2) if retried else None
    matcher = OnlineMatcher(
        runtime=_faulted_runtime(
            retry_policy=policy, fault_plan=FaultPlan(1, flush_rate=1.0)
        ),
        graph=_seeded_graph(3),
    )
    with matcher:
        batch, witness = make_batch(matcher)
        before = copy.deepcopy(matcher._partners)
        journals, restored = [], []
        rollback = matcher._rollback_flush_txn

        def spy():
            journals.append(copy.deepcopy(matcher._journal))
            rollback()
            restored.append(
                (copy.deepcopy(matcher._partners), matcher._journal)
            )

        matcher._rollback_flush_txn = spy
        if retried:
            matcher.flush(batch)
        else:
            with pytest.raises(InjectedFault):
                matcher.flush(batch)
        # The dead attempt wrote the witness, and journalled exactly
        # what each written node held before the flush.
        ((journal,),) = (journals,)
        assert witness in journal
        assert journal == {node: before.get(node) for node in journal}
        # Rollback put every written node back: same nodes, same inner
        # dicts, no empty one, and the journal is gone.
        ((partners, open_journal),) = restored
        assert partners == before and open_journal is None
        assert all(partners.values())
        assert matcher._journal is None
        if retried:
            assert matcher.matching_edges() == _reference_matching(
                _seeded_graph(3), [batch]
            )
        else:
            assert matcher._partners == before


# -- recovery shows in the service metrics ---------------------------------


def test_service_metrics_surface_recovery_activity():
    graph = _seeded_graph(7)
    events, _ = zipf_events(graph, 4, seed=7)
    # flush_rate=1.0: attempt 0 of each of the two flushes faults.
    plan = FaultPlan(1, flush_rate=1.0)
    matcher = OnlineMatcher(
        runtime=_faulted_runtime(
            retry_policy=RetryPolicy(max_attempts=2), fault_plan=plan
        ),
        graph=graph,
    )
    service = MatchingService(matcher, max_batch=2, max_delay=5.0)

    async def drive():
        async with service:
            await asyncio.gather(
                *(service.submit_event(event) for event in events)
            )
            return service.metrics()

    metrics = asyncio.run(drive())
    assert metrics["flush_retries"] == 2
    assert metrics["batches_flushed"] == 2


# -- rejection under concurrency: no partial state, read-your-writes -------


def test_rejected_event_never_touches_the_store_concurrently():
    graph = _seeded_graph(0)
    nodes = sorted(graph.nodes())
    matcher = OnlineMatcher(graph=graph)
    service = MatchingService(matcher, max_batch=4, max_delay=5.0)
    valid = [
        Arrival(node="fresh-0", capacity=2,
                edges=((nodes[0], 3.0),)),
        EdgeArrival(u=nodes[1], v=nodes[2], weight=7.0),
    ]
    invalid = [
        EdgeArrival(u="ghost", v=nodes[0], weight=1.0),
        Arrival(node=nodes[0], capacity=1, edges=()),  # already exists
    ]

    async def drive():
        async with service:
            # All four submissions race into the same micro-batch.
            reports = await asyncio.gather(
                service.submit_event(valid[0]),
                service.submit_event(invalid[0]),
                service.submit_event(valid[1]),
                service.submit_event(invalid[1]),
            )
            # Read-your-writes mid-stream: the drain-first lookup sees
            # the admitted arrival even though more events follow.
            partners = await service.match_lookup("fresh-0")
            # The snapshot drains the pending batch, so the last event
            # need not wait out max_delay alone.
            _, snap = await asyncio.gather(
                service.submit_event(
                    EdgeArrival(u="fresh-0", v=nodes[3], weight=9.0)
                ),
                service.snapshot(),
            )
            verdict = matcher.verify()
            return reports, partners, snap, verdict

    reports, partners, snap, verdict = asyncio.run(drive())
    # Batchmates share one report; rejections ride in it, and one bad
    # event never fails its batchmates.
    report = reports[0]
    assert all(r is report for r in reports)
    assert report.admitted == 2
    rejected = {repr(event): reason for event, reason in report.rejected}
    assert len(rejected) == 2
    assert any("unknown node 'ghost'" in r for r in rejected.values())
    assert any("existing node" in r for r in rejected.values())
    # The rejected events left no trace in the resident graph store.
    assert matcher.graph_store.get("ghost") is None
    assert not matcher.graph_store.contains("ghost")
    assert partners is not None  # lookup resolved post-drain
    assert snap["nodes"] == len(nodes) + 1
    ok, value = verdict
    assert ok, value
