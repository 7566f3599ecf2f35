"""The asyncio facade: coalescing, read-your-writes, and metrics.

Plain ``asyncio.run`` throughout (no pytest-asyncio in the image); each
test drives a real event loop against a real matcher on a fresh
in-process runtime.  The coalescing tests are the tentpole's
demonstrable claim: a burst of K events triggers strictly fewer than K
re-convergences, observable through the always-on service counters.
"""

import asyncio
import threading

import pytest

from repro.matching import greedy_b_matching
from repro.service import (
    Arrival,
    EdgeArrival,
    FlushReport,
    MatchingService,
    OnlineMatcher,
    ServiceClosed,
)
from repro.telemetry.loadgen import zipf_events

from .test_matcher import _seeded_graph

#: Keys the metrics endpoint must always expose (``repro serve`` and
#: ``/metrics`` report exactly these).
METRIC_KEYS = {
    "events_admitted",
    "events_rejected",
    "batches_flushed",
    "coalescing_ratio",
    "reconverge_rounds",
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "flush_retries",
    "throughput_events_per_s",
    "flushes_per_sec",
}


def _service(seed=0, **kwargs):
    graph = _seeded_graph(seed)
    events, mirror = zipf_events(graph, 12, seed=seed)
    return (
        MatchingService(OnlineMatcher(graph=graph), **kwargs),
        events,
        mirror,
    )


def test_burst_coalesces_into_fewer_flushes():
    service, events, mirror = _service(max_batch=4, max_delay=5.0)

    async def drive():
        async with service:
            reports = await asyncio.gather(
                *(service.submit_event(e) for e in events)
            )
            snap = await service.snapshot()
        return reports, snap

    reports, snap = asyncio.run(drive())
    metrics = service.metrics()
    # 12 events, batch cap 4: exactly 3 flushes, never 12.
    assert metrics["batches_flushed"] == 3
    assert metrics["events_admitted"] == 12
    assert metrics["coalescing_ratio"] == pytest.approx(4.0)
    # Batchmates share their flush's report.
    assert all(isinstance(r, FlushReport) for r in reports)
    assert len({id(r) for r in reports}) == 3
    cold = greedy_b_matching(mirror)
    assert snap["matching"] == sorted(cold.matching.edges())


def test_timer_flushes_an_undersized_batch():
    service, events, _ = _service(max_batch=1000, max_delay=0.01)

    async def drive():
        async with service:
            report = await service.submit_event(events[0])
        return report

    report = asyncio.run(drive())
    assert report.admitted == 1
    assert service.metrics()["batches_flushed"] == 1


class _GatedMatcher:
    """A matcher whose ``flush`` parks in its worker thread until the
    test releases it — an in-flight flush of any length, no sleeps."""

    def __init__(self):
        self.batches = []
        self.started = threading.Event()
        self.release = threading.Event()

    def flush(self, batch):
        self.batches.append(list(batch))
        self.started.set()
        assert self.release.wait(30)
        return FlushReport(
            admitted=len(batch),
            rejected=(),
            affected_nodes=0,
            rounds=0,
            seconds=0.0,
        )

    def close(self):
        pass


def test_backlog_behind_a_running_flush_lands_in_one_follow_up():
    """Triggers that fire while a flush runs are held, not queued: the
    seven events below fill three batches and time one out during the
    first flush, and still cost one follow-up flush, not four."""
    matcher = _GatedMatcher()
    service = MatchingService(matcher, max_batch=2, max_delay=0.005)

    async def drive():
        loop = asyncio.get_running_loop()
        first = asyncio.ensure_future(service.submit_events(["a0", "a1"]))
        assert await loop.run_in_executor(None, matcher.started.wait, 30)
        backlog = [
            asyncio.ensure_future(service.submit_event(f"b{i}"))
            for i in range(7)
        ]
        await asyncio.sleep(0.05)  # ten timer periods, flush still running
        assert len(matcher.batches) == 1
        assert len(service._inflight) == 1
        assert not any(task.done() for task in backlog)
        matcher.release.set()
        reports = await asyncio.gather(first, *backlog)
        await service.close()
        return reports

    reports = asyncio.run(drive())
    assert matcher.batches == [
        ["a0", "a1"],
        [f"b{i}" for i in range(7)],
    ]
    assert reports[0].admitted == 2
    assert all(report is reports[1] for report in reports[1:])
    assert reports[1].admitted == 7


def test_drain_waits_for_the_follow_up_of_a_running_flush():
    matcher = _GatedMatcher()
    service = MatchingService(matcher, max_batch=1, max_delay=60.0)

    async def drive():
        loop = asyncio.get_running_loop()
        first = asyncio.ensure_future(service.submit_event("a"))
        assert await loop.run_in_executor(None, matcher.started.wait, 30)
        late = asyncio.ensure_future(service.submit_event("b"))
        await asyncio.sleep(0)  # "b" is pending behind the running flush
        loop.call_later(0.01, matcher.release.set)
        await service.drain()
        assert first.done() and late.done()
        await service.close()

    asyncio.run(drive())
    assert matcher.batches == [["a"], ["b"]]


def test_submit_events_shares_one_flush():
    service, events, mirror = _service(max_batch=1000, max_delay=0.05)

    async def drive():
        async with service:
            task = asyncio.ensure_future(
                service.submit_events(events[:6])
            )
            await asyncio.sleep(0)  # first half enqueues, in order
            report = await service.submit_events(events[6:])
            assert await task is report
        return report

    report = asyncio.run(drive())
    assert report.admitted == 12
    assert service.metrics()["batches_flushed"] == 1
    cold = greedy_b_matching(mirror)
    assert service.matcher.matching_edges() == sorted(
        cold.matching.edges()
    )


def test_match_lookup_reads_its_own_writes():
    graph = _seeded_graph(1)
    service = MatchingService(
        OnlineMatcher(graph=graph), max_batch=1000, max_delay=60.0
    )

    async def drive():
        async with service:
            # Not awaited: the event sits in the pending batch (the
            # timer is an hour out), yet a fresh lookup must see it.
            submit = asyncio.ensure_future(
                service.submit_event(
                    Arrival("vip", capacity=1, edges=(("n0", 100.0),))
                )
            )
            await asyncio.sleep(0)  # let the submit enqueue
            partners = await service.match_lookup("vip")
            stale = await service.match_lookup("vip", fresh=False)
            await submit
        return partners, stale

    partners, stale = asyncio.run(drive())
    assert partners == {"n0": 100.0}
    assert stale == partners  # drained by the fresh lookup already


def test_rejection_reports_do_not_fail_batchmates():
    service, _, _ = _service(max_batch=2, max_delay=5.0)

    async def drive():
        async with service:
            good = Arrival("new", capacity=1, edges=(("n0", 2.0),))
            bad = EdgeArrival("ghost", "n0", 1.0)  # unknown node
            reports = await asyncio.gather(
                service.submit_event(good), service.submit_event(bad)
            )
        return reports

    reports = asyncio.run(drive())
    assert reports[0] is reports[1]
    assert reports[0].admitted == 1
    assert len(reports[0].rejected) == 1
    assert service.metrics()["events_rejected"] == 1


def test_submit_after_close_raises():
    service, events, _ = _service()

    async def drive():
        await service.close()
        with pytest.raises(ServiceClosed):
            await service.submit_event(events[0])

    asyncio.run(drive())


def test_metrics_shape_and_sanity():
    service, events, _ = _service(max_batch=3, max_delay=5.0)

    async def drive():
        async with service:
            await asyncio.gather(
                *(service.submit_event(e) for e in events)
            )

    asyncio.run(drive())
    metrics = service.metrics()
    assert set(metrics) == METRIC_KEYS
    assert (
        metrics["latency_p99_ms"]
        >= metrics["latency_p95_ms"]
        >= metrics["latency_p50_ms"]
        > 0
    )
    assert metrics["throughput_events_per_s"] > 0
    assert metrics["flushes_per_sec"] > 0
    assert metrics["reconverge_rounds"] >= 1


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"max_batch": 0}, "max_batch"),
        ({"max_delay": -0.1}, "max_delay"),
        # NaN passes a ``< 0`` check, and its timer never fires: an
        # undersized batch would never flush.
        ({"max_delay": float("nan")}, "max_delay"),
    ],
    ids=["max_batch-zero", "max_delay-negative", "max_delay-nan"],
)
def test_constructor_validation(kwargs, field):
    matcher = OnlineMatcher()
    try:
        with pytest.raises(ValueError, match=field):
            MatchingService(matcher, **kwargs)
    finally:
        matcher.close()
