"""The asyncio facade: micro-batched admission over the online matcher.

:class:`MatchingService` turns the synchronous
:class:`~repro.service.matcher.OnlineMatcher` into a serving endpoint
with *request coalescing*: submitted events buffer in a pending
micro-batch that flushes when it reaches ``max_batch`` events or when
the oldest pending event has waited ``max_delay`` seconds — whichever
comes first.  A burst of K events therefore triggers far fewer than K
re-convergences (asserted via the service counters in
``tests/service/test_service.py``), which is the entire point: one
frontier re-convergence amortizes across every event in the batch.

Flushes run in a worker thread (``loop.run_in_executor``) so the event
loop stays responsive while the simulated cluster grinds, and are
serialized by an :class:`asyncio.Lock` — the matcher is single-writer
by design.  A trigger (full batch or timer) that fires *while a flush
is running* cuts no batch: it is held, and when the running flush ends
one follow-up flush takes everything that queued meanwhile — under
backlog batches grow instead of degenerating into a queue of
single-event flushes.  ``submit_event(s)`` resolves with the
:class:`~repro.service.matcher.FlushReport` of the flush that admitted
the caller's events; ``match_lookup``/``snapshot`` drain pending events
first, so reads observe every prior write (read-your-writes).

No third-party dependencies: plain ``asyncio`` from the standard
library, driven by ``asyncio.run`` in tests and the CLI.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterable, List, Optional, Set

from ..telemetry.metrics import latency_summary_ms
from .events import Event
from .matcher import SERVICE_COUNTER_GROUP, FlushReport, OnlineMatcher

__all__ = ["MatchingService", "ServiceClosed"]


class ServiceClosed(RuntimeError):
    """Submit after :meth:`MatchingService.close`."""


class MatchingService:
    """Micro-batching asyncio wrapper around an :class:`OnlineMatcher`.

    Parameters
    ----------
    matcher:
        The engine; the service takes ownership (``close`` closes it).
    max_batch:
        Flush as soon as this many events are pending.
    max_delay:
        Flush at latest this many seconds after the first pending
        event arrived (the latency bound of the coalescing trade).
    """

    def __init__(
        self,
        matcher: OnlineMatcher,
        max_batch: int = 16,
        max_delay: float = 0.05,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if not max_delay >= 0:  # NaN too: its timer would never fire
            raise ValueError(
                f"max_delay must be >= 0, got {max_delay}"
            )
        self.matcher = matcher
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._pending: List[Event] = []
        self._waiters: List[asyncio.Future] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._lock = asyncio.Lock()
        #: A trigger fired while a flush held the lock; that flush
        #: starts the follow-up when it ends.
        self._flush_due = False
        self._inflight: Set[asyncio.Task] = set()
        self._closed = False

    # -- submission --------------------------------------------------------

    async def submit_event(self, event: Event) -> FlushReport:
        """Enqueue one event; resolves when its flush has converged."""
        return await self.submit_events([event])

    async def submit_events(
        self, events: Iterable[Event]
    ) -> FlushReport:
        """Enqueue events into the pending micro-batch.

        Resolves with the report of the flush that admitted them (an
        invalid event surfaces there as a rejection, not an
        exception — one bad event must not fail its batchmates).
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future = loop.create_future()
        self._pending.extend(events)
        self._waiters.append(waiter)
        if len(self._pending) >= self.max_batch:
            self._start_flush()
        elif self._timer is None:
            self._timer = loop.call_later(
                self.max_delay, self._start_flush
            )
        return await waiter

    def _start_flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._waiters:
            return
        if self._lock.locked():
            self._flush_due = True
            return
        batch, waiters = self._pending, self._waiters
        self._pending, self._waiters = [], []
        task = asyncio.ensure_future(self._flush(batch, waiters))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _flush(
        self, batch: List[Event], waiters: List[asyncio.Future]
    ) -> None:
        loop = asyncio.get_running_loop()
        async with self._lock:
            try:
                report = await loop.run_in_executor(
                    None, self.matcher.flush, batch
                )
            except BaseException as exc:  # matcher bugs -> every waiter
                report = exc
        for waiter in waiters:
            if waiter.done():
                continue
            if isinstance(report, BaseException):
                waiter.set_exception(report)
            else:
                waiter.set_result(report)
        if self._flush_due:
            self._flush_due = False
            self._start_flush()

    async def drain(self) -> None:
        """Flush anything pending and wait for in-flight flushes
        (including the follow-up a running flush starts when it ends)."""
        while self._waiters or self._inflight:
            self._start_flush()
            await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )

    # -- reads (read-your-writes) ------------------------------------------

    async def match_lookup(
        self, node: str, fresh: bool = True
    ) -> Dict[str, float]:
        """Current partners of ``node``.

        ``fresh=True`` (default) drains pending events first, so the
        answer reflects every event submitted before the call;
        ``fresh=False`` reads the last converged matching immediately.
        """
        if fresh:
            await self.drain()
        return self.matcher.match_lookup(node)

    async def snapshot(self) -> Dict[str, object]:
        """Drain, then return the matcher's consistent snapshot."""
        await self.drain()
        return self.matcher.snapshot()

    def metrics(self) -> Dict[str, float]:
        """Always-on serving meters (``repro serve``, ``/metrics``).

        Coalescing ratio is events admitted per flush; latency
        percentiles (p50/p95/p99 — the tail matters under skewed
        traffic) are over per-flush re-convergence wall-clock, computed
        by the shared nearest-rank helper
        (:func:`~repro.telemetry.metrics.percentile`).
        ``flushes_per_sec`` and ``throughput_events_per_s`` are rates
        over *busy* time (the sum of flush wall-clock), so they measure
        the engine, not the arrival gaps.  ``flush_retries`` counts
        flush attempts rolled back by a transient fault and retried;
        ``events_rejected`` counts invalid events.
        """
        counters = self.matcher.runtime.counters.group(
            SERVICE_COUNTER_GROUP
        )
        faults = self.matcher.runtime.counters.group("faults")
        latencies = self.matcher.flush_seconds
        admitted = counters.get("events.admitted", 0)
        flushed = counters.get("batches.flushed", 0)
        busy = sum(latencies)
        report: Dict[str, float] = {
            "events_admitted": admitted,
            "events_rejected": counters.get("events.rejected", 0),
            "batches_flushed": flushed,
            "coalescing_ratio": admitted / flushed if flushed else 0.0,
            "reconverge_rounds": counters.get("reconverge.rounds", 0),
            "throughput_events_per_s": (
                admitted / busy if busy > 0 else 0.0
            ),
            "flushes_per_sec": flushed / busy if busy > 0 else 0.0,
            "flush_retries": faults.get("flush.retries", 0),
        }
        report.update(latency_summary_ms(latencies))
        return report

    async def close(self) -> None:
        """Drain, reject further submissions, release the matcher."""
        await self.drain()
        self._closed = True
        if self._timer is not None:  # pragma: no cover - drained above
            self._timer.cancel()
            self._timer = None
        self.matcher.close()

    async def __aenter__(self) -> "MatchingService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
