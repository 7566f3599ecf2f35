"""Online matching service: live events on the resident-state plane.

The batch pipeline answers "what should everyone see right now?" from
scratch; this package keeps the answer *warm*.  An
:class:`OnlineMatcher` holds the candidate graph and a resident
GreedyMR state store across jobs, admits live events — new items,
new consumers, capacity retunes, retirements — and re-decides only
the suffix of each node's edge ranking the batch can reach (the
*repair plan*) via frontier delta rounds.  The result is provably
bit-identical to a cold batch GreedyMR run on the final graph (see
:mod:`repro.service.matcher` for the rank-order induction).  :class:`MatchingService` adds the serving surface: asyncio
micro-batching with request coalescing, ``submit_event(s)`` /
``match_lookup`` / ``snapshot`` endpoints, and always-on counters.

Quickstart::

    import asyncio
    from repro.service import Arrival, MatchingService, OnlineMatcher

    async def demo(graph):
        service = MatchingService(OnlineMatcher(graph=graph))
        await service.submit_event(
            Arrival("new-photo", capacity=2, edges=(("alice", 0.9),))
        )
        feed = await service.match_lookup("alice")
        await service.close()
        return feed

CLI: ``repro serve`` drives a seeded Zipf event stream
(:func:`repro.telemetry.loadgen.zipf_events`) against a generated
corpus and reports coalescing, latency percentiles, and the cold-batch
verification.
"""

from .events import (
    Arrival,
    CapacityChange,
    EdgeArrival,
    Event,
    EventError,
    Retirement,
    apply_event,
    plain_graph,
)
from .matcher import SERVICE_COUNTER_GROUP, FlushReport, OnlineMatcher
from .service import MatchingService, ServiceClosed

__all__ = [
    "Arrival",
    "CapacityChange",
    "EdgeArrival",
    "Event",
    "EventError",
    "FlushReport",
    "MatchingService",
    "OnlineMatcher",
    "Retirement",
    "SERVICE_COUNTER_GROUP",
    "ServiceClosed",
    "apply_event",
    "plain_graph",
]
