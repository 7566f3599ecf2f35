"""Closed-loop load: seeded Zipf traffic against the matching service.

Two halves, both deterministic:

* :func:`zipf_events` — a seeded event generator like
  :func:`~repro.service.workload.synthetic_events` (same mirror-graph
  validity-by-construction, same event vocabulary) but with **Zipf-
  skewed node selection**: non-arrival events target node *ranks* drawn
  from a Zipf distribution over the live population, so a handful of
  hot nodes absorb most of the churn — the traffic shape a content site
  actually sees, and the one that stresses the matcher's repair
  plan (hot neighborhoods stay hot).  The
  arrival/edge/capacity/retirement mix is configurable.  Same
  ``(graph, count, seed, skew, mix)`` always yields the same stream;
  :func:`events_digest` fingerprints a stream so the benchmark can
  prove it.

* :func:`run_load` — a closed-loop driver: submits the stream to a
  :class:`~repro.service.service.MatchingService` at a target offered
  rate (or as fast as the coalescing buffer accepts, when unpaced),
  measures every event's submit→converged latency on the event-loop
  clock, records the sample into the runtime's metrics registry, and
  returns a :class:`LoadReport` with p50/p95/p99 latency, achieved
  throughput, and the service's own meters.

``benchmarks/bench_load.py`` wires the two into ``BENCH_serving.json``
with a CI regression gate, optionally exposing the registry through
:class:`~repro.telemetry.exporter.MetricsExporter` mid-run.

This module imports the service layer, so it is *not* re-exported from
``repro.telemetry`` (the mapreduce layer imports that package);
import it explicitly as ``repro.telemetry.loadgen``.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..graph import Graph
from ..service.events import (
    Arrival,
    CapacityChange,
    EdgeArrival,
    Event,
    Retirement,
    apply_event,
    plain_graph,
)
from ..service.service import MatchingService
from .metrics import TIMING_BUCKETS, latency_summary_ms

__all__ = [
    "DEFAULT_MIX",
    "LoadReport",
    "events_digest",
    "run_load",
    "zipf_events",
]

#: Default event mix: the proportions of
#: :func:`~repro.service.workload.synthetic_events`, named.
DEFAULT_MIX: Mapping[str, float] = {
    "arrival": 0.45,
    "edge": 0.20,
    "capacity": 0.20,
    "retirement": 0.15,
}

#: Same coarse weight grid as the uniform workload generator — keeps
#: the total edge order's tie-breaking exercised.
_WEIGHTS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0, 10.0)


class _ZipfPicker:
    """Draw node *ranks* from a Zipf distribution, deterministically.

    Rank ``k`` (1-based, over the sorted live population) carries
    weight ``k**-skew``; the cumulative table is rebuilt only when the
    population size changes.  ``skew=0`` degenerates to uniform.
    """

    def __init__(self, rng: random.Random, skew: float) -> None:
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        self.rng = rng
        self.skew = skew
        self._size = 0
        self._cumulative: List[float] = []

    def _table(self, size: int) -> List[float]:
        if size != self._size:
            weights = [
                (rank + 1) ** -self.skew for rank in range(size)
            ]
            self._cumulative = list(accumulate(weights))
            self._size = size
        return self._cumulative

    def pick(self, population: Sequence[str]) -> str:
        """One Zipf-ranked draw from the sorted population."""
        cumulative = self._table(len(population))
        point = self.rng.random() * cumulative[-1]
        return population[bisect_left(cumulative, point)]

    def sample(
        self, population: Sequence[str], count: int
    ) -> List[str]:
        """Up to ``count`` *distinct* Zipf-ranked draws.

        Rejection-samples duplicates with a bounded number of draws —
        with a hot head, distinct hits get rare, and the generator must
        stay O(count) per event — so fewer than ``count`` picks can
        come back.  Deterministic for a deterministic ``rng``.
        """
        picked: List[str] = []
        seen = set()
        attempts = 0
        limit = 8 * count + 8
        while len(picked) < count and attempts < limit:
            attempts += 1
            choice = self.pick(population)
            if choice not in seen:
                seen.add(choice)
                picked.append(choice)
        return picked


def _normalized_mix(mix: Mapping[str, float]) -> Dict[str, float]:
    unknown = set(mix) - set(DEFAULT_MIX)
    if unknown:
        raise ValueError(
            f"unknown event kinds in mix: {sorted(unknown)}; "
            f"expected a subset of {sorted(DEFAULT_MIX)}"
        )
    full = {kind: float(mix.get(kind, 0.0)) for kind in DEFAULT_MIX}
    if any(share < 0 for share in full.values()):
        raise ValueError(f"mix shares must be >= 0: {mix}")
    total = sum(full.values())
    if total <= 0:
        raise ValueError("mix must have at least one positive share")
    return {kind: share / total for kind, share in full.items()}


def zipf_events(
    graph: Graph,
    count: int,
    seed: int = 0,
    skew: float = 1.1,
    mix: Mapping[str, float] = DEFAULT_MIX,
    node_prefix: str = "zipf",
    max_edges_per_arrival: int = 3,
) -> Tuple[List[Event], Graph]:
    """Generate ``count`` valid events with Zipf-skewed node targeting.

    Returns ``(events, final_graph)``: the mirror graph after every
    event applied is the cold-batch reference, exactly like
    :func:`~repro.service.workload.synthetic_events`.  The input graph
    is not mutated.  ``skew`` is the Zipf exponent over node ranks
    (sorted name order; ``0`` = uniform), ``mix`` the
    arrival/edge/capacity/retirement proportions (normalized).
    """
    rng = random.Random(seed)
    picker = _ZipfPicker(rng, skew)
    shares = _normalized_mix(mix)
    thresholds = list(
        accumulate(
            shares[kind]
            for kind in ("arrival", "edge", "capacity", "retirement")
        )
    )
    mirror = plain_graph(graph)
    events: List[Event] = []
    arrivals = 0
    for _ in range(count):
        nodes = sorted(mirror.nodes())
        roll = rng.random()
        event: Event
        if roll < thresholds[0] or len(nodes) < 2:
            # New nodes attach preferentially to the hot head — the
            # rich-get-richer shape that keeps hot neighborhoods hot.
            name = f"{node_prefix}-{arrivals}"
            arrivals += 1
            targets = picker.sample(
                nodes,
                min(
                    len(nodes),
                    rng.randint(0, max_edges_per_arrival),
                ),
            )
            event = Arrival(
                node=name,
                capacity=rng.randint(1, 3),
                edges=tuple(
                    (target, rng.choice(_WEIGHTS))
                    for target in targets
                ),
            )
        elif roll < thresholds[1]:
            pair = picker.sample(nodes, 2)
            if len(pair) < 2:  # pragma: no cover - needs a tiny graph
                pair = rng.sample(nodes, 2)
            event = EdgeArrival(
                u=pair[0], v=pair[1], weight=rng.choice(_WEIGHTS)
            )
        elif roll < thresholds[2]:
            event = CapacityChange(
                node=picker.pick(nodes), capacity=rng.randint(0, 3)
            )
        else:
            event = Retirement(node=picker.pick(nodes))
        apply_event(mirror, event)
        events.append(event)
    return events, mirror


def events_digest(events: Sequence[Event]) -> str:
    """A short stable fingerprint of an event stream.

    ``bench_load.py`` commits it to ``BENCH_serving.json``: the CI gate
    comparing digests proves "same seed → same event stream" across
    machines and runs.
    """
    hasher = hashlib.sha256()
    for event in events:
        hasher.update(repr(event).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()[:16]


async def _settle(
    service: MatchingService, tasks: List["asyncio.Task"]
) -> None:
    """Drain the service, then wait for every submission to resolve."""
    await service.drain()
    await asyncio.gather(*tasks)


@dataclass
class LoadReport:
    """What one closed-loop run measured."""

    events: int
    offered_rate: Optional[float]
    wall_seconds: float
    #: submit→converged seconds per event, in submission order.
    latencies: List[float]
    #: ``service.metrics()`` taken at the end of the run.
    service_metrics: Dict[str, float]

    def summary(self) -> Dict[str, float]:
        """The flat record ``bench_load.py`` persists."""
        achieved = (
            self.events / self.wall_seconds
            if self.wall_seconds > 0
            else 0.0
        )
        row: Dict[str, float] = {
            "events": self.events,
            "offered_rate_events_per_s": self.offered_rate or 0.0,
            "wall_seconds": self.wall_seconds,
            "achieved_events_per_s": achieved,
        }
        row.update(latency_summary_ms(self.latencies))
        return row


async def run_load(
    service: MatchingService,
    events: Sequence[Event],
    offered_rate: Optional[float] = None,
    drain_timeout: Optional[float] = 120.0,
) -> LoadReport:
    """Drive the service with ``events`` and measure per-event latency.

    ``offered_rate`` paces submissions (events/second, open-loop
    arrivals); ``None`` enqueues the whole stream before the first
    flush starts, which — with a generous ``max_delay`` — makes flush
    boundaries a pure function of ``max_batch`` and therefore
    deterministic (what the benchmark's regression gate relies on).
    Latency is submit→flush-converged on the event-loop clock, so it
    includes coalescing wait.
    The sample lands in the runtime's registry as the volatile
    ``load.event_latency_seconds`` histogram (scrapeable mid-run via
    the metrics endpoint).  Does not close the service.

    ``drain_timeout`` bounds the end-of-stream drain and result
    gather: a wedged flush (a deadlocked store, an executor that never
    returns) fails the run with a :class:`RuntimeError` naming the
    number of unresolved submissions instead of hanging CI forever.
    ``None`` waits unboundedly.
    """
    loop = asyncio.get_running_loop()
    interval = 1.0 / offered_rate if offered_rate else 0.0
    latency_hist = service.matcher.runtime.metrics.histogram(
        "load",
        "event_latency_seconds",
        TIMING_BUCKETS,
        volatile=True,
        keep_samples=True,
    )

    async def one(event: Event) -> float:
        submitted = loop.time()
        await service.submit_event(event)
        seconds = loop.time() - submitted
        latency_hist.observe(seconds)
        return seconds

    started = loop.time()
    tasks: List[asyncio.Task] = []
    for event in events:
        tasks.append(asyncio.ensure_future(one(event)))
        if interval:
            await asyncio.sleep(interval)
    if not interval:
        # One yield for the whole stream: the submission coroutines run
        # in creation order (= stream order) and enqueue every event
        # before the first flush starts, so batches are cut by
        # ``max_batch`` alone — a trigger that fired while a flush was
        # running would be held and merged (see MatchingService).
        await asyncio.sleep(0)
    # Flush any straggler partial batch immediately — without this, a
    # stream that is not a multiple of max_batch waits out the full
    # max_delay timer before the last waiters resolve.
    try:
        await asyncio.wait_for(
            _settle(service, tasks), timeout=drain_timeout
        )
    except asyncio.TimeoutError:
        pending = sum(
            1
            for task in tasks
            if not task.done() or task.cancelled()
        )
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        raise RuntimeError(
            f"load run wedged: drain did not complete within "
            f"{drain_timeout}s ({pending} of {len(tasks)} submissions "
            f"still unresolved — a flush is stuck or the service "
            f"stopped making progress)"
        ) from None
    latencies = [task.result() for task in tasks]
    wall = loop.time() - started
    return LoadReport(
        events=len(tasks),
        offered_rate=offered_rate,
        wall_seconds=wall,
        latencies=latencies,
        service_metrics=service.metrics(),
    )
