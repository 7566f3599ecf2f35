"""Load generators for the serving workloads, and the percentile rule.

Two loops, one process, one asyncio event loop:

* :func:`closed_loop` — ``clients`` callers each send their next event
  only after the previous reply, so a slow service receives less load.
  What it measures is the engine's *capacity*; its latencies include
  the wait for the other callers' batchmates by construction.
* :func:`open_loop` — events go out on a fixed schedule whether or not
  earlier ones have been answered (independent users), and every event
  is timed **from the instant it was due**, not from when it was
  actually sent: if the generator or the service stalls, the wait that
  stall imposes on later events is counted, not hidden.  How late the
  generator ran (``lag``) and how many events were outstanding at once
  (``backlog_max``) are reported beside the latencies.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, List, Optional, Sequence

__all__ = [
    "Sample",
    "LoadResult",
    "closed_loop",
    "open_loop",
    "percentile",
    "supported_percentile",
    "tail_latency",
]

Submit = Callable[[Any], Awaitable[Any]]


@dataclass
class Sample:
    """One event's timeline, in ``time.perf_counter`` seconds."""

    index: int
    due: float
    sent: float
    done: float
    reply: Any = None
    error: Optional[BaseException] = None

    @property
    def latency(self) -> float:
        """Due time → reply: what an independent user waited."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent the event."""
        return self.sent - self.due


@dataclass
class LoadResult:
    samples: List[Sample]
    wall_seconds: float
    backlog_max: int


class _Backlog:
    def __init__(self) -> None:
        self.current = 0
        self.highest = 0

    def enter(self) -> None:
        self.current += 1
        self.highest = max(self.highest, self.current)

    def leave(self) -> None:
        self.current -= 1


async def _one(
    submit: Submit,
    index: int,
    event: Any,
    due: Optional[float],
    backlog: _Backlog,
) -> Sample:
    """Submit one event; ``due=None`` means due the moment it is sent."""
    backlog.enter()
    sent = time.perf_counter()
    if due is None:
        due = sent
    try:
        reply = await submit(event)
    except Exception as exc:  # a failed event is a result, not a crash
        return Sample(index, due, sent, time.perf_counter(), error=exc)
    finally:
        backlog.leave()
    return Sample(index, due, sent, time.perf_counter(), reply=reply)


async def closed_loop(
    submit: Submit, events: Sequence[Any], clients: int
) -> LoadResult:
    """``clients`` callers share the stream; each waits for its reply
    before taking the next event.  An event is due when its caller is
    free, so ``latency`` is submit → reply and ``lag`` is zero."""
    backlog = _Backlog()
    pending = iter(enumerate(events))
    samples: List[Sample] = []

    async def client() -> None:
        for index, event in pending:
            samples.append(
                await _one(submit, index, event, None, backlog)
            )

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(clients)))
    wall = time.perf_counter() - started
    samples.sort(key=lambda sample: sample.index)
    return LoadResult(samples, wall, backlog.highest)


async def open_loop(
    submit: Submit, events: Sequence[Any], rate: float
) -> LoadResult:
    """Send event ``i`` at ``start + i / rate`` no matter what came
    back so far; returns when every event has been answered."""
    backlog = _Backlog()
    tasks: List["asyncio.Task[Sample]"] = []
    started = time.perf_counter()
    for index, event in enumerate(events):
        due = started + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.ensure_future(
                _one(submit, index, event, due, backlog)
            )
        )
    samples = list(await asyncio.gather(*tasks))
    return LoadResult(
        samples, time.perf_counter() - started, backlog.highest
    )


# -- percentiles -------------------------------------------------------------

#: The percentiles a report may name, lowest first, each with the
#: share of samples beyond it in units of 1/1000.
_LADDER = ((50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1))


def supported_percentile(count: int) -> float:
    """The highest percentile of the ladder with at least ten samples
    beyond it — the tail a sample of ``count`` can actually resolve.
    200 samples support p95 (10 beyond), 1000 support p99; anything
    under 100 supports only the median."""
    best = _LADDER[0][0]
    for rank, beyond_per_mille in _LADDER[1:]:
        if count * beyond_per_mille >= 10 * 1000:
            best = rank
    return best


def percentile(values: Sequence[float], rank: float) -> float:
    """Nearest-rank percentile (``rank`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = max(1, math.ceil(rank / 100.0 * len(ordered)))
    return ordered[position - 1]


def tail_latency(values: Sequence[float], wanted: float = 95.0):
    """``(value, rank)``: the ``wanted`` percentile when the sample
    supports it, else the highest percentile it does support."""
    rank = min(wanted, supported_percentile(len(values)))
    return percentile(values, rank), rank
