"""The percentile rule and the two load loops."""

import asyncio
import time

import pytest

import loadgen


@pytest.mark.parametrize(
    "count, rank",
    [(1, 50), (3, 50), (99, 50), (100, 90), (199, 90), (200, 95),
     (999, 95), (1000, 99), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond_it(count, rank):
    assert loadgen.supported_percentile(count) == rank


def test_tail_latency_falls_back_to_what_the_sample_supports():
    values = list(range(1, 201))  # 200 samples: p95 is supported
    assert loadgen.tail_latency(values) == (190, 95)
    assert loadgen.tail_latency(values[:120]) == (108, 90)
    assert loadgen.tail_latency([7.0, 9.0, 8.0]) == (8.0, 50)


def test_percentile_is_nearest_rank():
    assert loadgen.percentile([4, 1, 3, 2], 50) == 2
    assert loadgen.percentile([4, 1, 3, 2], 100) == 4
    with pytest.raises(ValueError):
        loadgen.percentile([], 50)


class StalledService:
    """Answers one event at a time and stalls on the first.

    The stall blocks the event loop itself (a synchronous sleep), so
    the generator cannot send the next events on time either.
    """

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.seen = []

    async def submit(self, event):
        self.seen.append(event)
        if event == 0:
            time.sleep(self.stall)
        return event


def test_open_loop_times_each_event_from_when_it_was_due():
    service = StalledService(stall=0.2)
    result = asyncio.run(
        loadgen.open_loop(service.submit, list(range(5)), rate=100.0)
    )
    assert service.seen == [0, 1, 2, 3, 4]
    samples = result.samples
    # Event 1 was due 10 ms in but could only be sent once the stall
    # was over: it ran ~190 ms late, and that wait is in its latency
    # although the service answered it instantly.
    assert samples[1].lag == pytest.approx(0.19, abs=0.03)
    assert samples[1].latency >= samples[1].lag > 0.15
    assert samples[1].done - samples[1].sent < 0.02
    # Due times stay on the schedule whatever happened before.
    for sample in samples:
        assert sample.due - samples[0].due == pytest.approx(
            sample.index / 100.0
        )
    assert result.wall_seconds >= 0.2


def test_open_loop_does_not_wait_for_replies_and_counts_the_backlog():
    gate = None

    async def submit(event):
        await gate.wait()
        return event

    async def scenario():
        nonlocal gate
        gate = asyncio.Event()
        asyncio.get_running_loop().call_later(0.1, gate.set)
        return await loadgen.open_loop(submit, list(range(6)), rate=200.0)

    result = asyncio.run(scenario())
    # All six went out (5 ms apart) before the first reply came back.
    assert result.backlog_max == 6
    assert max(sample.lag for sample in result.samples) < 0.02
    assert min(sample.latency for sample in result.samples) > 0.05


def test_closed_loop_keeps_one_event_in_flight_per_client():
    in_flight = 0
    highest = 0

    async def submit(event):
        nonlocal in_flight, highest
        in_flight += 1
        highest = max(highest, in_flight)
        await asyncio.sleep(0.001)
        in_flight -= 1
        return event

    result = asyncio.run(loadgen.closed_loop(submit, list(range(20)), 4))
    assert highest == 4 == result.backlog_max
    assert [sample.reply for sample in result.samples] == list(range(20))
    assert all(sample.lag == 0 for sample in result.samples)


def test_a_failing_event_is_a_sample_not_a_crash():
    async def submit(event):
        if event == 1:
            raise RuntimeError("boom")
        return event

    result = asyncio.run(loadgen.closed_loop(submit, [0, 1, 2], 1))
    errors = [sample.error for sample in result.samples]
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], RuntimeError)
