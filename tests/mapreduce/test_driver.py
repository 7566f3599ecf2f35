"""Tests for the one round loop, ``IterativeDriver.iterate``."""

import pytest

from repro.mapreduce import (
    IterativeDriver,
    MapReduceJob,
    MapReduceRuntime,
    RoundLimitExceeded,
)
from repro.telemetry import Tracer


class AddOne(MapReduceJob):
    def map(self, key, value):
        yield key, value + 1

    def reduce(self, key, values):
        yield key, values[0]


def test_driver_iterates_to_convergence(runtime):
    driver = IterativeDriver(runtime, name="count-to-5")

    def step(state, round_number):
        return runtime.run(AddOne(), state)

    final = driver.iterate(step, [("k", 0)], pending=lambda s: s[0][1] < 5)
    assert final == [("k", 5)]
    assert driver.rounds_completed == 5
    assert runtime.jobs_executed == 5
    assert runtime.counters.get("count-to-5", "rounds") == 5


def test_driver_round_limit(runtime):
    driver = IterativeDriver(runtime, name="never", max_rounds=3)
    with pytest.raises(RoundLimitExceeded) as excinfo:
        driver.iterate(lambda state, n: state, True)
    assert excinfo.value.max_rounds == 3
    assert "never" in str(excinfo.value)
    # The cap is reached after exactly ``max_rounds`` rounds.
    assert driver.rounds_completed == 3
    assert runtime.counters.get("never", "rounds") == 3


def test_driver_zero_jobs_per_round_allowed(runtime):
    """A round may run no job; one that finishes in round 1 runs once."""
    driver = IterativeDriver(runtime, name="pure")
    assert driver.iterate(lambda state, n: [], ["work"]) == []
    assert driver.rounds_completed == 1
    assert runtime.jobs_executed == 0
    assert runtime.counters.get("pure", "rounds") == 1


def test_driver_runs_nothing_when_nothing_is_pending():
    tracer = Tracer()
    runtime = MapReduceRuntime(tracer=tracer)
    driver = IterativeDriver(runtime, name="idle", max_rounds=0)

    def step(state, n):
        raise AssertionError("no round may run")

    assert driver.iterate(step, []) == []
    assert driver.rounds_completed == 0
    assert runtime.counters.group("idle") == {}
    assert tracer.spans == []


def test_driver_traces_one_span_per_round():
    tracer = Tracer()
    runtime = MapReduceRuntime(tracer=tracer)
    driver = IterativeDriver(runtime, name="countdown")
    driver.iterate(lambda state, n: state - 1, 3)
    assert [(s.name, s.kind) for s in tracer.spans] == [
        ("round:countdown:0", "round"),
        ("round:countdown:1", "round"),
        ("round:countdown:2", "round"),
    ]
