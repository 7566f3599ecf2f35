"""Tests for speculative execution (task-retry determinism checking)."""

import random

import pytest

from repro.mapreduce import (
    JobValidationError,
    MapReduceJob,
    MapReduceRuntime,
    stable_hash,
)


class PureJob(MapReduceJob):
    """Stateless; randomness derived from the input key (allowed)."""

    def map(self, key, value):
        rng = random.Random(stable_hash((42, key)))
        yield key, value + rng.random()

    def reduce(self, key, values):
        yield key, sum(values)


class StatefulJob(MapReduceJob):
    """Carries mutable state across map calls (forbidden)."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def map(self, key, value):
        self.calls += 1
        yield key, self.calls

    def reduce(self, key, values):
        yield key, sum(values)


class FreshRandomJob(MapReduceJob):
    """Draws from an advancing RNG stream (forbidden)."""

    def __init__(self):
        super().__init__()
        self.rng = random.Random(0)

    def map(self, key, value):
        yield key, self.rng.random()

    def reduce(self, key, values):
        yield key, values[0]


RECORDS = [(i, float(i)) for i in range(10)]


def test_pure_job_passes_speculative_execution(backend):
    runtime = MapReduceRuntime(
        speculative_execution=True, backend=backend
    )
    strict = runtime.run(PureJob(), RECORDS)
    relaxed = MapReduceRuntime().run(PureJob(), RECORDS)
    assert sorted(strict) == sorted(relaxed)


def test_stateful_job_detected(backend):
    # Mismatch detection lives inside the task unit of work, so it
    # fires identically on every backend.
    runtime = MapReduceRuntime(
        speculative_execution=True, backend=backend
    )
    with pytest.raises(JobValidationError, match="non-deterministic"):
        runtime.run(StatefulJob(), RECORDS)


def test_fresh_random_job_detected(backend):
    runtime = MapReduceRuntime(
        speculative_execution=True, backend=backend
    )
    with pytest.raises(JobValidationError, match="non-deterministic"):
        runtime.run(FreshRandomJob(), RECORDS)


def test_counters_not_double_metered(backend):
    runtime = MapReduceRuntime(
        speculative_execution=True, backend=backend
    )
    runtime.run(PureJob(), RECORDS)
    assert runtime.counters.get("PureJob", "map.input.records") == len(
        RECORDS
    )


def test_matching_jobs_survive_speculative_execution():
    """The package's own jobs must all be retry-safe."""
    from repro.graph import random_bipartite
    from repro.matching import greedy_mr_b_matching, stack_mr_b_matching

    graph = random_bipartite(8, 6, 0.4, rng=random.Random(1))
    runtime = MapReduceRuntime(speculative_execution=True)
    greedy = greedy_mr_b_matching(graph, runtime=runtime)
    stack = stack_mr_b_matching(graph, runtime=runtime, seed=3)
    assert greedy.value > 0
    assert stack.value > 0


def test_simjoin_jobs_survive_speculative_execution():
    from repro.simjoin import mapreduce_similarity_join

    runtime = MapReduceRuntime(speculative_execution=True)
    rows = mapreduce_similarity_join(
        {"t1": {"a": 2.0}},
        {"c1": {"a": 1.0}},
        1.0,
        runtime=runtime,
    )
    assert rows == [("t1", "c1", 2.0)]
