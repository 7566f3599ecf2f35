"""Behavioral tests for the simulated MapReduce runtime."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce import (
    Counters,
    JobValidationError,
    MapReduceJob,
    MapReduceRuntime,
)


class WordCount(MapReduceJob):
    """The canonical wordcount job (with combiner)."""

    has_combiner = True

    def map(self, key, line):
        for word in line.split():
            yield word, 1

    def combine(self, word, counts):
        yield word, sum(counts)

    def reduce(self, word, counts):
        yield word, sum(counts)


class Identity(MapReduceJob):
    def map(self, key, value):
        yield key, value

    def reduce(self, key, values):
        for value in values:
            yield key, value


class GroupSizes(MapReduceJob):
    """Reports how many values each key group received."""

    def map(self, key, value):
        yield key, value

    def reduce(self, key, values):
        yield key, len(values)


class UsesSide(MapReduceJob):
    """Adds a side-data offset to every value (module-level: picklable)."""

    def map(self, key, value):
        yield key, self.side_data["offset"] + value

    def reduce(self, key, values):
        yield key, sum(values)


class BadEmit(MapReduceJob):
    """Emits a bare key instead of a pair (rejected by the runtime)."""

    def map(self, key, value):
        yield "just-a-key"

    def reduce(self, key, values):
        return []


class BadNone(MapReduceJob):
    """Returns None from map (rejected by the runtime)."""

    def map(self, key, value):
        return None

    def reduce(self, key, values):
        return []


LINES = [
    (0, "the quick brown fox"),
    (1, "the lazy dog"),
    (2, "the fox jumps over the dog"),
]


def test_wordcount_basics(runtime):
    output = dict(runtime.run(WordCount(), LINES))
    assert output["the"] == 4
    assert output["fox"] == 2
    assert output["jumps"] == 1


@pytest.mark.parametrize("maps", [1, 2, 3, 7])
@pytest.mark.parametrize("reduces", [1, 2, 5])
def test_result_independent_of_task_counts(maps, reduces):
    runtime = MapReduceRuntime(num_map_tasks=maps, num_reduce_tasks=reduces)
    output = sorted(runtime.run(WordCount(), LINES))
    baseline = sorted(
        MapReduceRuntime(num_map_tasks=1, num_reduce_tasks=1).run(
            WordCount(), LINES
        )
    )
    assert output == baseline


@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9), st.text(max_size=20)
        ),
        max_size=30,
    ),
    maps=st.integers(min_value=1, max_value=5),
    reduces=st.integers(min_value=1, max_value=5),
)
def test_wordcount_partition_independence_property(records, maps, reduces):
    runtime = MapReduceRuntime(num_map_tasks=maps, num_reduce_tasks=reduces)
    single = MapReduceRuntime(num_map_tasks=1, num_reduce_tasks=1)
    assert sorted(runtime.run(WordCount(), records)) == sorted(
        single.run(WordCount(), records)
    )


def test_each_key_reduced_exactly_once(runtime):
    records = [("a", 1), ("a", 2), ("b", 3), ("a", 4)]
    output = dict(runtime.run(GroupSizes(), records))
    assert output == {"a": 3, "b": 1}


def test_reduce_groups_never_split_across_partitions():
    # Even with many reducers, one key's values arrive in one group.
    runtime = MapReduceRuntime(num_map_tasks=3, num_reduce_tasks=11)
    records = [("hot", i) for i in range(50)]
    output = runtime.run(GroupSizes(), records)
    assert output == [("hot", 50)]


def test_counters_meter_records(runtime):
    runtime.run(WordCount(), LINES)
    group = runtime.counters.group("WordCount")
    assert group["map.input.records"] == 3
    # combiner compresses per-split duplicates, so output <= 13 tokens
    assert 0 < group["map.output.records"] <= 13
    assert group["shuffle.records"] == group["map.output.records"]
    assert group["reduce.input.groups"] == 8  # distinct words
    assert runtime.counters.get("runtime", "jobs") == 1


def test_jobs_executed_and_log(runtime):
    runtime.run(Identity(), [("k", "v")])
    runtime.run(WordCount(), LINES)
    assert runtime.jobs_executed == 2
    assert runtime.job_log == ["Identity", "WordCount"]


def test_side_data_reaches_job(runtime):
    output = runtime.run(
        UsesSide(), [("k", 1)], side_data={"offset": 10}
    )
    assert output == [("k", 11)]


def test_side_data_cleared_between_runs(runtime):
    job = Identity()
    runtime.run(job, [("k", 1)], side_data={"x": 1})
    runtime.run(job, [("k", 1)])
    assert job.side_data == {}


def test_invalid_input_record_rejected(runtime):
    with pytest.raises(JobValidationError):
        runtime.run(Identity(), ["not-a-pair"])


def test_map_emitting_non_pair_rejected(runtime):
    with pytest.raises(JobValidationError):
        runtime.run(BadEmit(), [("k", "v")])


def test_map_returning_none_rejected(runtime):
    with pytest.raises(JobValidationError):
        runtime.run(BadNone(), [("k", "v")])


def test_bad_task_counts_rejected():
    with pytest.raises(JobValidationError):
        MapReduceRuntime(num_map_tasks=0)
    with pytest.raises(JobValidationError):
        MapReduceRuntime(num_reduce_tasks=0)


def test_empty_input_produces_empty_output(runtime):
    assert runtime.run(WordCount(), []) == []


def test_tuple_keys_group_correctly(runtime):
    records = [(("a", 1), "x"), (("a", 1), "y"), (("a", 2), "z")]
    output = dict(runtime.run(GroupSizes(), records))
    assert output == {("a", 1): 2, ("a", 2): 1}


def test_shared_counters_accumulate_across_jobs():
    counters = Counters()
    r1 = MapReduceRuntime(counters=counters)
    r2 = MapReduceRuntime(counters=counters)
    r1.run(Identity(), [("k", 1)])
    r2.run(Identity(), [("k", 2)])
    assert counters.get("runtime", "jobs") == 2


def test_combiner_preserves_result_but_shrinks_shuffle():
    records = [(0, "a a a a a a a a b")]
    with_combiner = MapReduceRuntime(num_map_tasks=1)
    out1 = sorted(with_combiner.run(WordCount(), records))

    class NoCombine(WordCount):
        has_combiner = False

    without = MapReduceRuntime(num_map_tasks=1)
    out2 = sorted(without.run(NoCombine(), records))
    assert out1 == out2
    assert with_combiner.counters.get(
        "WordCount", "shuffle.records"
    ) < without.counters.get("NoCombine", "shuffle.records")
