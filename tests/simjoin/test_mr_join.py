"""Tests for the MapReduce similarity join (§5.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce import InMemoryFileSystem, MapReduceRuntime
from repro.simjoin import (
    VerifyJob,
    exact_similarity_join,
    mapreduce_similarity_join,
    similarity_join_pipeline,
)

from ..strategies import exact_term_weight_strategy, vector_collections


def test_mr_join_matches_exact_small():
    items = {"t1": {"a": 2.0, "b": 1.0}, "t2": {"c": 4.0}}
    consumers = {"c1": {"a": 1.0, "c": 1.0}, "c2": {"b": 2.0}}
    for sigma in (0.5, 2.0, 3.9, 4.0, 10.0):
        assert mapreduce_similarity_join(
            items, consumers, sigma
        ) == exact_similarity_join(items, consumers, sigma)


def test_mr_join_emits_only_cross_side_pairs():
    items = {"t1": {"a": 1.0}, "t2": {"a": 1.0}}
    consumers = {"c1": {"a": 1.0}, "c2": {"a": 1.0}}
    rows = mapreduce_similarity_join(items, consumers, 0.5)
    for t, c, _ in rows:
        assert t.startswith("t") and c.startswith("c")
    assert len(rows) == 4  # no t-t or c-c pairs


def test_mr_join_runs_three_jobs(runtime):
    mapreduce_similarity_join(
        {"t1": {"a": 1.0}}, {"c1": {"a": 1.0}}, 0.5, runtime=runtime
    )
    assert runtime.jobs_executed == 3
    assert runtime.job_log == [
        "simjoin-term-bounds",
        "simjoin-candidates",
        "simjoin-verify",
    ]


def test_mr_join_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        mapreduce_similarity_join({}, {}, 0.0)


def test_mr_join_prunes_hopeless_items():
    # Items whose suffix bound cannot reach sigma against *any*
    # consumer have an empty prefix and post nothing at all — the
    # pruning that survives the partial-score kernel at map time.
    items = {
        f"t{i}": {"shared": 0.1, f"own{i}": 10.0} for i in range(20)
    }
    hopeless = {f"weak{i}": {"shared": 0.2} for i in range(30)}
    items.update(hopeless)
    consumers = {f"c{i}": {f"own{i}": 10.0} for i in range(20)}
    runtime = MapReduceRuntime()
    rows = mapreduce_similarity_join(
        items, consumers, sigma=50.0, runtime=runtime
    )
    assert len(rows) == 20  # each strong item matches its consumer
    postings = runtime.counters.get(
        "simjoin-candidates", "map.output.records"
    )
    # 20 items x 2 terms + 20 consumer postings; the 30 hopeless items
    # (max possible dot = 0.2 * 10.0 < sigma... they share no term with
    # any consumer at all here, bound 0) contribute nothing.
    assert postings == 60


def test_mr_join_verify_ships_no_document_stores():
    """The verify stage is sum-and-threshold: its only side data is
    sigma — the corpus never rides the DistributedCache."""
    items = {"t1": {"a": 2.0, "b": 1.0}}
    consumers = {"c1": {"a": 1.0, "b": 3.0}}
    pipeline = similarity_join_pipeline(items, consumers, 1.0)
    verify_stage = pipeline.stages[-1]
    assert verify_stage.job.name == "simjoin-verify"
    side = verify_stage.side_data(pipeline.filesystem)
    assert set(side) == {"sigma"}


def test_mr_join_partial_scores_sum_to_exact_dot():
    """Candidate products summed per pair equal the full dot product,
    including non-prefix terms."""
    # With sigma=5.75 and maxw=1.0 the prefix of t1 is a strict subset
    # of its terms, yet the verified score must cover all shared terms.
    items = {"t1": {"a": 4.0, "b": 1.5, "c": 0.5}}
    consumers = {"c1": {"a": 1.0, "b": 1.0, "c": 1.0}}
    rows = mapreduce_similarity_join(items, consumers, 5.75)
    assert rows == [("t1", "c1", 6.0)]


def test_mr_join_prefix_gate_drops_sub_threshold_pairs():
    """A pair co-occurring only on non-prefix terms is provably below
    sigma and never reaches a threshold comparison."""
    items = {"t1": {"heavy": 10.0, "light": 0.1}}
    consumers = {
        "c1": {"heavy": 1.0},  # shares t1's prefix term
        "c2": {"light": 1.0},  # shares only the suffix term
    }
    runtime = MapReduceRuntime()
    rows = mapreduce_similarity_join(
        items, consumers, 5.0, runtime=runtime
    )
    assert rows == [("t1", "c1", 10.0)]


def test_verify_reduce_gates_on_prefix_hits():
    """Verify's reduce keeps a pair only when it reaches sigma *and*
    shares a prefix term: the same score with zero prefix hits is
    dropped, with one hit it is kept.  Pairs come out in consumer
    order, whatever order the stripes name them in."""
    job = VerifyJob()
    job.configure({"sigma": 5.0})
    no_hit = [[("c2", 1.0, 1), ("c1", 4.0, 0)], [("c1", 2.0, 0)]]
    assert list(job.reduce("t1", no_hit)) == []
    one_hit = [[("c2", 1.0, 1), ("c1", 4.0, 0)], [("c1", 2.0, 1)]]
    assert list(job.reduce("t1", one_hit)) == [(("t1", "c1"), 6.0)]
    both = [[("c2", 5.0, 1), ("c1", 4.0, 0)], [("c1", 2.0, 1)]]
    assert list(job.reduce("t1", both)) == [
        (("t1", "c1"), 6.0),
        (("t1", "c2"), 5.0),
    ]


def test_verify_stripes_survive_a_spill(tmp_path):
    """With a one-record spill threshold verify's list-of-tuple stripes
    go through the spill codec, and the rows stay exact."""
    items = {"t1": {"a": 2.0, "b": 1.0}, "t2": {"a": 1.0, "c": 4.0}}
    consumers = {
        "c1": {"a": 1.0, "c": 1.0},
        "c2": {"b": 2.0, "a": 3.0},
        "c3": {"c": 0.5},
    }
    runtime = MapReduceRuntime(spill_threshold=1, spill_dir=str(tmp_path))
    rows = mapreduce_similarity_join(
        items, consumers, 1.0, runtime=runtime
    )
    assert runtime.counters.get("simjoin-verify", "spilled_records") > 0
    assert rows == exact_similarity_join(items, consumers, 1.0)


class _VerifyWithoutCombiner(VerifyJob):
    has_combiner = False


@given(
    data=vector_collections(
        max_docs=4, weights=exact_term_weight_strategy
    ),
    sigma=st.floats(min_value=0.3, max_value=12.0, allow_nan=False),
    maps=st.integers(min_value=1, max_value=3),
    reduces=st.integers(min_value=1, max_value=3),
)
def test_verify_combiner_is_optional(data, sigma, maps, reduces):
    """On exactly representable weights the join equals the exact join
    bit for bit, and verify without its combiner emits the same rows:
    the combiner only shrinks the shuffle."""
    items, consumers = data
    fs = InMemoryFileSystem()
    runtime = MapReduceRuntime(
        num_map_tasks=maps, num_reduce_tasks=reduces
    )
    pipeline = similarity_join_pipeline(
        items, consumers, sigma, runtime=runtime, filesystem=fs
    )
    rows = sorted((t, c, w) for (t, c), w in pipeline.run())
    assert rows == exact_similarity_join(items, consumers, sigma)
    uncombined = runtime.run(
        _VerifyWithoutCombiner(),
        fs.read("/simjoin/candidates"),
        side_data={"sigma": sigma},
    )
    assert sorted((t, c, w) for (t, c), w in uncombined) == rows


@given(
    data=vector_collections(max_docs=4),
    sigma=st.floats(min_value=0.3, max_value=6.0, allow_nan=False),
    maps=st.integers(min_value=1, max_value=3),
    reduces=st.integers(min_value=1, max_value=3),
)
def test_mr_join_equivalence_property(data, sigma, maps, reduces):
    """MR join == exact join, for any task layout and threshold."""
    items, consumers = data
    runtime = MapReduceRuntime(
        num_map_tasks=maps, num_reduce_tasks=reduces
    )
    got = mapreduce_similarity_join(
        items, consumers, sigma, runtime=runtime
    )
    expected = exact_similarity_join(items, consumers, sigma)
    assert [(t, c) for t, c, _ in got] == [
        (t, c) for t, c, _ in expected
    ]
    for (_, _, a), (_, _, b) in zip(got, expected):
        assert a == pytest.approx(b)
