"""The metrics registry and the determinism contract.

Histogram bucket totals and counter sums are identical across execution
backends — the bit-identical contract the counters already carried,
extended to distributions the runtime observes driver-side in
task-index order.
"""

import pickle

import pytest

from repro.mapreduce import Counters, MapReduceJob, MapReduceRuntime
from repro.mapreduce.state import strip_volatile_counters
from repro.telemetry import (
    COUNT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    latency_summary_ms,
    percentile,
)

from ..conftest import BACKENDS


# -- the shared nearest-rank percentile ---------------------------------------


def test_percentile_nearest_rank():
    values = list(range(1, 11))  # 1..10
    assert percentile(values, 0.0) == 1
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.95) == 10
    assert percentile(values, 1.0) == 10
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_does_not_require_sorted_input():
    assert percentile([3, 1, 2], 0.5) == 2


def test_percentile_empty_and_range_validation():
    assert percentile([], 0.5) == 0.0
    # q is checked before the empty return: a q on the 0-100 scale
    # fails on the first call, not once the sample has values.
    for sample in ([], [1.0]):
        for q in (95, 1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                percentile(sample, q)


def test_latency_summary_is_milliseconds():
    summary = latency_summary_ms([0.010, 0.020, 0.030])
    assert set(summary) == {
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_p99_ms",
    }
    assert summary["latency_p50_ms"] == pytest.approx(20.0)
    assert summary["latency_p99_ms"] == pytest.approx(30.0)


# -- histograms ---------------------------------------------------------------


def test_histogram_buckets_have_le_semantics():
    hist = Histogram(upper_bounds=(1, 10, 100))
    for value in (0.5, 1, 5, 10, 50, 100, 1000):
        hist.observe(value)
    # le=1 catches {0.5, 1}; le=10 catches {5, 10}; le=100 catches
    # {50, 100}; 1000 overflows.
    assert hist.bucket_counts == [2, 2, 2, 1]
    assert hist.count == 7
    assert hist.minimum == 0.5
    assert hist.maximum == 1000
    assert hist.total == pytest.approx(1166.5)


def test_histogram_validates_bounds():
    with pytest.raises(ValueError, match="ascending"):
        Histogram(upper_bounds=(1, 1, 2))
    with pytest.raises(ValueError, match="at least one"):
        Histogram(upper_bounds=())


def test_histogram_survives_pickling():
    hist = Histogram(upper_bounds=(1, 10), keep_samples=True)
    hist.observe(5)
    clone = pickle.loads(pickle.dumps(hist))
    assert clone.snapshot() == hist.snapshot()
    assert clone.samples == [5]


# -- gauges and the registry --------------------------------------------------


def test_gauge_set_and_add():
    gauge = Gauge()
    gauge.set(2.5)
    gauge.add(0.5)
    assert gauge.value == pytest.approx(3.0)
    gauge.set(1.0)
    assert gauge.value == 1.0


def test_registry_counters_delegate_to_the_injected_store():
    counters = Counters()
    registry = MetricsRegistry(counters=counters)
    # Same object: the runtime's counters are the registry's.
    assert registry.counters is counters
    counters.increment("g", "n", 2)
    assert registry.snapshot()["counters"] == {"g": {"n": 2}}


def test_registry_histogram_create_then_spec_mismatch():
    registry = MetricsRegistry()
    hist = registry.histogram("g", "h", upper_bounds=(1, 2))
    assert registry.histogram("g", "h", upper_bounds=(1, 2)) is hist
    with pytest.raises(ValueError, match="already registered"):
        registry.histogram("g", "h", upper_bounds=(1, 2, 3))


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counters.increment("c", "n")
    registry.gauge("g", "v").set(1.0)
    registry.observe("h", "d", 0.5)
    snap = registry.snapshot()
    assert set(snap) == {"counters", "gauges", "histograms"}
    assert snap["gauges"] == {"g": {"v": 1.0}}
    assert snap["histograms"]["h"]["d"]["count"] == 1


# -- strip_volatile_counters over registry snapshots --------------------------


def test_strip_drops_gauges_and_volatile_histograms():
    registry = MetricsRegistry()
    registry.counters.increment("runtime", "map.input_records", 7)
    registry.counters.increment("runtime", "spilled_records", 3)  # volatile
    registry.gauge("runtime", "phase.map_seconds").add(0.25)
    registry.observe(
        "runtime", "task.map_output_records", 12, upper_bounds=COUNT_BUCKETS
    )
    registry.observe("service", "flush_seconds", 0.01, volatile=True)
    stripped = strip_volatile_counters(registry.snapshot())
    assert set(stripped) == {"counters", "histograms"}
    assert stripped["counters"]["runtime"] == {"map.input_records": 7}
    assert list(stripped["histograms"]) == ["runtime"]
    assert (
        stripped["histograms"]["runtime"]["task.map_output_records"]["count"]
        == 1
    )


def test_strip_still_handles_plain_counter_snapshots():
    counters = Counters()
    counters.increment("runtime", "map.input_records", 7)
    counters.increment("runtime", "spilled_records", 3)
    stripped = strip_volatile_counters(counters.snapshot())
    assert stripped == {"runtime": {"map.input_records": 7}}


# -- cross-backend determinism ------------------------------------------------


class _Rollup(MapReduceJob):
    """Fans each record out by key prefix; group sizes vary per key."""

    def map(self, key, value):
        for index in range(value):
            yield f"k{index % 5}", index

    def reduce(self, key, values):
        yield key, sum(values)


def _run_job(backend):
    runtime = MapReduceRuntime(
        num_map_tasks=4,
        num_reduce_tasks=4,
        counters=Counters(),
        backend=backend,
    )
    data = [(f"r{index}", 3 + (index * 7) % 11) for index in range(40)]
    list(runtime.run_iter(_Rollup(), data))
    return strip_volatile_counters(runtime.metrics.snapshot())


def test_registry_snapshot_identical_across_backends():
    """Counter sums AND histogram buckets match on every backend."""
    snapshots = {backend: _run_job(backend) for backend in BACKENDS}
    reference = snapshots[BACKENDS[0]]
    hists = reference["histograms"]["runtime"]
    assert hists["task.map_output_records"]["count"] == 4
    assert hists["task.reduce_output_records"]["count"] == 4
    for backend, snapshot in snapshots.items():
        assert snapshot == reference, f"{backend} diverged"


def test_task_count_changes_the_histogram_but_not_the_counters():
    """Sanity: the distributions really are per-task resolution."""
    four = _run_job(BACKENDS[0])
    runtime = MapReduceRuntime(
        num_map_tasks=1, num_reduce_tasks=1, counters=Counters()
    )
    data = [(f"r{index}", 3 + (index * 7) % 11) for index in range(40)]
    list(runtime.run_iter(_Rollup(), data))
    one = strip_volatile_counters(runtime.metrics.snapshot())
    assert one["histograms"]["runtime"]["task.map_output_records"][
        "count"
    ] == 1
    assert (
        one["counters"]["_Rollup"]["map.output.records"]
        == four["counters"]["_Rollup"]["map.output.records"]
    )
