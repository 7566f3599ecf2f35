"""The out-of-core contract: spilling and storage change *nothing*.

The storage subsystem's hard guarantee — outputs, ``job_log``, and
counter totals (minus the spill counters) are bit-identical across

* filesystems (``memory`` / ``disk``),
* spill thresholds (``None`` = never spill, ``0`` = spill every
  record, and sizes in between), and
* execution backends (``serial`` / ``cluster``)

— plus the crash-safety clause: a failing job never leaves a visible
partial dataset, on any filesystem.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import (
    ExternalShuffle,
    Counters,
    InMemoryFileSystem,
    LocalDiskFileSystem,
    MapReduceError,
    MapReduceJob,
    MapReduceRuntime,
    Pipeline,
    SPILL_COUNTERS,
    canonical_bytes,
    strip_spill_counters,
)
from repro.simjoin import mapreduce_similarity_join

SPILL_THRESHOLDS = (None, 0, 1, 7)


# -- module-level jobs (picklable for the cluster backend) -----------------


class WordCount(MapReduceJob):
    has_combiner = True

    def map(self, key, line):
        for word in line.split():
            yield word, 1

    def combine(self, word, counts):
        yield word, sum(counts)

    def reduce(self, word, counts):
        yield word, sum(counts)


class OrderSensitive(MapReduceJob):
    """Reduce output depends on the *arrival order* of equal-key values.

    The sharpest probe of shuffle determinism: if spilling or merging
    ever reorders values within a key group, this job's output changes.
    """

    def map(self, key, value):
        yield key % 3, (key, value)

    def reduce(self, key, values):
        yield key, list(values)  # order preserved verbatim


class ExplodingReduce(MapReduceJob):
    def map(self, key, value):
        yield key, value

    def reduce(self, key, values):
        raise RuntimeError("reduce blew up")


# -- ExternalShuffle unit behavior ------------------------------------------
#
# The shuffle operates on the runtime's encoded plane: records are
# (key_bytes, key, value) triples whose first element was computed once
# at map time.  The unit tests encode explicitly at the boundary.


def _encoded(records):
    return [(canonical_bytes(k), k, v) for k, v in records]


def test_external_shuffle_merges_sorted(tmp_path):
    shuffle = ExternalShuffle(2, 3, spill_dir=str(tmp_path))
    records = [("b", 1), ("a", 2), ("c", 3), ("a", 4), ("b", 5), ("a", 6)]
    with shuffle:
        for record in _encoded(records):
            shuffle.add(0, record)
        merged = shuffle.merged_partition(0)
        assert merged == sorted(_encoded(records), key=lambda r: r[0])
        assert shuffle.merged_partition(1) == []
        assert shuffle.spilled_records > 0
        assert shuffle.spill_files > 0
        assert shuffle.spilled_bytes > 0
        assert shuffle.spill_seconds > 0.0


def test_external_shuffle_stable_across_thresholds(tmp_path):
    """Equal keys keep arrival order at every threshold (incl. 0)."""
    records = _encoded(
        [("k", i) for i in range(20)] + [("j", i) for i in range(5)]
    )
    baseline = None
    for threshold in (0, 1, 3, 100):
        shuffle = ExternalShuffle(
            1, threshold, spill_dir=str(tmp_path / str(threshold))
        )
        with shuffle:
            for record in records:
                shuffle.add(0, record)
            merged = shuffle.merged_partition(0)
        if baseline is None:
            baseline = merged
        assert merged == baseline


def test_external_shuffle_streams_lazily(tmp_path):
    """merged_stream is an iterator over the same merged sequence."""
    records = _encoded([("b", 1), ("a", 2), ("a", 3), ("c", 4)])
    shuffle = ExternalShuffle(1, 1, spill_dir=str(tmp_path))
    with shuffle:
        for record in records:
            shuffle.add(0, record)
        stream = shuffle.merged_stream(0)
        assert iter(stream) is iter(stream)  # a lazy iterator...
        assert list(stream) == shuffle.merged_partition(0)  # ...same data


def test_external_shuffle_multipass_merge_is_bounded_and_stable(tmp_path):
    """With many runs, prefix batches compact first (multi-pass merge):
    no more than merge_factor+1 files open at once, output unchanged."""
    records = _encoded([(f"k{i % 5}", i) for i in range(120)])
    baseline_shuffle = ExternalShuffle(
        1, 1000, spill_dir=str(tmp_path / "base")
    )
    with baseline_shuffle:
        for record in records:
            baseline_shuffle.add(0, record)
        baseline = baseline_shuffle.merged_partition(0)
    shuffle = ExternalShuffle(
        1, 0, spill_dir=str(tmp_path / "multi"), merge_factor=3
    )
    with shuffle:
        for record in records:
            shuffle.add(0, record)
        assert shuffle.spill_files > 100  # one run per record...
        merged = shuffle.merged_partition(0)
        # ...compacted down to at most merge_factor run files.
        assert len(shuffle._runs[0]) <= 3
    assert merged == baseline


def test_run_codec_raises_on_truncated_frames(tmp_path):
    """Every truncation point of a spill-run frame is a loud
    FileSystemError, never a silent partial read."""
    import io

    from repro.mapreduce import FileSystemError
    from repro.mapreduce.storage.codec import (
        read_run_records,
        write_run_record,
    )

    buffer = io.BytesIO()
    record = (canonical_bytes("key"), "key", [1, 2, 3])
    write_run_record(buffer, record)
    intact = buffer.getvalue()
    assert list(read_run_records(io.BytesIO(intact))) == [record]
    # Cut at every byte boundary inside the frame: each prefix either
    # reads zero records cleanly (empty) or raises FileSystemError.
    for cut in range(1, len(intact)):
        with pytest.raises(FileSystemError, match="truncated spill-run"):
            list(read_run_records(io.BytesIO(intact[:cut])))


def test_external_shuffle_rejects_bad_merge_factor():
    with pytest.raises(MapReduceError, match="merge_factor"):
        ExternalShuffle(1, 0, merge_factor=1)


def test_external_shuffle_close_removes_run_files(tmp_path):
    shuffle = ExternalShuffle(1, 0, spill_dir=str(tmp_path))
    shuffle.add(0, (canonical_bytes("a"), "a", 1))
    shuffle.add(0, (canonical_bytes("b"), "b", 2))
    assert any(files for _, _, files in os.walk(tmp_path))
    shuffle.close()
    assert not any(files for _, _, files in os.walk(tmp_path))
    shuffle.close()  # idempotent


def test_external_shuffle_meter(tmp_path):
    shuffle = ExternalShuffle(1, 0, spill_dir=str(tmp_path))
    with shuffle:
        shuffle.add(0, (canonical_bytes("a"), "a", 1))
        counters = Counters()
        shuffle.meter(counters, "job-x")
        for name in SPILL_COUNTERS:
            assert counters.get("job-x", name) > 0
            assert counters.get("runtime", name) > 0


def test_external_shuffle_rejects_bad_config():
    with pytest.raises(MapReduceError):
        ExternalShuffle(0, 1)
    with pytest.raises(MapReduceError):
        ExternalShuffle(1, -1)


def test_runtime_rejects_negative_spill_threshold():
    with pytest.raises(MapReduceError):
        MapReduceRuntime(spill_threshold=-5)


def test_strip_spill_counters():
    snapshot = {
        "job": {"shuffle.records": 10, "spilled_records": 4},
        "runtime": {"spill_files": 2, "spilled_bytes": 99},
    }
    assert strip_spill_counters(snapshot) == {
        "job": {"shuffle.records": 10}
    }


# -- the bit-identical equivalence property ---------------------------------


def _fs_for(kind, tmp_path, tag):
    if kind == "memory":
        return InMemoryFileSystem()
    return LocalDiskFileSystem(root=str(tmp_path / f"dfs-{tag}"))


def _observe(job_factory, records, *, backend="serial", storage=None,
             spill_threshold=None, tmp_path=None, tag=""):
    runtime = MapReduceRuntime(
        num_map_tasks=3,
        num_reduce_tasks=3,
        backend=backend,
        max_workers=3,
        storage=storage,
        spill_threshold=spill_threshold,
        spill_dir=str(tmp_path) if tmp_path is not None else None,
    )
    output = runtime.run(job_factory(), records)
    return (
        output,
        list(runtime.job_log),
        strip_spill_counters(runtime.counters.snapshot()),
    )


@settings(max_examples=15)
@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.text(alphabet=st.sampled_from("abcd "), max_size=16),
        ),
        max_size=25,
    )
)
def test_wordcount_identical_across_spill_thresholds(records):
    baseline = _observe(WordCount, records)
    for threshold in SPILL_THRESHOLDS[1:]:
        observed = _observe(WordCount, records, spill_threshold=threshold)
        assert observed == baseline


@settings(max_examples=15)
@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=-5, max_value=5),
        ),
        max_size=30,
    )
)
def test_value_order_identical_across_spill_thresholds(records):
    """Equal-key value order survives sort-and-spill at any threshold."""
    baseline = _observe(OrderSensitive, records)
    for threshold in SPILL_THRESHOLDS[1:]:
        observed = _observe(
            OrderSensitive, records, spill_threshold=threshold
        )
        assert observed == baseline


@pytest.mark.parametrize("threshold", SPILL_THRESHOLDS)
def test_wordcount_identical_across_backends_with_spill(
    threshold, tmp_path
):
    records = [(i, "a b c a b a" * (1 + i % 3)) for i in range(30)]
    baseline = _observe(WordCount, records, tmp_path=tmp_path)
    for backend in ("serial", "cluster"):
        observed = _observe(
            WordCount,
            records,
            backend=backend,
            spill_threshold=threshold,
            tmp_path=tmp_path,
        )
        assert observed == baseline


def test_spill_counters_metered_when_spilling(tmp_path):
    runtime = MapReduceRuntime(
        spill_threshold=0, spill_dir=str(tmp_path)
    )
    runtime.run(WordCount(), [(0, "a b c"), (1, "a a")])
    assert runtime.counters.get("runtime", "spilled_records") > 0
    assert runtime.counters.get("runtime", "spill_files") > 0
    assert runtime.counters.get("runtime", "spilled_bytes") > 0
    assert runtime.counters.get("WordCount", "spilled_records") > 0


def test_no_spill_counters_without_spilling(tmp_path):
    runtime = MapReduceRuntime(
        spill_threshold=10_000, spill_dir=str(tmp_path)
    )
    runtime.run(WordCount(), [(0, "a b c")])
    assert runtime.counters.get("runtime", "spilled_records") == 0
    assert runtime.counters.get("runtime", "spill_files") == 0


def test_spill_runs_cleaned_up_after_job(tmp_path):
    runtime = MapReduceRuntime(spill_threshold=0, spill_dir=str(tmp_path))
    runtime.run(WordCount(), [(0, "a b c a b")])
    assert not any(files for _, _, files in os.walk(tmp_path))


def test_spill_runs_cleaned_up_after_failed_job(tmp_path):
    runtime = MapReduceRuntime(spill_threshold=0, spill_dir=str(tmp_path))
    with pytest.raises(RuntimeError, match="reduce blew up"):
        runtime.run(ExplodingReduce(), [(0, 1), (1, 2)])
    assert not any(files for _, _, files in os.walk(tmp_path))


# -- pipelines across filesystems -------------------------------------------


@pytest.mark.parametrize("storage", ("memory", "disk"))
@pytest.mark.parametrize("threshold", SPILL_THRESHOLDS)
def test_pipeline_identical_across_filesystems_and_thresholds(
    storage, threshold, tmp_path
):
    fs = _fs_for(storage, tmp_path, f"{storage}-{threshold}")
    runtime = MapReduceRuntime(
        storage=fs, spill_threshold=threshold, spill_dir=str(tmp_path)
    )
    pipeline = Pipeline(runtime=runtime)
    pipeline.filesystem.write(
        "/in", [(i, "alpha beta alpha gamma"[: 5 + i]) for i in range(12)]
    )
    pipeline.add(WordCount(), ["/in"], "/counts")
    output = pipeline.run()

    baseline_pipeline = Pipeline()
    baseline_pipeline.filesystem.write(
        "/in", [(i, "alpha beta alpha gamma"[: 5 + i]) for i in range(12)]
    )
    baseline_pipeline.add(WordCount(), ["/in"], "/counts")
    baseline = baseline_pipeline.run()

    assert output == baseline
    assert pipeline.filesystem.read("/counts") == baseline
    assert strip_spill_counters(runtime.counters.snapshot()) == (
        strip_spill_counters(
            baseline_pipeline.runtime.counters.snapshot()
        )
    )


@pytest.mark.parametrize("storage", ("memory", "disk"))
def test_simjoin_identical_across_filesystems_with_spill(
    storage, tmp_path
):
    items = {
        f"t{i}": {f"w{j}": float(1 + (i + j) % 4) for j in range(4)}
        for i in range(6)
    }
    consumers = {
        f"c{i}": {f"w{j}": float(1 + (i * j) % 3) for j in range(4)}
        for i in range(5)
    }
    baseline_runtime = MapReduceRuntime()
    baseline = mapreduce_similarity_join(
        items, consumers, 4.0, runtime=baseline_runtime
    )
    fs = _fs_for(storage, tmp_path, storage)
    runtime = MapReduceRuntime(
        storage=fs, spill_threshold=2, spill_dir=str(tmp_path)
    )
    rows = mapreduce_similarity_join(
        items, consumers, 4.0, runtime=runtime
    )
    assert rows == baseline
    assert runtime.job_log == baseline_runtime.job_log
    assert strip_spill_counters(runtime.counters.snapshot()) == (
        strip_spill_counters(baseline_runtime.counters.snapshot())
    )
    if storage == "disk":
        # Intermediates live on disk and stay inspectable.
        assert fs.list_paths("/simjoin") == [
            "/simjoin/candidates",
            "/simjoin/documents",
            "/simjoin/edges",
            "/simjoin/term_bounds",
        ]
        assert runtime.counters.get("runtime", "spilled_records") > 0
    else:
        # On the default in-memory path the wrapper cleans up after
        # itself — no duplicate of the corpus stays on the runtime.
        assert fs.list_paths("/simjoin") == []


def test_simjoin_cleanup_spares_caller_datasets():
    """The in-memory cleanup removes exactly the pipeline's datasets,
    not caller data that happens to share the /simjoin prefix."""
    runtime = MapReduceRuntime()
    runtime.filesystem.write("/simjoin_baseline", [("mine", 1)])
    runtime.filesystem.write("/simjoin/my_notes", [("note", 2)])
    items = {"t0": {"w0": 3.0}}
    consumers = {"c0": {"w0": 3.0}}
    rows = mapreduce_similarity_join(
        items, consumers, 4.0, runtime=runtime
    )
    assert rows == [("t0", "c0", 9.0)]
    assert runtime.filesystem.read("/simjoin_baseline") == [("mine", 1)]
    assert runtime.filesystem.read("/simjoin/my_notes") == [("note", 2)]
    assert not runtime.filesystem.exists("/simjoin/candidates")


# -- crash safety ------------------------------------------------------------


@pytest.mark.parametrize("storage", ("memory", "disk"))
def test_failing_job_leaves_no_visible_partial_dataset(
    storage, tmp_path
):
    fs = _fs_for(storage, tmp_path, storage)
    pipeline = Pipeline(
        runtime=MapReduceRuntime(storage=fs)
    )
    pipeline.filesystem.write("/in", [(0, 1), (1, 2)])
    pipeline.add(ExplodingReduce(), ["/in"], "/out")
    with pytest.raises(RuntimeError, match="reduce blew up"):
        pipeline.run()
    assert not pipeline.filesystem.exists("/out")
    assert pipeline.filesystem.list_paths() == ["/in"]
    if storage == "disk":
        # ... and no in-progress temp files on disk either.
        leftovers = [
            name
            for _, _, files in os.walk(fs.root)
            for name in files
            if "inprogress" in name
        ]
        assert leftovers == []


def test_pipeline_describe_includes_du_stats(tmp_path):
    runtime = MapReduceRuntime(storage="disk")
    pipeline = Pipeline(runtime=runtime)
    assert pipeline.filesystem is runtime.filesystem  # disk-backed
    pipeline.filesystem.write("/in", [(0, "a b a")])
    pipeline.add(WordCount(), ["/in"], "/counts")
    before = pipeline.describe()
    assert "records" not in before  # output not produced yet
    pipeline.run()
    after = pipeline.describe()
    assert "/counts" in after
    assert "2 records" in after
    assert "B]" in after
