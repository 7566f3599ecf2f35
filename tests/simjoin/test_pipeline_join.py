"""Tests for the DFS-backed similarity-join pipeline."""

import pytest

from repro.mapreduce import (
    FileSystem,
    InMemoryFileSystem,
    LocalDiskFileSystem,
    MapReduceRuntime,
)
from repro.simjoin import (
    VerifyJob,
    exact_similarity_join,
    similarity_join_pipeline,
)
from repro.simjoin.prefix_filter import prefix_terms

from ..conftest import SPILL_THRESHOLD, STORAGE

ITEMS = {"t1": {"a": 2.0, "b": 1.0}, "t2": {"c": 4.0}}
CONSUMERS = {"c1": {"a": 1.0, "c": 1.0}, "c2": {"b": 2.0}}


def test_pipeline_output_matches_direct_join():
    pipeline = similarity_join_pipeline(ITEMS, CONSUMERS, 1.0)
    output = pipeline.run()
    rows = sorted((t, c, w) for (t, c), w in output)
    assert rows == exact_similarity_join(ITEMS, CONSUMERS, 1.0)


def test_pipeline_persists_intermediates():
    fs = InMemoryFileSystem()
    runtime = MapReduceRuntime()
    pipeline = similarity_join_pipeline(
        ITEMS, CONSUMERS, 1.0, runtime=runtime, filesystem=fs
    )
    pipeline.run()
    assert fs.exists("/simjoin/documents")
    assert fs.exists("/simjoin/term_bounds")
    assert fs.exists("/simjoin/candidates")
    assert fs.exists("/simjoin/edges")
    bounds = dict(fs.read("/simjoin/term_bounds"))
    assert bounds == {"a": 1.0, "b": 2.0, "c": 1.0}
    assert runtime.jobs_executed == 3


def test_pipeline_describe_names_stages():
    pipeline = similarity_join_pipeline(ITEMS, CONSUMERS, 1.0)
    description = pipeline.describe()
    assert "simjoin-term-bounds" in description
    assert "simjoin-candidates" in description
    assert "simjoin-verify" in description


def test_pipeline_rejects_bad_sigma():
    with pytest.raises(ValueError):
        similarity_join_pipeline(ITEMS, CONSUMERS, 0.0)


def test_pipeline_rejects_nan_sigma():
    with pytest.raises(ValueError, match="sigma must be positive"):
        similarity_join_pipeline(ITEMS, CONSUMERS, float("nan"))


# -- the stage hand-off ------------------------------------------------------


class _SpyFS(FileSystem):
    """Logs every read / write / du in call order, then delegates."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def write(self, path, records, overwrite=False):
        self.calls.append(("write", path))
        return self.inner.write(path, records, overwrite=overwrite)

    def read(self, path):
        self.calls.append(("read", path))
        return self.inner.read(path)

    def du(self, path=None):
        self.calls.append(("du", path))
        return self.inner.du(path)

    def exists(self, path):
        return self.inner.exists(path)


@pytest.mark.parametrize("kind", ["memory", "disk"])
def test_hand_off_call_sequence_and_accounting(kind, tmp_path):
    """``Pipeline.run`` never sizes a dataset (``du``), and issues
    exactly the reads and writes it always has, in the same order —
    ``FaultPlan`` storage sites key off the N-th read / N-th write."""
    if kind == "memory":
        inner = InMemoryFileSystem()
    else:
        inner = LocalDiskFileSystem(root=str(tmp_path / "dfs"))
    spy = _SpyFS(inner)
    pipeline = similarity_join_pipeline(
        ITEMS, CONSUMERS, 1.0, filesystem=spy
    )
    pipeline.run()
    assert spy.calls == [
        ("write", "/simjoin/documents"),
        ("read", "/simjoin/documents"),
        ("write", "/simjoin/term_bounds"),
        ("read", "/simjoin/documents"),
        ("read", "/simjoin/term_bounds"),  # the side-data factory
        ("write", "/simjoin/candidates"),
        ("read", "/simjoin/candidates"),
        ("write", "/simjoin/edges"),
        ("read", "/simjoin/edges"),  # run()'s return value
    ]
    assert set(pipeline.records_out) == {
        "/simjoin/term_bounds",
        "/simjoin/candidates",
        "/simjoin/edges",
    }
    for path, count in pipeline.records_out.items():
        assert count == inner.du(path).records == len(inner.read(path))


# -- the candidate -> verify hand-off ----------------------------------------

# "x" has items only, "y" consumers only, and "weak" cannot reach sigma
# against any consumer (0.5 * maxw(z) = 0.5 < 2.5), so its prefix is
# empty and "z" is left with consumers only.  That leaves two terms with
# both sides posted, "a" and "b": with four map tasks, two verify
# splits are empty.
SHAPE_ITEMS = {
    "t1": {"a": 2.0, "x": 1.0},
    "t2": {"a": 1.0, "b": 3.0},
    "weak": {"z": 0.5},
}
SHAPE_CONSUMERS = {
    "c1": {"a": 1.0, "b": 1.0, "z": 1.0},
    "c2": {"a": 2.0, "y": 5.0},
}
SHAPE_SIGMA = 2.5


def _run_shape_join(backend, num_map_tasks, tmp_path):
    """The join of the ``SHAPE_*`` fixture on the configured backend
    and filesystem: ``(runtime, filesystem, output)``."""
    if STORAGE == "memory":
        fs = InMemoryFileSystem()
    else:
        fs = LocalDiskFileSystem(root=str(tmp_path / "dfs"))
    runtime = MapReduceRuntime(
        num_map_tasks=num_map_tasks,
        num_reduce_tasks=4,
        backend=backend,
        spill_threshold=SPILL_THRESHOLD,
        spill_dir=str(tmp_path / "spills"),
    )
    pipeline = similarity_join_pipeline(
        SHAPE_ITEMS,
        SHAPE_CONSUMERS,
        SHAPE_SIGMA,
        runtime=runtime,
        filesystem=fs,
    )
    return runtime, fs, pipeline.run()


@pytest.mark.parametrize("num_map_tasks", [1, 4])
def test_candidates_hand_verify_one_posting_list_record_per_term(
    backend, num_map_tasks, tmp_path
):
    """The candidate job writes one ``(term, (items, consumers))``
    record per term with both sides posted — not one per pair — and
    verify's map reads exactly those records."""
    runtime, fs, output = _run_shape_join(backend, num_map_tasks, tmp_path)
    bounds = dict(fs.read("/simjoin/term_bounds"))
    assert prefix_terms(SHAPE_ITEMS["weak"], bounds, SHAPE_SIGMA) == []

    counters = runtime.counters
    assert (
        counters.get("simjoin-candidates", "reduce.output.records")
        == counters.get("simjoin-verify", "map.input.records")
        == 2
    )

    candidates = fs.read("/simjoin/candidates")
    assert sorted(term for term, _ in candidates) == ["a", "b"]
    for _, (items, consumers) in candidates:
        assert list(items) == sorted(items)
        assert list(consumers) == sorted(consumers)
    assert dict(
        (term, ([p[0] for p in items], [p[0] for p in consumers]))
        for term, (items, consumers) in candidates
    ) == {"a": (["t1", "t2"], ["c1", "c2"]), "b": (["t2"], ["c1"])}

    rows = sorted((t, c, w) for (t, c), w in output)
    assert rows == exact_similarity_join(
        SHAPE_ITEMS, SHAPE_CONSUMERS, SHAPE_SIGMA
    )
    assert rows == [("t1", "c2", 4.0), ("t2", "c1", 4.0)]


@pytest.mark.parametrize("num_map_tasks", [1, 4])
def test_verify_shuffles_one_stripe_per_item_per_map_task(
    backend, num_map_tasks, tmp_path
):
    """Verify is keyed by item: its map emits one stripe per posted
    item, and its shuffle carries at most one combined stripe per item
    per map task — not one record per pair."""
    runtime, fs, _ = _run_shape_join(backend, num_map_tasks, tmp_path)
    # t1 and t2 are posted on a two-sided term ("a", and "b" for t2);
    # "weak" posts nothing.
    posted_items = {"t1", "t2"}
    counters = runtime.counters
    records = counters.get("simjoin-verify", "shuffle.records")
    groups = counters.get("simjoin-verify", "reduce.input.groups")
    assert groups == len(posted_items)
    if num_map_tasks == 1:
        assert records == groups
    else:
        assert len(posted_items) <= records <= num_map_tasks * len(
            posted_items
        )
    job = VerifyJob()
    map_keys = {
        key
        for term, postings in fs.read("/simjoin/candidates")
        for key, _ in job.map(term, postings)
    }
    assert map_keys == posted_items
