"""Tests for the DFS-backed similarity-join pipeline."""

import pytest

from repro.mapreduce import (
    FileSystem,
    InMemoryFileSystem,
    LocalDiskFileSystem,
    MapReduceRuntime,
)
from repro.simjoin import (
    exact_similarity_join,
    similarity_join_pipeline,
)

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
