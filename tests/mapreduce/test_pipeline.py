"""Tests for declarative job pipelines."""

import pytest

from repro.mapreduce import (
    InMemoryFileSystem,
    MapReduceError,
    MapReduceJob,
    MapReduceRuntime,
    Pipeline,
)


class Tokenize(MapReduceJob):
    def map(self, key, line):
        for word in line.split():
            yield word, 1

    def reduce(self, word, ones):
        yield word, sum(ones)


class FilterBig(MapReduceJob):
    """Keeps words whose count is at least side_data['min']."""

    def map(self, word, count):
        if count >= self.side_data["min"]:
            yield word, count

    def reduce(self, word, counts):
        yield word, counts[0]


@pytest.fixture
def pipeline():
    p = Pipeline()
    p.filesystem.write("/in", [(0, "a b a c a b")])
    return p


def test_two_stage_pipeline(pipeline):
    pipeline.add(Tokenize(), ["/in"], "/counts")
    pipeline.add(
        FilterBig(),
        ["/counts"],
        "/big",
        side_data=lambda fs: {"min": 2},
    )
    output = pipeline.run()
    assert dict(output) == {"a": 3, "b": 2}
    assert pipeline.filesystem.read("/counts")  # intermediate persisted
    assert pipeline.records_out == {"/counts": 3, "/big": 2}


def test_side_data_factory_sees_filesystem(pipeline):
    pipeline.add(Tokenize(), ["/in"], "/counts")
    pipeline.add(
        FilterBig(),
        ["/counts"],
        "/big",
        side_data=lambda fs: {"min": max(dict(fs.read("/counts")).values())},
    )
    output = pipeline.run()
    assert dict(output) == {"a": 3}


def test_validate_missing_input():
    p = Pipeline()
    p.add(Tokenize(), ["/nope"], "/out")
    with pytest.raises(MapReduceError, match="which does not exist"):
        p.run()


def test_validate_duplicate_output(pipeline):
    pipeline.add(Tokenize(), ["/in"], "/out")
    pipeline.add(Tokenize(), ["/in"], "/out")
    with pytest.raises(MapReduceError, match="two stages write"):
        p = pipeline.run()


def test_later_stage_may_consume_earlier_output(pipeline):
    pipeline.add(Tokenize(), ["/in"], "/counts")
    pipeline.add(
        FilterBig(), ["/counts"], "/big", side_data=lambda fs: {"min": 1}
    )
    pipeline.validate()  # inputs satisfied by the declared wiring


def test_describe(pipeline):
    pipeline.add(Tokenize(), ["/in"], "/counts")
    text = pipeline.describe()
    assert "Tokenize" in text
    assert "/in" in text and "/counts" in text


def test_multi_input_stage():
    p = Pipeline()
    p.filesystem.write("/a", [(0, "x y")])
    p.filesystem.write("/b", [(1, "y z")])
    p.add(Tokenize(), ["/a", "/b"], "/counts")
    output = dict(p.run())
    assert output == {"x": 1, "y": 2, "z": 1}


# -- streaming regression ---------------------------------------------------
# Pipeline.run used to materialize every stage's full output in driver
# memory before writing it to the filesystem; it now streams the
# runtime's task outputs straight into filesystem.write and takes
# records_out from the count that write returns (the call-sequence spy
# in tests/simjoin/test_pipeline_join.py pins that it never calls du).


class _StreamSpyFS(InMemoryFileSystem):
    """Records whether each write received a lazy iterator or a list."""

    def __init__(self):
        super().__init__()
        self.write_types = {}

    def write(self, path, records, overwrite=False):
        self.write_types[path] = type(records).__name__
        return super().write(path, records, overwrite=overwrite)


def test_run_streams_stage_output_into_filesystem():
    p = Pipeline(filesystem=_StreamSpyFS())
    p.filesystem.write("/in", [(0, "a b a c a b")])
    p.add(Tokenize(), ["/in"], "/counts")
    output = p.run()
    # The stage's write got a generator, not a materialized list...
    assert p.filesystem.write_types["/counts"] == "generator"
    # ...and the result read back from storage is complete and exact.
    assert dict(output) == {"a": 3, "b": 2, "c": 1}


def test_records_out_agrees_with_dataset_accounting(pipeline):
    pipeline.add(Tokenize(), ["/in"], "/counts")
    pipeline.run()
    du = pipeline.filesystem.du("/counts")
    assert pipeline.records_out["/counts"] == du.records == 3


def test_run_returns_the_persisted_dataset(pipeline):
    """What run() returns is the stored dataset, byte-for-byte: the
    storage codec round trip, not the in-flight objects."""
    pipeline.add(Tokenize(), ["/in"], "/counts")
    output = pipeline.run()
    assert output == pipeline.filesystem.read("/counts")


def test_run_with_no_stages_is_empty():
    assert Pipeline().run() == []


def test_streaming_run_honors_spill_threshold():
    """A spill-forcing runtime changes the IO path, never the data:
    the streamed, spilled pipeline output is bit-identical to the
    in-memory one."""
    def run(threshold):
        p = Pipeline(
            runtime=MapReduceRuntime(spill_threshold=threshold)
        )
        p.filesystem.write(
            "/in", [(i, f"w{i % 5} w{i % 3}") for i in range(40)]
        )
        p.add(Tokenize(), ["/in"], "/counts")
        output = p.run()
        return output, p.records_out["/counts"]

    unspilled, n1 = run(None)
    spilled, n2 = run(1)  # every partition buffer spills
    assert spilled == unspilled
    assert n1 == n2 == len(unspilled)
