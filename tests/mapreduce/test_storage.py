"""Tests for the pluggable storage subsystem (filesystems + codec).

The contract tests run against *every* filesystem backend via the
parametrized ``fs`` fixture — one behavior, two implementations.  The
disk-specific tests pin down what only disk can get wrong: atomic
rename-on-close, crash invisibility, and persistence across instances.
"""

import base64
import collections
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce import (
    DatasetStats,
    FileSystem,
    FileSystemError,
    InMemoryFileSystem,
    LocalDiskFileSystem,
    ResidentStateStore,
    canonical_bytes,
    resolve_filesystem,
)
from repro.mapreduce.storage import disk as disk_module
from repro.mapreduce.storage import memory as memory_module
from repro.mapreduce.storage import (
    FILESYSTEM_BACKENDS,
    dumps_record,
    loads_record,
    read_scalars,
    read_vectors,
    write_scalars,
    write_vectors,
)

@pytest.fixture(params=FILESYSTEM_BACKENDS)
def fs(request, tmp_path) -> FileSystem:
    """Each filesystem backend in turn."""
    if request.param == "memory":
        return InMemoryFileSystem()
    return LocalDiskFileSystem(root=str(tmp_path / "dfs"))


# -- the shared FileSystem contract -----------------------------------------


def test_write_read_roundtrip(fs):
    assert fs.write("/data/in", [("a", 1), ("b", 2)]) == 2
    assert fs.read("/data/in") == [("a", 1), ("b", 2)]
    assert fs.size("/data/in") == 2
    assert fs.exists("/data/in")
    assert "/data/in" in fs


def test_read_returns_caller_owned_data(fs):
    fs.write("/x", [("a", 1)])
    records = fs.read("/x")
    records.append(("evil", 2))
    assert fs.read("/x") == [("a", 1)]


def test_overwrite_protection(fs):
    fs.write("/x", [("a", 1)])
    with pytest.raises(FileSystemError, match="already exists"):
        fs.write("/x", [("b", 2)])
    fs.write("/x", [("b", 2)], overwrite=True)
    assert fs.read("/x") == [("b", 2)]


def test_missing_path(fs):
    with pytest.raises(FileSystemError, match="no such path"):
        fs.read("/missing")
    with pytest.raises(FileSystemError, match="no such path"):
        fs.delete("/missing")
    with pytest.raises(FileSystemError, match="no such path"):
        fs.du("/missing")
    assert not fs.exists("/missing")


def test_path_validation(fs):
    for bad in ("relative", "/trailing/", "", "/a//b", "/a/./b", "/.."):
        with pytest.raises(FileSystemError):
            fs.write(bad, [])


def test_record_validation(fs):
    with pytest.raises(FileSystemError, match="pairs"):
        fs.write("/bad", ["not-a-pair"])
    assert not fs.exists("/bad")  # nothing becomes visible


def test_failing_record_iterator_leaves_nothing_visible(fs):
    """The all-or-nothing visibility clause of the contract."""

    def explode():
        yield ("a", 1)
        yield ("b", 2)
        raise RuntimeError("source died mid-stream")

    with pytest.raises(RuntimeError, match="mid-stream"):
        fs.write("/partial", explode())
    assert not fs.exists("/partial")
    assert fs.list_paths() == []


def test_failing_overwrite_keeps_previous_dataset(fs):
    fs.write("/keep", [("old", 0)])

    def explode():
        yield ("new", 1)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        fs.write("/keep", explode(), overwrite=True)
    assert fs.read("/keep") == [("old", 0)]


def test_read_many_concatenates(fs):
    fs.write("/a", [("k", 1)])
    fs.write("/b", [("k", 2)])
    assert fs.read_many(["/a", "/b"]) == [("k", 1), ("k", 2)]


def test_delete(fs):
    fs.write("/x", [("a", 1)])
    fs.delete("/x")
    assert not fs.exists("/x")


def test_list_paths_by_prefix(fs):
    fs.write("/job/out1", [("a", 1)])
    fs.write("/job/out2", [])  # an empty dataset is still a dataset
    fs.write("/other", [("a", 1)])
    assert fs.list_paths("/job") == ["/job/out1", "/job/out2"]
    assert len(fs.list_paths()) == 3
    with pytest.raises(FileSystemError):
        fs.list_paths("job")


def test_du_reports_records_and_bytes(fs):
    fs.write("/stats/a", [("k", [1, 2, 3]), ("l", "value")])
    fs.write("/stats/b", [])
    stats = fs.du("/stats/a")
    assert isinstance(stats, DatasetStats)
    assert stats.records == 2
    assert stats.bytes > 0
    empty = fs.du("/stats/b")
    assert empty.records == 0
    all_stats = fs.du()
    assert all_stats["/stats/a"] == stats
    assert all_stats["/stats/b"] == empty


def test_memory_record_counts_never_encode(monkeypatch):
    """``size()`` / ``du().records`` are ``len()``; only reading
    ``.bytes`` sizes the dataset, once, until the dataset changes."""
    encoded = []

    def counting_dumps(key, value):
        encoded.append(key)
        return dumps_record(key, value)

    monkeypatch.setattr(memory_module, "dumps_record", counting_dumps)
    fs = InMemoryFileSystem()
    records = [(("k", i), float(i)) for i in range(50)]
    assert fs.write("/d", records) == 50
    assert fs.size("/d") == 50
    assert fs.du("/d").records == 50
    assert fs.du()["/d"].records == 50
    assert encoded == []
    expected = sum(len(dumps_record(k, v)) + 1 for k, v in records)
    assert fs.du("/d").bytes == expected
    assert len(encoded) == 50
    assert fs.du("/d").bytes == expected  # cached
    assert len(encoded) == 50
    fs.write("/d", records[:3], overwrite=True)  # invalidates
    assert fs.du("/d").records == 3
    assert fs.du("/d").bytes < expected
    assert len(encoded) == 53


def test_roundtrip_preserves_record_types(fs):
    """The record types the pipelines actually ship must round-trip
    exactly — tuples as tuples, int dict keys as ints, floats to the
    identical double."""
    records = [
        (("item-1", "consumer-2"), 0.1 + 0.2),
        (3, {"term": 1.5, "other": -2.25}),
        (None, [True, False, None]),
        ((1, ("nested", 2.0)), b"\x00\xffbytes"),
        ("unicode-é中", {1: "int-key", (2, 3): "tuple-key"}),
        (True, 1),  # bool key stays bool, int value stays int
        (-0.0, float("inf")),
    ]
    fs.write("/types", records)
    back = fs.read("/types")
    assert back == records
    for (key, value), (bkey, bvalue) in zip(records, back):
        assert type(bkey) is type(key)
        assert type(bvalue) is type(value)


# -- codec ------------------------------------------------------------------


class StrSub(str):
    def __repr__(self):
        return "StrSub!"

    __str__ = __repr__


class IntSub(int):
    def __repr__(self):
        return "IntSub!"

    __str__ = __repr__


class FloatSub(float):
    def __repr__(self):
        return "FloatSub!"

    __str__ = __repr__


class ListSub(list):
    pass


Pair = collections.namedtuple("Pair", "left right")

#: Names the golden fixture's record expressions may use.  Subclasses
#: encode as their base type, so a record decodes to what the same
#: expression builds under ``_PLAIN_NAMES``.
_GOLDEN_NAMES = {
    "StrSub": StrSub,
    "IntSub": IntSub,
    "FloatSub": FloatSub,
    "ListSub": ListSub,
    "Pair": Pair,
    "OrderedDict": collections.OrderedDict,
    "nan": float("nan"),
    "inf": float("inf"),
}
_PLAIN_NAMES = dict(
    _GOLDEN_NAMES,
    StrSub=str,
    IntSub=int,
    FloatSub=float,
    ListSub=list,
    Pair=lambda *parts: tuple(parts),
    OrderedDict=dict,
)


with open(
    os.path.join(os.path.dirname(__file__), "golden_jsonl.json"),
    encoding="utf-8",
) as _handle:
    GOLDEN = json.load(_handle)


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[case["case"] for case in GOLDEN]
)
def test_codec_matches_golden_lines(case):
    """The lines were frozen from the encoder this codec replaced
    (``json.dumps`` over a tag tree): same bytes out, and every line
    decodes to the record it came from.  ``repr`` tells ``True`` from
    ``1``, ``-0.0`` from ``0.0``, tuples from lists, and equates NaNs."""
    key, value = eval(case["record"], dict(_GOLDEN_NAMES))
    assert dumps_record(key, value) == case["line"]
    plain = eval(case["record"], dict(_PLAIN_NAMES))
    assert repr(loads_record(case["line"])) == repr(plain)
    assert repr(loads_record(case["line"] + "\n")) == repr(plain)


def test_disk_files_are_byte_identical_to_golden_lines(tmp_path):
    fs = LocalDiskFileSystem(root=str(tmp_path / "dfs"))
    records = [eval(case["record"], dict(_GOLDEN_NAMES)) for case in GOLDEN]
    assert fs.write("/golden", records) == len(GOLDEN)
    file_path = os.path.join(fs.root, "golden.jsonl")
    with open(file_path, "rb") as handle:
        stored = handle.read()
    expected = "".join(case["line"] + "\n" for case in GOLDEN)
    assert stored == expected.encode("ascii")
    plain = [eval(case["record"], dict(_PLAIN_NAMES)) for case in GOLDEN]
    assert repr(fs.read("/golden")) == repr(plain)
    assert fs.du("/golden").records == len(GOLDEN)


def _reference_encode(value):
    """The tag tree the replaced encoder handed to ``json.dumps``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"y": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"t": [_reference_encode(item) for item in value]}
    if isinstance(value, list):
        return {"l": [_reference_encode(item) for item in value]}
    return {
        "d": [
            [_reference_encode(key), _reference_encode(val)]
            for key, val in value.items()
        ]
    }


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    # Every code point, lone surrogates included.
    | st.text(st.characters(blacklist_categories=()), max_size=12)
    | st.binary(max_size=12)
)

# Dict keys: anything hashable the codec carries, nested tuples too.
_keys = st.recursive(
    _scalars, lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=4,
)

_values = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_keys, children, max_size=4)
    ),
    max_leaves=12,
)


@given(key=_values, value=_values)
def test_codec_roundtrip_is_exact(key, value):
    line = dumps_record(key, value)
    assert line == json.dumps(
        [_reference_encode(key), _reference_encode(value)],
        separators=(",", ":"),
    )
    assert "\n" not in line and line.isascii()
    # repr: exact types at every depth, dict order, the sign of zero.
    assert repr(loads_record(line)) == repr((key, value))


def test_codec_rejects_unsupported_types():
    class Opaque:
        pass

    with pytest.raises(FileSystemError, match="cannot serialize"):
        dumps_record("k", Opaque())


def test_codec_rejects_malformed_lines():
    for bad in (
        "not json",
        '["key-only"]',  # not a pair
        '["k", {"a": 1, "b": 2}]',  # multi-key object is no valid tag
        '["k", {"zz": []}]',  # unknown tag
        '{"t": ["k", "v"]}',  # a tagged tuple is not a record
        '["k", {"t": 5}]',  # tag payload of the wrong shape
        '["k", {"y": "a"}]',  # not base64
        '["k", {"d": [[{"l": []}, 1]]}]',  # unhashable dict key
        '["k", "v"] trailing',
        "",
    ):
        with pytest.raises(FileSystemError, match="malformed|unknown"):
            loads_record(bad)


# -- disk-specific behavior -------------------------------------------------


def test_disk_datasets_survive_reopening(tmp_path):
    root = str(tmp_path / "dfs")
    first = LocalDiskFileSystem(root=root)
    first.write("/a/b", [(("k", 1), 2.5)])
    second = LocalDiskFileSystem(root=root)
    assert second.list_paths() == ["/a/b"]
    assert second.read("/a/b") == [(("k", 1), 2.5)]
    assert second.du("/a/b").records == 1


def test_disk_no_temp_litter_after_crash(tmp_path):
    fs = LocalDiskFileSystem(root=str(tmp_path / "dfs"))

    def explode():
        yield ("a", 1)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        fs.write("/crashed", explode())
    leftovers = [
        name
        for _, _, files in os.walk(fs.root)
        for name in files
    ]
    assert leftovers == []


def test_disk_du_cache_invalidated_by_other_writer(tmp_path):
    root = str(tmp_path / "dfs")
    writer = LocalDiskFileSystem(root=root)
    reader = LocalDiskFileSystem(root=root)
    writer.write("/d", [("a", 1)])
    assert reader.du("/d").records == 1  # cached in `reader` now
    writer.write(
        "/d", [("a", 1), ("b", "a-longer-value"), ("c", 3)],
        overwrite=True,
    )
    stats = reader.du("/d")
    assert stats.records == 3  # signature change busts the stale cache
    assert stats.bytes == writer.du("/d").bytes


def _disk_leftovers(fs):
    """Every in-progress temp file under a disk filesystem's root."""
    return [
        name
        for _, _, files in os.walk(fs.root)
        for name in files
        if ".inprogress-" in name
    ]


@pytest.fixture
def renames(monkeypatch):
    """The disk backend's renames, as ``(destination, existed)`` pairs.

    Also fails any ``open`` of an in-progress temp file by name: the
    writer must stream through the descriptor ``mkstemp`` returned.
    Reopening the temp file with ``"w"`` truncates it, and renaming
    onto an existing dataset replaces it; ext4's ``auto_da_alloc``
    forces the new file's blocks to disk on either.
    """
    log = []
    real_replace = os.replace

    def recording_replace(source, destination, *args, **kwargs):
        log.append((destination, os.path.exists(destination)))
        return real_replace(source, destination, *args, **kwargs)

    def guarded_open(file, *args, **kwargs):
        assert ".inprogress-" not in str(file), f"reopened {file!r}"
        return open(file, *args, **kwargs)

    monkeypatch.setattr(disk_module.os, "replace", recording_replace)
    monkeypatch.setattr(disk_module, "open", guarded_open, raising=False)
    return log


def test_disk_write_never_renames_onto_an_existing_dataset(
    tmp_path, renames
):
    fs = LocalDiskFileSystem(root=str(tmp_path / "dfs"))
    fs.write("/d", [("a", 1)])
    fs.write("/d", [("b", 2), ("c", 3)], overwrite=True)
    assert fs.read("/d") == [("b", 2), ("c", 3)]

    def explode():
        yield ("x", 0)
        raise RuntimeError("source died mid-stream")

    with pytest.raises(RuntimeError, match="mid-stream"):
        fs.write("/d", explode(), overwrite=True)
    with pytest.raises(FileSystemError, match="pairs"):
        fs.write("/d", [("y", 0), "not-a-pair"], overwrite=True)
    # Failed overwrites leave the last complete dataset in place.
    assert fs.read("/d") == [("b", 2), ("c", 3)]
    assert fs.size("/d") == 2
    target = os.path.join(fs.root, "d.jsonl")
    assert renames == [(target, False), (target, False)]
    assert _disk_leftovers(fs) == []


def test_disk_state_store_parks_never_rename_onto_a_partition(
    tmp_path, renames
):
    fs = LocalDiskFileSystem(root=str(tmp_path / "dfs"))
    store = ResidentStateStore(
        "parks", num_partitions=3, filesystem=fs, spill_threshold=1
    )
    states = {f"k{i}": i for i in range(9)}
    store.load(sorted(states.items()))
    store.maybe_park()
    parks = 1
    for _ in range(3):
        states = {key: value + 1 for key, value in states.items()}
        for key, value in states.items():
            # Parked partitions take these as overlay edits ...
            store.put(canonical_bytes(key), key, value)
        # ... which the next park folds into a rewrite of each one.
        store.maybe_park()
        parks += 1
        assert dict(store.records()) == states
        # Partitions read back and not written since already match
        # their files: this park drops them without a write.
        written = len(renames)
        store.maybe_park()
        assert len(renames) == written
        assert all(part is None for part in store._partitions)
    partitions = {store.partition_of(canonical_bytes(key)) for key in states}
    assert len(partitions) > 1
    assert len(renames) == parks * len(partitions)
    assert not any(existed for _, existed in renames)
    assert _disk_leftovers(fs) == []


def test_disk_write_closes_descriptor_when_fdopen_fails(
    tmp_path, monkeypatch
):
    fs = LocalDiskFileSystem(root=str(tmp_path / "dfs"))
    fs.write("/d", [("old", 0)])
    opened, closed = [], []
    real_close = os.close

    def failing_fdopen(descriptor, *args, **kwargs):
        opened.append(descriptor)
        raise MemoryError("no buffer")

    def recording_close(descriptor):
        closed.append(descriptor)
        real_close(descriptor)

    monkeypatch.setattr(disk_module.os, "fdopen", failing_fdopen)
    monkeypatch.setattr(disk_module.os, "close", recording_close)
    with pytest.raises(MemoryError):
        fs.write("/d", [("new", 1)], overwrite=True)
    monkeypatch.undo()
    assert len(opened) == 1 and closed == opened  # not leaked
    assert fs.read("/d") == [("old", 0)]
    assert _disk_leftovers(fs) == []


def test_disk_read_and_du_agree_on_whitespace_only_lines(tmp_path):
    root = tmp_path / "dfs"
    root.mkdir()
    lines = [dumps_record("a", 1), "", "  ", "\r", dumps_record("b", 2), "\t"]
    (root / "hand.jsonl").write_bytes(("\r\n".join(lines) + "\n").encode())
    # Fresh instances, so ``du`` and ``size`` count the file themselves
    # instead of reusing the count ``read`` caches.
    stats = LocalDiskFileSystem(root=str(root)).du("/hand")
    size = LocalDiskFileSystem(root=str(root)).size("/hand")
    records = LocalDiskFileSystem(root=str(root)).read("/hand")
    assert records == [("a", 1), ("b", 2)]
    assert stats.records == size == len(records)


def test_disk_default_root_is_temporary():
    fs = LocalDiskFileSystem()
    try:
        assert os.path.isdir(fs.root)
        fs.write("/x", [("a", 1)])
        assert fs.read("/x") == [("a", 1)]
    finally:
        import shutil

        shutil.rmtree(fs.root, ignore_errors=True)


# -- resolve_filesystem -----------------------------------------------------


def test_resolve_filesystem_names_and_aliases(tmp_path):
    assert isinstance(resolve_filesystem(None), InMemoryFileSystem)
    assert isinstance(resolve_filesystem("memory"), InMemoryFileSystem)
    disk = resolve_filesystem("disk", root=str(tmp_path / "d"))
    assert isinstance(disk, LocalDiskFileSystem)
    assert disk.root == str(tmp_path / "d")
    existing = InMemoryFileSystem()
    assert resolve_filesystem(existing) is existing


def test_resolve_filesystem_rejects_unknown():
    with pytest.raises(FileSystemError, match="unknown storage backend"):
        resolve_filesystem("tape")
    with pytest.raises(FileSystemError, match="unknown storage backend"):
        resolve_filesystem("ram")  # no aliases: exactly the two names
    with pytest.raises(FileSystemError, match="memory, disk"):
        resolve_filesystem(42)
    assert FILESYSTEM_BACKENDS == ("memory", "disk")


# -- TSV corpus helpers (moved out of cli.py) -------------------------------


def test_vectors_tsv_roundtrip(tmp_path):
    path = str(tmp_path / "vectors.tsv")
    vectors = {
        "doc-b": {"beta": 2.5, "alpha": 1.0 / 3.0},
        "doc-a": {"gamma": -0.125},
    }
    assert write_vectors(path, vectors) == 2
    assert read_vectors(path) == vectors
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert lines[0].startswith("doc-a\t")  # sorted, deterministic bytes


def test_scalars_tsv_roundtrip(tmp_path):
    path = str(tmp_path / "scalars.tsv")
    scalars = {"n1": 0.1, "n2": 7.0, "n3": 1e-17}
    assert write_scalars(path, scalars) == 3
    assert read_scalars(path) == scalars  # repr round-trips exactly


def test_tsv_readers_report_malformed_lines(tmp_path):
    bad_vectors = tmp_path / "v.tsv"
    bad_vectors.write_text("doc-without-payload\n")
    with pytest.raises(ValueError, match="v.tsv:1"):
        read_vectors(str(bad_vectors))
    bad_scalars = tmp_path / "s.tsv"
    bad_scalars.write_text("key\tnot-a-float\n")
    with pytest.raises(ValueError, match="s.tsv:1"):
        read_scalars(str(bad_scalars))
