"""Round-trip tests for TSV graph serialization."""

import pytest

from repro.graph import read_capacities, read_edges, write_capacities, write_edges


def test_edges_roundtrip(tmp_path):
    path = str(tmp_path / "edges.tsv")
    rows = [("t1", "c1", 0.123456789), ("t2", "c9", 42.0)]
    assert write_edges(path, rows) == 2
    assert list(read_edges(path)) == rows


def test_edges_bad_row_rejected(tmp_path):
    path = str(tmp_path / "bad.tsv")
    with open(path, "w") as handle:
        handle.write("only\ttwo\n")
    with pytest.raises(ValueError, match="expected 3"):
        list(read_edges(path))


def test_capacities_roundtrip(tmp_path):
    path = str(tmp_path / "caps.tsv")
    caps = {"b": 2, "a": 7}
    assert write_capacities(path, caps) == 2
    assert read_capacities(path) == caps


def test_capacities_bad_row_rejected(tmp_path):
    path = str(tmp_path / "bad.tsv")
    with open(path, "w") as handle:
        handle.write("a\t1\textra\n")
    with pytest.raises(ValueError, match="expected 2"):
        read_capacities(path)


def test_blank_lines_ignored(tmp_path):
    path = str(tmp_path / "edges.tsv")
    with open(path, "w") as handle:
        handle.write("t1\tc1\t1.5\n\n")
    assert list(read_edges(path)) == [("t1", "c1", 1.5)]
