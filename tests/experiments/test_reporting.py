"""Tests for the ASCII reporting helpers."""

from repro.experiments import ascii_table, banner, format_rows


def test_ascii_table_alignment():
    table = ascii_table(["name", "n"], [["a", 1], ["longer", 22]])
    lines = table.splitlines()
    assert lines[0].startswith("+")
    assert len({len(line) for line in lines}) == 1  # rectangular
    assert "longer" in table
    assert "22" in table


def test_cell_formatting():
    table = ascii_table(
        ["x"], [[1234567], [0.12345], [3.14159], [12345.6]]
    )
    assert "1,234,567" in table
    assert "0.1235" in table  # 4 decimals below 1
    assert "3.14" in table  # 2 decimals above 1
    assert "12,346" in table  # thousands formatting


def test_format_rows_selects_columns():
    rows = [{"a": 1, "b": 2}, {"a": 3}]
    table = format_rows(rows, ["a", "b"])
    assert "1" in table and "2" in table and "3" in table


def test_banner():
    text = banner("Hello")
    assert "Hello" in text
    assert "=====" in text
