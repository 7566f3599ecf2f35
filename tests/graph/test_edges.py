"""Tests for edge primitives and the strict total order."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import Edge, edge_key, edge_sort_key

names = st.text(
    alphabet="abcdefgh", min_size=1, max_size=4
)


def test_edge_key_normalizes():
    assert edge_key("b", "a") == ("a", "b")
    assert edge_key("a", "b") == ("a", "b")


def test_edge_key_rejects_self_loop():
    with pytest.raises(ValueError):
        edge_key("x", "x")


@given(u=names, v=names)
def test_edge_key_symmetric(u, v):
    if u != v:
        assert edge_key(u, v) == edge_key(v, u)


def test_edge_make_normalizes():
    edge = Edge.make("z", "a", 2.0)
    assert (edge.u, edge.v) == ("a", "z")
    assert edge.key == ("a", "z")
    assert edge.endpoints() == ("a", "z")
    assert edge.weight == 2.0


def test_sort_key_orders_by_weight_desc_then_key():
    rows = [
        (("a", "b"), 1.0),
        (("a", "c"), 3.0),
        (("b", "c"), 3.0),
        (("a", "d"), 2.0),
    ]
    ordered = sorted(rows, key=lambda r: edge_sort_key(*r))
    assert [r[0] for r in ordered] == [
        ("a", "c"),
        ("b", "c"),
        ("a", "d"),
        ("a", "b"),
    ]


@given(
    w1=st.floats(0.1, 100, allow_nan=False),
    w2=st.floats(0.1, 100, allow_nan=False),
)
def test_sort_key_total_order(w1, w2):
    k1 = edge_sort_key(("a", "b"), w1)
    k2 = edge_sort_key(("a", "c"), w2)
    assert k1 != k2  # distinct keys -> never equal, even on weight ties
