"""Tests for the Graph / BipartiteGraph structures."""

import pytest
from hypothesis import given

from repro.graph import BipartiteGraph, Graph

from ..strategies import small_bipartite_graphs


def build_triangleish() -> Graph:
    g = Graph()
    g.add_node("a", 2)
    g.add_node("b", 1)
    g.add_edge("a", "b", 1.5)
    g.add_edge("a", "c", 2.5)  # c auto-added with capacity 1
    return g


def test_add_and_query_edges():
    g = build_triangleish()
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert g.weight("a", "c") == 2.5
    assert g.num_nodes == 3
    assert g.num_edges == 2
    assert g.degree("a") == 2
    assert sorted(g.neighbors("a")) == ["b", "c"]
    assert g.capacity("a") == 2
    assert g.capacity("c") == 1  # auto-added default


def test_edge_weight_overwrite_keeps_count():
    g = build_triangleish()
    g.add_edge("a", "b", 9.0)
    assert g.num_edges == 2
    assert g.weight("b", "a") == 9.0


def test_rejects_bad_weights_and_loops():
    g = Graph()
    with pytest.raises(ValueError):
        g.add_edge("a", "b", 0.0)
    with pytest.raises(ValueError):
        g.add_edge("a", "b", -1.0)
    for weight in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            g.add_edge("a", "b", weight)
    assert not g.has_edge("a", "b")
    with pytest.raises(ValueError):
        g.add_edge("a", "a", 1.0)
    with pytest.raises(ValueError):
        g.add_node("a", capacity=-1)


def test_remove_edge_and_node():
    g = build_triangleish()
    g.remove_edge("a", "b")
    assert not g.has_edge("b", "a")
    assert g.num_edges == 1
    g.remove_node("a")
    assert not g.has_node("a")
    assert g.num_edges == 0
    assert g.has_node("c")


def test_edges_iterates_once_normalized():
    g = build_triangleish()
    edges = list(g.edges())
    assert len(edges) == 2
    assert all(edge.u < edge.v for edge in edges)
    assert g.total_weight() == pytest.approx(4.0)


def test_copy_is_independent():
    g = build_triangleish()
    clone = g.copy()
    clone.add_edge("b", "c", 1.0)
    clone.add_node("a", 9)
    assert g.num_edges == 2
    assert g.capacity("a") == 2


def test_adjacency_copy_is_deep():
    g = build_triangleish()
    adj = g.adjacency_copy()
    adj["a"]["b"] = 123.0
    assert g.weight("a", "b") == 1.5


def test_thresholded_keeps_nodes_drops_light_edges():
    g = build_triangleish()
    t = g.thresholded(2.0)
    assert t.num_edges == 1
    assert t.has_edge("a", "c")
    assert t.num_nodes == 3  # nodes survive with their capacities
    assert t.capacity("a") == 2
    assert g.num_edges == 2  # original untouched


def test_bipartite_sides_enforced():
    g = BipartiteGraph()
    g.add_item("t0", 2)
    g.add_consumer("c0", 3)
    g.add_edge("t0", "c0", 1.0)
    assert g.side("t0") == "item"
    assert g.side("c0") == "consumer"
    with pytest.raises(ValueError):
        g.add_item("t1")
        g.add_edge("t0", "t1", 1.0)
    with pytest.raises(ValueError):
        g.add_edge("t0", "unknown", 1.0)
    with pytest.raises(ValueError):
        g.add_consumer("t0")  # side change refused


def test_bipartite_items_consumers_sorted():
    g = BipartiteGraph()
    g.add_item("t2")
    g.add_item("t1")
    g.add_consumer("c9")
    assert g.items() == ["t1", "t2"]
    assert g.consumers() == ["c9"]


def test_bipartite_copy_preserves_sides():
    g = BipartiteGraph()
    g.add_item("t0", 2)
    g.add_consumer("c0", 1)
    g.add_edge("t0", "c0", 1.0)
    clone = g.copy()
    assert isinstance(clone, BipartiteGraph)
    assert clone.side("t0") == "item"
    assert clone.items() == ["t0"]


def test_from_edges_builder():
    g = BipartiteGraph.from_edges(
        [("t0", "c0", 1.0), ("t1", "c0", 2.0)],
        item_capacities={"t0": 3, "t9": 1},  # t9 isolated
        consumer_capacities={"c0": 2},
    )
    assert g.capacity("t0") == 3
    assert g.capacity("t1") == 1  # defaulted
    assert g.capacity("c0") == 2
    assert g.has_node("t9") and g.degree("t9") == 0
    assert g.num_edges == 2


@given(graph=small_bipartite_graphs())
def test_generated_graphs_are_consistent(graph):
    # Every edge visible from both endpoints, weights agree.
    for edge in graph.edges():
        assert graph.weight(edge.u, edge.v) == graph.weight(
            edge.v, edge.u
        )
        assert graph.side(edge.u) != graph.side(edge.v)
    assert graph.num_edges == len(list(graph.edges()))
    degrees = sum(graph.degree(n) for n in graph.nodes())
    assert degrees == 2 * graph.num_edges
