"""Tests for the graph generators (random + adversarial instances)."""

import random

import pytest

from repro.graph import (
    ascending_path,
    greedy_tightness_triangle,
    random_bipartite,
    random_graph,
    star_graph,
)


def test_random_bipartite_shape():
    g = random_bipartite(10, 6, 0.5, rng=random.Random(1))
    assert len(g.items()) == 10
    assert len(g.consumers()) == 6
    for edge in g.edges():
        assert g.side(edge.u) != g.side(edge.v)
        assert edge.weight > 0
    assert all(1 <= g.capacity(n) <= 3 for n in g.nodes())


def test_random_bipartite_deterministic_given_seed():
    a = random_bipartite(8, 8, 0.3, rng=random.Random(7))
    b = random_bipartite(8, 8, 0.3, rng=random.Random(7))
    assert sorted(e.key for e in a.edges()) == sorted(
        e.key for e in b.edges()
    )


def test_random_graph_general():
    g = random_graph(8, 0.4, rng=random.Random(2))
    assert g.num_nodes == 8
    assert g.num_edges > 0


def test_ascending_path_is_ascending():
    g = ascending_path(6)
    weights = [
        g.weight(f"u{i:06d}", f"u{i + 1:06d}") for i in range(5)
    ]
    assert weights == sorted(weights)
    assert all(g.capacity(n) == 1 for n in g.nodes())
    with pytest.raises(ValueError):
        ascending_path(1)


def test_tightness_triangle_structure():
    g = greedy_tightness_triangle(0.25)
    assert g.num_edges == 3
    assert g.capacity("v") == 2
    assert g.weight("z", "u") == pytest.approx(1.25)
    with pytest.raises(ValueError):
        greedy_tightness_triangle(0.0)


def test_tightness_triangle_rejects_nan_epsilon():
    with pytest.raises(ValueError, match="epsilon must be positive"):
        greedy_tightness_triangle(float("nan"))


def test_star_graph_weights_distinct():
    g = star_graph(5, center_capacity=2)
    weights = sorted(e.weight for e in g.edges())
    assert weights == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert g.capacity("center") == 2
