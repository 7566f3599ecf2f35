"""White-box tests of the stack algorithm's push/pop mechanics."""

import pytest

from repro.graph import Graph, star_graph
from repro.matching.stack import (
    StackLayer,
    _pop_feasible,
    _pop_violating,
    _push_phase,
)


def _layers(edge_rows):
    """Build a stack from [(u, v, w, delta)] rows per layer."""
    layers = []
    for rows in edge_rows:
        layer = StackLayer()
        for u, v, w, delta in rows:
            key = (u, v) if u < v else (v, u)
            layer.edges[key] = w
            layer.deltas[key] = delta
        layers.append(layer)
    return layers


def test_pop_is_lifo_later_layers_win_capacity():
    # Two layers share node x (capacity 1).  The LIFO pop must include
    # the *later* layer's edge and discard the earlier one.
    layers = _layers(
        [
            [("x", "a", 5.0, 1.0)],  # pushed first
            [("x", "b", 1.0, 0.5)],  # pushed last -> popped first
        ]
    )
    matching = _pop_violating(layers, {"x": 1, "a": 1, "b": 1})
    assert ("b", "x") in matching
    assert ("a", "x") not in matching


def test_pop_violating_allows_one_layer_overflow():
    # One layer with two edges at x (capacity 1): both are included in
    # parallel, which is exactly the (1+eps) overflow the paper allows.
    layers = _layers(
        [[("x", "a", 5.0, 1.0), ("x", "b", 4.0, 1.0)]]
    )
    matching = _pop_violating(layers, {"x": 1, "a": 1, "b": 1})
    assert matching.degree("x") == 2


def test_pop_feasible_repairs_overflow():
    layers = _layers(
        [[("x", "a", 5.0, 2.0), ("x", "b", 4.0, 1.0)]]
    )
    matching = _pop_feasible(
        layers,
        {"x": 1, "a": 1, "b": 1},
        epsilon=1.0,
        seed=0,
        strategy="uniform",
        max_rounds=100,
    )
    # exactly one of the two conflicting edges survives
    assert matching.degree("x") == 1
    assert len(matching) == 1


def test_push_phase_stacks_everything_eventually():
    g = star_graph(7, center_capacity=3)
    layers, duals = _push_phase(
        g, epsilon=1.0, seed=1, strategy="uniform",
        max_rounds=1000,
    )
    stacked = {key for layer in layers for key in layer.edges}
    # not every edge is stacked (weak coverage removes some), but the
    # push phase must terminate with no live edge and positive duals
    assert stacked  # at least one layer
    assert duals["center"] > 0


def test_push_phase_deltas_match_dual_increases():
    g = star_graph(5, center_capacity=2)
    layers, duals = _push_phase(
        g, epsilon=1.0, seed=2, strategy="uniform",
        max_rounds=1000,
    )
    total_delta = sum(
        delta for layer in layers for delta in layer.deltas.values()
    )
    # each delta is added to BOTH endpoints: sum(y) == 2 * sum(deltas)
    assert sum(duals.values()) == pytest.approx(2 * total_delta)


def test_zero_capacity_component_yields_empty_stack():
    g = Graph()
    g.add_node("a", 0)
    g.add_node("b", 0)
    g.add_edge("a", "b", 3.0)
    layers, duals = _push_phase(
        g, epsilon=1.0, seed=0, strategy="uniform",
        max_rounds=10,
    )
    assert layers == []
    assert duals == {}
