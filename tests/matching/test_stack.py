"""Tests for the centralized stack algorithm (Algorithms 1 and 2)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import check_matching, star_graph
from repro.matching import (
    bruteforce_b_matching,
    layer_capacities,
    stack_b_matching,
)
from repro.matching.stack import COVERAGE_TOLERANCE

from ..strategies import small_bipartite_graphs, small_general_graphs

EPSILONS = [0.25, 0.5, 1.0, 2.0]


def test_layer_capacities_formula():
    caps = {"a": 1, "b": 4, "c": 10, "dead": 0}
    assert layer_capacities(caps, 0.5) == {
        "a": 1,
        "b": 2,
        "c": 5,
        "dead": 0,
    }
    assert layer_capacities(caps, 1.0) == {
        "a": 1,
        "b": 4,
        "c": 10,
        "dead": 0,
    }
    # tiny epsilon: every capacitated node still gets a layer slot
    assert layer_capacities(caps, 0.01)["c"] == 1
    with pytest.raises(ValueError):
        layer_capacities(caps, 0.0)


def test_layer_capacities_rejects_nan_epsilon():
    with pytest.raises(ValueError, match="epsilon must be positive"):
        layer_capacities({"a": 1}, float("nan"))


@given(
    graph=small_general_graphs(),
    epsilon=st.sampled_from(EPSILONS),
    seed=st.integers(min_value=0, max_value=3),
)
def test_violations_within_one_epsilon_layer(graph, epsilon, seed):
    """Theorem 1: capacities exceeded by at most a (1+ε) layer."""
    result = stack_b_matching(graph, epsilon=epsilon, seed=seed)
    capacities = graph.capacities()
    for node, overflow in result.violations(
        capacities
    ).violated_nodes.items():
        layer = max(1, math.ceil(epsilon * capacities[node]))
        assert overflow <= layer - 1 + layer  # strictly below one extra layer
        assert result.matching.degree(node) <= capacities[node] + layer


@given(
    graph=small_general_graphs(),
    epsilon=st.sampled_from(EPSILONS),
    seed=st.integers(min_value=0, max_value=3),
)
def test_feasible_variant_never_violates(graph, epsilon, seed):
    """Algorithm 1 satisfies every capacity constraint exactly."""
    result = stack_b_matching(
        graph, epsilon=epsilon, seed=seed, feasible=True
    )
    report = check_matching(graph.capacities(), iter(result.matching))
    assert report.feasible


@given(
    graph=small_general_graphs(),
    epsilon=st.sampled_from([0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2),
)
def test_duals_weakly_cover_every_edge(graph, epsilon, seed):
    """After the push phase every edge satisfies Definition 1."""
    result = stack_b_matching(graph, epsilon=epsilon, seed=seed)
    duals = result.duals
    capacities = graph.capacities()
    factor = 1.0 / (3.0 + 2.0 * epsilon)
    for edge in graph.edges():
        if capacities[edge.u] <= 0 or capacities[edge.v] <= 0:
            continue
        coverage = (
            duals[edge.u] / capacities[edge.u]
            + duals[edge.v] / capacities[edge.v]
        )
        assert coverage >= factor * edge.weight - 1e-9


@given(
    graph=small_bipartite_graphs(),
    epsilon=st.sampled_from([0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2),
)
def test_approximation_guarantee_and_dual_bound(graph, epsilon, seed):
    """Value within 1/(6+ε) of optimum; dual bound certifies optimum."""
    result = stack_b_matching(graph, epsilon=epsilon, seed=seed)
    optimum = bruteforce_b_matching(graph).value
    assert result.value >= optimum / (6.0 + epsilon) - 1e-9
    assert result.dual_upper_bound >= optimum - 1e-6


@given(graph=small_general_graphs(), seed=st.integers(0, 2))
def test_feasible_variant_also_meets_guarantee(graph, seed):
    result = stack_b_matching(
        graph, epsilon=1.0, seed=seed, feasible=True
    )
    optimum = bruteforce_b_matching(graph).value
    assert result.value >= optimum / 7.0 - 1e-9


def test_deltas_are_positive_on_star():
    g = star_graph(6, center_capacity=2)
    result = stack_b_matching(g, epsilon=1.0, seed=0)
    assert result.layers >= 1
    assert all(y >= -1e-12 for y in result.duals.values())


def test_strategies_run_and_label_results():
    g = star_graph(6, center_capacity=2)
    assert stack_b_matching(g, strategy="uniform").algorithm == "Stack"
    assert (
        stack_b_matching(g, strategy="greedy").algorithm == "StackGreedy"
    )
    assert (
        stack_b_matching(g, feasible=True).algorithm == "StackFeasible"
    )


def test_weighted_strategy_labels_result():
    g = star_graph(6, center_capacity=2)
    assert (
        stack_b_matching(g, strategy="weighted").algorithm
        == "StackWeighted"
    )


@pytest.mark.parametrize("feasible", [False, True])
def test_unknown_strategy_rejected_without_live_edges(feasible):
    """The name is checked on entry, not when the first mark is drawn."""
    from repro.graph import Graph

    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        stack_b_matching(Graph(), strategy="bogus", feasible=feasible)


def test_zero_capacity_nodes_ignored():
    from repro.graph import Graph

    g = Graph()
    g.add_node("a", 0)
    g.add_node("b", 1)
    g.add_node("c", 1)
    g.add_edge("a", "b", 100.0)
    g.add_edge("b", "c", 1.0)
    result = stack_b_matching(g, epsilon=1.0)
    assert set(result.matching) == {("b", "c")}


def test_empty_graph():
    from repro.graph import Graph

    result = stack_b_matching(Graph())
    assert result.value == 0.0
    assert result.layers == 0
    assert result.dual_upper_bound == pytest.approx(0.0)


def test_rounds_counts_push_and_pop():
    g = star_graph(8, center_capacity=2)
    result = stack_b_matching(g, epsilon=0.5, seed=1)
    assert result.rounds == 2 * result.layers
