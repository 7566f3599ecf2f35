"""Tests for StackMR / StackGreedyMR (the MapReduce stack algorithm)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import check_matching, star_graph
from repro.mapreduce import MapReduceRuntime
from repro.matching import (
    MARKING_STRATEGIES,
    bruteforce_b_matching,
    stack_b_matching,
    stack_mr_b_matching,
)

from ..strategies import small_bipartite_graphs, small_general_graphs


@given(
    graph=small_general_graphs(),
    epsilon=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(min_value=0, max_value=2),
)
def test_violations_within_one_epsilon_layer(graph, epsilon, seed):
    result = stack_mr_b_matching(graph, epsilon=epsilon, seed=seed)
    capacities = graph.capacities()
    for node in capacities:
        degree = result.matching.degree(node)
        if degree == 0:
            continue
        layer = max(1, math.ceil(epsilon * capacities[node]))
        assert degree <= capacities[node] + layer


@given(
    graph=small_general_graphs(),
    seed=st.integers(min_value=0, max_value=2),
)
def test_duals_weakly_cover_every_edge(graph, seed):
    epsilon = 1.0
    result = stack_mr_b_matching(graph, epsilon=epsilon, seed=seed)
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
    seed=st.integers(min_value=0, max_value=2),
)
def test_approximation_and_dual_bound(graph, seed):
    epsilon = 1.0
    result = stack_mr_b_matching(graph, epsilon=epsilon, seed=seed)
    optimum = bruteforce_b_matching(graph).value
    assert result.value >= optimum / (6.0 + epsilon) - 1e-9
    assert result.dual_upper_bound >= optimum - 1e-6


@given(
    graph=small_general_graphs(),
    maps=st.integers(min_value=1, max_value=3),
    reduces=st.integers(min_value=1, max_value=3),
)
def test_independent_of_task_layout(graph, maps, reduces):
    """Same seed => identical matching on any simulated cluster shape."""
    runtime = MapReduceRuntime(
        num_map_tasks=maps, num_reduce_tasks=reduces
    )
    result = stack_mr_b_matching(graph, seed=7, runtime=runtime)
    baseline = stack_mr_b_matching(graph, seed=7)
    assert set(result.matching) == set(baseline.matching)
    assert result.duals == pytest.approx(baseline.duals)


def test_algorithm_names_by_strategy():
    g = star_graph(5, center_capacity=2)
    assert stack_mr_b_matching(g).algorithm == "StackMR"
    assert (
        stack_mr_b_matching(g, strategy="greedy").algorithm
        == "StackGreedyMR"
    )
    assert (
        stack_mr_b_matching(g, strategy="weighted").algorithm
        == "StackWeightedMR"
    )


def test_names_are_the_centralized_names_plus_mr():
    """One strategy -> name table serves both stack modules."""
    g = star_graph(5, center_capacity=2)
    for strategy in MARKING_STRATEGIES:
        centralized = stack_b_matching(g, strategy=strategy).algorithm
        assert (
            stack_mr_b_matching(g, strategy=strategy).algorithm
            == centralized + "MR"
        )


def test_unknown_strategy_rejected_without_live_edges():
    """A graph with no live edge never draws a mark, yet a bad strategy
    name still fails on entry — before any job runs."""
    from repro.graph import Graph

    g = Graph()
    g.add_node("a", 0)
    g.add_node("b", 1)
    g.add_edge("a", "b", 1.0)
    runtime = MapReduceRuntime()
    for graph in (Graph(), g):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            stack_mr_b_matching(graph, strategy="bogus", runtime=runtime)
    assert runtime.jobs_executed == 0


def test_job_accounting(runtime):
    g = star_graph(6, center_capacity=2)
    result = stack_mr_b_matching(g, runtime=runtime)
    assert result.mr_jobs == runtime.jobs_executed
    assert result.mr_jobs > 0
    assert result.layers >= 1
    # push phase jobs: >= 4 (maximal) + 2 (update+coverage) per round;
    # pop phase: one job per layer.
    assert result.mr_jobs >= 6 + result.layers


def test_star_graph_quality():
    g = star_graph(10, center_capacity=3)
    result = stack_mr_b_matching(g, epsilon=1.0, seed=0)
    optimum = bruteforce_b_matching(g).value
    assert result.value >= optimum / 7.0
    report = check_matching(g.capacities(), iter(result.matching))
    # center may overflow by at most ceil(eps*b) = 3
    assert result.matching.degree("center") <= 6


def test_empty_graph():
    from repro.graph import Graph

    result = stack_mr_b_matching(Graph())
    assert result.value == 0.0
    assert result.mr_jobs == 0


def test_zero_capacity_nodes_ignored():
    from repro.graph import Graph

    g = Graph()
    g.add_node("a", 0)
    g.add_node("b", 1)
    g.add_node("c", 1)
    g.add_edge("a", "b", 100.0)
    g.add_edge("b", "c", 1.0)
    result = stack_mr_b_matching(g)
    assert set(result.matching) == {("b", "c")}
