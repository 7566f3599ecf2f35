"""Tests for the centralized Garrido et al. maximal b-matching."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import check_matching, random_graph
from repro.matching import (
    MARKING_STRATEGIES,
    is_maximal,
    maximal_b_matching_adjacency,
)
from repro.matching.maximal import choose_edges

from ..strategies import small_bipartite_graphs, small_general_graphs


@given(
    graph=small_general_graphs(),
    strategy=st.sampled_from(MARKING_STRATEGIES),
    seed=st.integers(min_value=0, max_value=5),
)
def test_output_is_feasible_and_maximal(graph, strategy, seed):
    capacities = graph.capacities()
    matched = maximal_b_matching_adjacency(
        graph.adjacency_copy(),
        capacities,
        rng=random.Random(seed),
        strategy=strategy,
    )
    report = check_matching(capacities, matched.keys())
    assert report.feasible
    assert is_maximal(graph.adjacency_copy(), capacities, matched.keys())


@given(graph=small_bipartite_graphs())
def test_bipartite_instances_work_too(graph):
    matched = maximal_b_matching_adjacency(
        graph.adjacency_copy(), graph.capacities(), rng=random.Random(1)
    )
    assert is_maximal(
        graph.adjacency_copy(), graph.capacities(), matched.keys()
    )


def test_capacity_override_restricts_matching():
    g = random_graph(10, 0.5, rng=random.Random(4), max_capacity=4)
    tight = {node: 1 for node in g.nodes()}
    matched = maximal_b_matching_adjacency(
        g.adjacency_copy(), tight, rng=random.Random(0)
    )
    degrees = {}
    for u, v in matched:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    assert all(d <= 1 for d in degrees.values())
    assert is_maximal(g.adjacency_copy(), tight, matched.keys())


def test_deterministic_for_fixed_seed():
    g = random_graph(12, 0.4, rng=random.Random(9))
    a = maximal_b_matching_adjacency(
        g.adjacency_copy(), g.capacities(), rng=random.Random(5)
    )
    b = maximal_b_matching_adjacency(
        g.adjacency_copy(), g.capacities(), rng=random.Random(5)
    )
    assert a == b


def test_zero_capacity_nodes_never_matched():
    adjacency = {
        "a": {"b": 1.0},
        "b": {"a": 1.0, "c": 2.0},
        "c": {"b": 2.0},
    }
    matched = maximal_b_matching_adjacency(
        adjacency, {"a": 0, "b": 1, "c": 1}, rng=random.Random(0)
    )
    assert ("a", "b") not in matched
    assert matched == {("b", "c"): 2.0}


def test_empty_graph():
    assert maximal_b_matching_adjacency({}, {}) == {}


def test_inputs_not_mutated():
    adjacency = {"a": {"b": 1.0}, "b": {"a": 1.0}}
    capacities = {"a": 1, "b": 1}
    maximal_b_matching_adjacency(
        adjacency, capacities, rng=random.Random(0)
    )
    assert adjacency == {"a": {"b": 1.0}, "b": {"a": 1.0}}
    assert capacities == {"a": 1, "b": 1}


# ---- choose_edges (the marking-strategy engine) -------------------------


CANDIDATES = [("n1", 5.0), ("n2", 1.0), ("n3", 3.0), ("n4", 3.0)]


def test_choose_greedy_picks_heaviest_with_ties_by_name():
    chosen = choose_edges(CANDIDATES, 2, random.Random(0), "greedy")
    assert chosen == ["n1", "n3"]


def test_choose_all_when_quota_large():
    for strategy in MARKING_STRATEGIES:
        chosen = choose_edges(CANDIDATES, 10, random.Random(0), strategy)
        assert sorted(chosen) == ["n1", "n2", "n3", "n4"]


def test_choose_uniform_subset():
    chosen = choose_edges(CANDIDATES, 2, random.Random(3), "uniform")
    assert len(chosen) == 2
    assert set(chosen) <= {"n1", "n2", "n3", "n4"}


def test_choose_weighted_prefers_heavy():
    heavy_hits = 0
    for seed in range(200):
        chosen = choose_edges(
            [("heavy", 100.0), ("light", 1.0)],
            1,
            random.Random(seed),
            "weighted",
        )
        heavy_hits += chosen == ["heavy"]
    assert heavy_hits > 150  # ~99% expected


def test_choose_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        choose_edges(CANDIDATES, 1, random.Random(0), "psychic")


@given(
    count=st.integers(min_value=0, max_value=6),
    strategy=st.sampled_from(MARKING_STRATEGIES),
    seed=st.integers(min_value=0, max_value=20),
)
def test_choose_edges_properties(count, strategy, seed):
    chosen = choose_edges(CANDIDATES, count, random.Random(seed), strategy)
    assert len(chosen) == min(count, len(CANDIDATES))
    assert len(set(chosen)) == len(chosen)  # no duplicates
