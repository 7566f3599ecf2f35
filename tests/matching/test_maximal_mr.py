"""Tests for the MapReduce maximal b-matching (four-stage jobs)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import check_matching, random_graph
from repro.mapreduce import MapReduceRuntime
from repro.matching import (
    MARKING_STRATEGIES,
    is_maximal,
    mm_records_from_adjacency,
    mr_maximal_b_matching,
)

from ..strategies import small_general_graphs


def _run(graph, seed=0, strategy="uniform", maps=4, reduces=4):
    runtime = MapReduceRuntime(
        num_map_tasks=maps, num_reduce_tasks=reduces
    )
    records = mm_records_from_adjacency(
        graph.adjacency_copy(), graph.capacities()
    )
    matched, rounds = mr_maximal_b_matching(
        records, runtime, seed=seed, strategy=strategy
    )
    return matched, rounds, runtime


@given(
    graph=small_general_graphs(),
    strategy=st.sampled_from(MARKING_STRATEGIES),
    seed=st.integers(min_value=0, max_value=3),
)
def test_mr_output_is_feasible_and_maximal(graph, strategy, seed):
    matched, _, _ = _run(graph, seed=seed, strategy=strategy)
    capacities = graph.capacities()
    assert check_matching(capacities, matched.keys()).feasible
    assert is_maximal(graph.adjacency_copy(), capacities, matched.keys())


@given(
    graph=small_general_graphs(),
    maps=st.integers(min_value=1, max_value=3),
    reduces=st.integers(min_value=1, max_value=3),
)
def test_mr_result_independent_of_task_layout(graph, maps, reduces):
    """Node-seeded RNG makes runs identical across task placements."""
    matched, _, _ = _run(graph, maps=maps, reduces=reduces)
    baseline, _, _ = _run(graph, maps=1, reduces=1)
    assert matched == baseline


def test_mr_deterministic_per_seed_and_varies_across_seeds():
    g = random_graph(14, 0.4, rng=random.Random(8), max_capacity=2)
    a, _, _ = _run(g, seed=1)
    b, _, _ = _run(g, seed=1)
    c, _, _ = _run(g, seed=2)
    assert a == b
    # different seeds should usually explore different matchings
    assert a != c or len(a) == 0


def test_round_offset_changes_random_stream():
    g = random_graph(14, 0.4, rng=random.Random(8), max_capacity=2)
    runtime = MapReduceRuntime()
    records = mm_records_from_adjacency(
        g.adjacency_copy(), g.capacities()
    )
    m1, _ = mr_maximal_b_matching(records, runtime, seed=0, round_offset=0)
    records = mm_records_from_adjacency(
        g.adjacency_copy(), g.capacities()
    )
    m2, _ = mr_maximal_b_matching(
        records, runtime, seed=0, round_offset=1000
    )
    assert check_matching(g.capacities(), m2.keys()).feasible
    # both valid; streams differ so results typically differ
    assert m1 != m2 or len(m1) <= 1


def test_four_jobs_per_round():
    g = random_graph(10, 0.5, rng=random.Random(3))
    matched, rounds, runtime = _run(g)
    assert runtime.jobs_executed == 4 * rounds
    assert rounds >= 1


def test_records_builder_filters_dead_nodes():
    adjacency = {
        "a": {"b": 1.0, "z": 2.0},
        "b": {"a": 1.0},
        "z": {"a": 2.0},
    }
    records = mm_records_from_adjacency(
        adjacency, {"a": 1, "b": 1, "z": 0}
    )
    nodes = {key for key, _ in records}
    assert nodes == {"a", "b"}
    state = dict(records)["a"]
    assert "z" not in state.adj  # edge to dead node pruned


def test_empty_records_no_jobs(runtime):
    matched, rounds = mr_maximal_b_matching([], runtime)
    assert matched == {}
    assert rounds == 0
    assert runtime.jobs_executed == 0


def test_unknown_strategy_rejected_without_live_edges():
    """The name is checked on entry, not when the first mark is drawn."""
    runtime = MapReduceRuntime()
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        mr_maximal_b_matching([], runtime, strategy="bogus")
    assert runtime.jobs_executed == 0
