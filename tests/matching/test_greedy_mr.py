"""Tests for GreedyMR (Algorithm 3) — the MapReduce greedy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import Graph, ascending_path, check_matching, star_graph
from repro.mapreduce import MapReduceRuntime
from repro.mapreduce.errors import RoundLimitExceeded
from repro.matching import greedy_b_matching, greedy_mr_b_matching
from repro.matching import greedy_mr
from repro.matching.greedy_mr import default_max_rounds

from ..strategies import small_bipartite_graphs, small_general_graphs


def test_simulates_sequential_greedy_on_star():
    g = star_graph(6, center_capacity=2)
    sequential = greedy_b_matching(g)
    parallel = greedy_mr_b_matching(g)
    assert set(parallel.matching) == set(sequential.matching)
    assert parallel.value == pytest.approx(sequential.value)


@given(graph=small_bipartite_graphs())
def test_equals_sequential_greedy_bipartite(graph):
    """The key §5.4 property: local-dominance rounds = sequential greedy."""
    sequential = greedy_b_matching(graph)
    parallel = greedy_mr_b_matching(graph)
    assert set(parallel.matching) == set(sequential.matching)


@given(graph=small_general_graphs())
def test_equals_sequential_greedy_general(graph):
    sequential = greedy_b_matching(graph)
    parallel = greedy_mr_b_matching(graph)
    assert set(parallel.matching) == set(sequential.matching)


@given(
    graph=small_general_graphs(),
    maps=st.integers(min_value=1, max_value=3),
    reduces=st.integers(min_value=1, max_value=3),
)
def test_independent_of_task_layout(graph, maps, reduces):
    runtime = MapReduceRuntime(
        num_map_tasks=maps, num_reduce_tasks=reduces
    )
    result = greedy_mr_b_matching(graph, runtime=runtime)
    baseline = greedy_mr_b_matching(graph)
    assert set(result.matching) == set(baseline.matching)


def test_ascending_path_takes_linear_rounds():
    """The §5.4 worst case: cascading updates, Θ(n) iterations."""
    n = 24
    g = ascending_path(n)
    result = greedy_mr_b_matching(g)
    # Each round matches exactly the currently heaviest (rightmost)
    # remaining edge, so rounds grow linearly with the path length.
    assert result.rounds >= n // 2 - 2
    # and the result still equals sequential greedy
    assert result.value == pytest.approx(greedy_b_matching(g).value)


def test_alternating_path_is_fast():
    # Alternating heavy/light weights make every heavy edge locally
    # dominant at once: a handful of rounds regardless of length.
    g = Graph()
    n = 24
    for i in range(n):
        g.add_node(f"u{i:03d}", 1)
    for i in range(n - 1):
        weight = 10.0 + i * 0.01 if i % 2 == 0 else 1.0
        g.add_edge(f"u{i:03d}", f"u{i + 1:03d}", weight)
    result = greedy_mr_b_matching(g)
    assert result.rounds <= 4
    assert result.value == pytest.approx(greedy_b_matching(g).value)


def test_value_history_is_anytime():
    g = ascending_path(16)
    result = greedy_mr_b_matching(g)
    history = result.value_history
    assert len(history) == result.rounds
    assert all(b >= a for a, b in zip(history, history[1:]))
    assert history[-1] == pytest.approx(result.value)


def test_one_job_per_round(runtime):
    g = star_graph(5, center_capacity=1)
    result = greedy_mr_b_matching(g, runtime=runtime)
    assert result.mr_jobs == result.rounds
    assert runtime.jobs_executed == result.rounds


def test_zero_capacity_nodes_excluded():
    g = Graph()
    g.add_node("a", 0)
    g.add_node("b", 2)
    g.add_node("c", 1)
    g.add_edge("a", "b", 10.0)  # unusable: a has no budget
    g.add_edge("b", "c", 1.0)
    result = greedy_mr_b_matching(g)
    assert set(result.matching) == {("b", "c")}


def test_empty_graph_zero_rounds():
    result = greedy_mr_b_matching(Graph())
    assert result.rounds == 0
    assert result.value == 0.0


def test_round_limit_enforced(monkeypatch):
    g = ascending_path(30)
    monkeypatch.setattr(greedy_mr, "default_max_rounds", lambda graph: 2)
    with pytest.raises(RoundLimitExceeded):
        greedy_mr_b_matching(g)


def test_default_round_cap_is_linear_not_quadratic():
    """Regression: the default cap follows the progress guarantee.

    Every round with live edges matches at least one edge (no round's
    delta stream is empty before convergence), so rounds never exceed
    |E| and the default cap is ``|E| + 1`` — the old ``2·|E| + 4``
    made ``RoundLimitExceeded`` unreachable-or-quadratic on adversarial
    inputs.
    """
    g = ascending_path(30)
    assert default_max_rounds(g) == g.num_edges + 1
    assert default_max_rounds(Graph()) == 1


def test_ascending_path_converges_within_default_cap(monkeypatch):
    """The adversarial worst case fits the derived cap with room: the
    cascade is one match per round, which is exactly what the progress
    guarantee promises."""
    g = ascending_path(40)
    result = greedy_mr_b_matching(g)
    assert result.rounds <= default_max_rounds(g)
    assert result.value == pytest.approx(greedy_b_matching(g).value)
    # A cap below the true round count still trips the guard.
    cap = result.rounds - 1
    monkeypatch.setattr(greedy_mr, "default_max_rounds", lambda graph: cap)
    with pytest.raises(RoundLimitExceeded):
        greedy_mr_b_matching(g)


@given(graph=small_general_graphs())
def test_feasibility_after_every_round(graph):
    """The any-time property: the partial matching is always feasible.

    Since capacities only shrink and matched edges are never retracted,
    checking the final matching plus the monotone history suffices.
    """
    result = greedy_mr_b_matching(graph)
    report = check_matching(graph.capacities(), iter(result.matching))
    assert report.feasible
    history = result.value_history
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
