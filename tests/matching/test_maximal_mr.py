"""Tests for the MapReduce maximal b-matching (four-stage jobs)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import Graph, check_matching, random_graph
from repro.mapreduce import MapReduceRuntime
from repro.matching import (
    MARKING_STRATEGIES,
    is_maximal,
    maximal_mr,
    mm_records_from_adjacency,
    mr_maximal_b_matching,
)

from ..strategies import small_general_graphs


def _run_on(graph, runtime, seed=0, strategy="uniform"):
    records = mm_records_from_adjacency(
        graph.adjacency_copy(), graph.capacities()
    )
    return mr_maximal_b_matching(
        records, runtime, seed=seed, strategy=strategy
    )


def _run(graph, seed=0, strategy="uniform", maps=4, reduces=4):
    runtime = MapReduceRuntime(
        num_map_tasks=maps, num_reduce_tasks=reduces
    )
    matched, rounds = _run_on(graph, runtime, seed=seed, strategy=strategy)
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


def _sparse_protocol_graph():
    """Six nodes, two rounds under greedy marking, one demotion.

    Round 0 — marks (6): x→y, y→v, z→x, v→u, u→v, t→y.  Selections
    (4): x→z, y→x, v→u, u→v, so ``x`` (``b = 1``) holds two selected
    edges and demotes one (1).  Cleanup: matched records ``(u, v)``
    and ``(x, y|z)`` (2) plus death notices from saturated ``x`` to
    the demoted neighbour and from saturated ``v`` to ``y`` (2).
    Round 1 — ``y`` and ``t`` are left: 2 marks, 2 selections, 0
    demotions, 1 matched record.  Whichever edge ``x`` keeps, the
    counts are these.
    """
    graph = Graph()
    for node in "tuvxz":
        graph.add_node(node, 1)
    graph.add_node("y", 2)
    for u, v, w in (
        ("u", "v", 7.0),
        ("v", "y", 6.0),
        ("x", "y", 5.0),
        ("x", "z", 3.0),
        ("t", "y", 1.0),
    ):
        graph.add_edge(u, v, w)
    return graph


def _record_stages(runtime):
    """Log each stage job's shuffled records and the post-cleanup store."""
    shuffled, snapshots = [], []
    run_stateful = runtime.run_stateful

    def recording(job, store, **kwargs):
        before = runtime.counters.get(job.name, "shuffle.records")
        result = run_stateful(job, store, **kwargs)
        after = runtime.counters.get(job.name, "shuffle.records")
        shuffled.append((job.name, after - before))
        if job.name == "maximal-cleanup":
            snapshots.append(dict(store.records()))
        return result

    runtime.run_stateful = recording
    return shuffled, snapshots


def _assert_symmetric(records):
    """Every live edge is held, with one weight, by both live endpoints."""
    for node, state in records.items():
        assert state.b > 0 and state.adj, node
        assert not state.marked_in and not state.selected, node
        for neighbor, weight in state.adj.items():
            assert records[neighbor].adj[node] == weight, (node, neighbor)


def test_stages_ship_only_marks_selections_demotions_and_notices(runtime):
    graph = _sparse_protocol_graph()
    shuffled, snapshots = _record_stages(runtime)
    matched, rounds = _run_on(graph, runtime, strategy="greedy")
    assert rounds == 2
    assert shuffled == [
        ("maximal-mark", 6),
        ("maximal-select", 4),
        ("maximal-matchfix", 1),
        ("maximal-cleanup", 2 + 2),
        ("maximal-mark", 2),
        ("maximal-select", 2),
        ("maximal-matchfix", 0),
        ("maximal-cleanup", 1),
    ]
    assert len(matched) == 3
    assert ("u", "v") in matched and ("t", "y") in matched
    capacities = graph.capacities()
    assert is_maximal(graph.adjacency_copy(), capacities, matched.keys())
    assert snapshots[-1] == {}
    for snapshot in snapshots:
        _assert_symmetric(snapshot)


@pytest.mark.parametrize("strategy", MARKING_STRATEGIES)
def test_adjacency_stays_symmetric_after_every_cleanup(strategy):
    runtime = MapReduceRuntime()
    graph = random_graph(16, 0.4, rng=random.Random(2), max_capacity=3)
    _, snapshots = _record_stages(runtime)
    _, rounds = _run_on(graph, runtime, strategy=strategy)
    assert rounds == len(snapshots) >= 2
    for snapshot in snapshots:
        _assert_symmetric(snapshot)


def test_rng_built_only_where_drawn(monkeypatch):
    """Greedy marking draws only in matchfix: ``x``'s map and reduce."""
    built = []
    make_rng = maximal_mr._StageJob._rng

    def counting(job, node):
        built.append((job.stage, node))
        return make_rng(job, node)

    monkeypatch.setattr(maximal_mr._StageJob, "_rng", counting)
    _run_on(_sparse_protocol_graph(), MapReduceRuntime(), strategy="greedy")
    assert built == [("matchfix", "x"), ("matchfix", "x")]
