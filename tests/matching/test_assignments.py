"""Tests for the delivery-plan projection helpers."""

import pytest
from hypothesis import given

from repro.graph import BipartiteGraph
from repro.matching import greedy_mr_b_matching
from repro.matching.assignments import deliveries_by_consumer

from ..strategies import small_bipartite_graphs


@pytest.fixture
def solved():
    g = BipartiteGraph()
    g.add_item("t1", 2)
    g.add_item("t2", 1)
    g.add_consumer("c1", 2)
    g.add_consumer("c2", 1)
    g.add_edge("t1", "c1", 3.0)
    g.add_edge("t1", "c2", 2.0)
    g.add_edge("t2", "c1", 1.0)
    return g, greedy_mr_b_matching(g).matching


def test_deliveries_ranked_best_first(solved):
    graph, matching = solved
    plan = deliveries_by_consumer(graph, matching)
    assert plan["c1"] == [("t1", 3.0), ("t2", 1.0)]
    assert plan["c2"] == [("t1", 2.0)]


@given(graph=small_bipartite_graphs())
def test_projections_partition_the_matching(graph):
    matching = greedy_mr_b_matching(graph).matching
    by_consumer = deliveries_by_consumer(graph, matching)
    total = sum(len(v) for v in by_consumer.values())
    assert total == len(matching)
    # every projected pair is a matched edge with the right weight
    for consumer, ranked in by_consumer.items():
        for item, weight in ranked:
            assert matching.weight(item, consumer) == weight
    # degrees respected
    for consumer, ranked in by_consumer.items():
        assert len(ranked) == matching.degree(consumer)
