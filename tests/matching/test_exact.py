"""Tests for the exact min-cost-flow solver and the LP upper bound."""

import pytest
from hypothesis import given

from repro.graph import BipartiteGraph, star_graph
from repro.matching import (
    bruteforce_b_matching,
    flow_b_matching,
    lp_upper_bound,
)

from ..strategies import small_bipartite_graphs, small_general_graphs


def _bipartite_star(num_leaves: int, center_capacity: int):
    g = BipartiteGraph()
    g.add_item("center", center_capacity)
    for i in range(num_leaves):
        g.add_consumer(f"leaf{i}", 1)
        g.add_edge("center", f"leaf{i}", float(i + 1))
    return g


def test_flow_star_takes_heaviest_spokes():
    g = _bipartite_star(6, 2)
    result = flow_b_matching(g)
    assert result.value == pytest.approx(11.0)  # 6 + 5
    assert len(result.matching) == 2


def test_flow_prefers_weight_over_cardinality():
    # Two items, one consumer slot each side arranged so the max-weight
    # solution is smaller than the max-cardinality one.
    g = BipartiteGraph()
    g.add_item("t1", 1)
    g.add_item("t2", 1)
    g.add_consumer("c1", 1)
    g.add_consumer("c2", 1)
    g.add_edge("t1", "c1", 10.0)
    g.add_edge("t1", "c2", 9.0)
    g.add_edge("t2", "c1", 9.0)
    # max cardinality: {t1c2, t2c1} = 18 ; both beat single 10
    result = flow_b_matching(g)
    assert result.value == pytest.approx(18.0)


def test_flow_stops_at_negative_marginal():
    # Matching more edges than profitable must not happen; with all
    # positive weights every augmentation gains, so the solution is the
    # full feasible set here.
    g = BipartiteGraph()
    g.add_item("t1", 2)
    g.add_consumer("c1", 1)
    g.add_consumer("c2", 1)
    g.add_edge("t1", "c1", 1.0)
    g.add_edge("t1", "c2", 0.5)
    assert flow_b_matching(g).value == pytest.approx(1.5)


def test_empty_graph():
    g = BipartiteGraph()
    assert flow_b_matching(g).value == 0.0
    assert lp_upper_bound(g) == 0.0


@given(graph=small_bipartite_graphs())
def test_flow_equals_bruteforce(graph):
    flow = flow_b_matching(graph)
    optimum = bruteforce_b_matching(graph)
    assert flow.value == pytest.approx(optimum.value)
    # and the matching itself is feasible
    report = flow.violations(graph.capacities())
    assert report.feasible


@given(graph=small_general_graphs())
def test_lp_upper_bounds_general_graphs(graph):
    """On general graphs the LP may be fractional but bounds OPT."""
    bound = lp_upper_bound(graph)
    optimum = bruteforce_b_matching(graph).value
    assert bound >= optimum - 1e-6


def test_lp_upper_bound_is_half_integral_on_triangle():
    from repro.graph import greedy_tightness_triangle

    g = greedy_tightness_triangle(1.0)  # all weights meaningful
    bound = lp_upper_bound(g)
    optimum = bruteforce_b_matching(g).value
    assert bound >= optimum
