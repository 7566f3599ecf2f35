"""Tests for the algorithm registry."""

import pytest

from repro.graph import star_graph
from repro.matching import ALGORITHMS, solve


def test_all_registered_algorithms_run():
    g = star_graph(4, center_capacity=2)
    for name in ALGORITHMS:
        if name == "exact_flow":  # the flow network needs the two sides
            with pytest.raises(TypeError, match="needs a BipartiteGraph"):
                solve(g, name)
            continue
        result = solve(g, name)
        assert result.value > 0, name


def test_solve_forwards_kwargs():
    g = star_graph(4, center_capacity=2)
    result = solve(g, "stack", epsilon=0.5, seed=3)
    assert result.algorithm == "Stack"


def test_unknown_algorithm():
    g = star_graph(3, center_capacity=1)
    with pytest.raises(ValueError, match="unknown algorithm"):
        solve(g, "oracle")


def test_registry_names_are_stable():
    expected = {
        "greedy",
        "greedy_mr",
        "stack",
        "stack_greedy",
        "stack_feasible",
        "stack_mr",
        "stack_greedy_mr",
        "stack_weighted_mr",
        "exact_flow",
        "bruteforce",
    }
    assert set(ALGORITHMS) == expected
    assert len(ALGORITHMS) == 10
