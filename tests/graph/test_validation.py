"""Tests for feasibility checking and the ε' violation statistic."""

import pytest

from repro.graph import check_matching, matching_degrees


def test_matching_degrees():
    degrees = matching_degrees([("a", "b"), ("a", "c")])
    assert degrees == {"a": 2, "b": 1, "c": 1}
    assert matching_degrees([]) == {}


def test_feasible_matching_reports_clean():
    report = check_matching(
        {"a": 2, "b": 1, "c": 1}, [("a", "b"), ("a", "c")]
    )
    assert report.feasible
    assert report.average_violation == 0.0
    assert report.max_violation_ratio == 0.0
    assert report.violated_nodes == {}
    assert report.num_nodes == 3


def test_violation_statistic_matches_paper_formula():
    # Node a: |M(a)|=3, b(a)=1 -> overflow 2, ratio 2.
    # Nodes b,c,d: fine. ε' = (1/4)·(2) = 0.5
    capacities = {"a": 1, "b": 2, "c": 2, "d": 2}
    edges = [("a", "b"), ("a", "c"), ("a", "d")]
    report = check_matching(capacities, edges)
    assert not report.feasible
    assert report.average_violation == pytest.approx(0.5)
    assert report.max_violation_ratio == pytest.approx(2.0)
    assert report.violated_nodes == {"a": 2}


def test_average_over_all_nodes_including_isolated():
    capacities = {"a": 1, "b": 1, "x": 5, "y": 5}
    edges = [("a", "b"), ("a", "y")]
    report = check_matching(capacities, edges)
    # only a overflows by 1 (ratio 1); averaged over 4 nodes
    assert report.average_violation == pytest.approx(0.25)


def test_duplicate_edges_rejected():
    with pytest.raises(ValueError):
        check_matching({"a": 1, "b": 1}, [("a", "b"), ("a", "b")])


def test_duplicate_check_can_be_disabled():
    report = check_matching(
        {"a": 2, "b": 2},
        [("a", "b"), ("a", "b")],
        duplicate_check=False,
    )
    assert report.feasible


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError):
        check_matching({"a": 1}, [("a", "ghost")])


def test_zero_capacity_node_with_matches_rejected():
    with pytest.raises(ValueError):
        check_matching({"a": 0, "b": 1}, [("a", "b")])


def test_empty_everything():
    report = check_matching({}, [])
    assert report.feasible
    assert report.average_violation == 0.0
