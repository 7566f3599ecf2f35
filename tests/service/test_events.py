"""Unit tests for the live event vocabulary, its one validator and
its one interpretation, :func:`repro.service.events.apply_event`."""

import pytest

from repro.graph import BipartiteGraph, Graph
from repro.service import (
    Arrival,
    CapacityChange,
    EdgeArrival,
    EventError,
    Retirement,
    apply_event,
    plain_graph,
)


def _base_graph() -> Graph:
    g = Graph()
    g.add_node("a", 2)
    g.add_node("b", 1)
    g.add_node("c", 1)
    g.add_edge("a", "b", 2.0)
    return g


def _snapshot(g: Graph):
    return (g.capacities(), sorted(g.edges()))


# -- Arrival ----------------------------------------------------------------


def test_arrival_adds_node_and_edges():
    g = _base_graph()
    apply_event(g, Arrival("d", capacity=3, edges=(("a", 1.5), ("c", 0.5))))
    assert g.capacity("d") == 3
    assert g.weight("d", "a") == 1.5
    assert g.weight("d", "c") == 0.5


def test_arrival_with_zero_capacity_is_valid():
    g = _base_graph()
    apply_event(g, Arrival("d", capacity=0))
    assert g.capacity("d") == 0


#: Every way an event can be invalid against :func:`_base_graph`, with
#: a pattern of its reason.  The matcher's admission rejects the same
#: table with the same messages (``tests/service/test_matcher.py``).
INVALID_EVENTS = [
    (Arrival("a"), "existing node"),
    (Arrival("d", capacity=-1), "must be >= 0"),
    (Arrival("d", edges=(("d", 1.0),)), "self-loop"),
    (Arrival("d", edges=(("a", 1.0), ("a", 2.0))), "repeats edge"),
    (Arrival("d", edges=(("nope", 1.0),)), "unknown"),
    (Arrival("d", edges=(("a", 0.0),)), "positive"),
    (EdgeArrival("a", "a", 1.0), "self-loop"),
    (EdgeArrival("a", "nope", 1.0), "unknown node"),
    (EdgeArrival("a", "c", -2.0), "positive"),
    (CapacityChange("nope", 1), "unknown node"),
    (CapacityChange("a", -1), "must be >= 0"),
    (Retirement("nope"), "unknown node"),
    # Malformed fields: a wrong type is rejected, not stored or
    # tripped over later.
    (CapacityChange("a", 1.5), "must be an int"),
    (CapacityChange("a", True), "must be an int"),
    (Arrival("d", capacity=2.0, edges=(("a", 1.0),)), "must be an int"),
    (Arrival(7, edges=(("a", 1.0),)), "must be a str"),
    (Arrival("d", edges=(("a", "1"),)), "must be numbers"),
    (EdgeArrival("a", "c", "3"), "must be numbers"),
    # +inf passes ``> 0``; NaN fails it, so it is rejected either way.
    (EdgeArrival("a", "c", float("inf")), "finite"),
]


@pytest.mark.parametrize("event, reason", INVALID_EVENTS)
def test_invalid_events_reject_without_mutating(event, reason):
    g = _base_graph()
    before = _snapshot(g)
    with pytest.raises(EventError, match=reason):
        apply_event(g, event)
    assert _snapshot(g) == before


# -- EdgeArrival ------------------------------------------------------------


def test_edge_arrival_adds_edge():
    g = _base_graph()
    apply_event(g, EdgeArrival("a", "c", 4.0))
    assert g.weight("a", "c") == 4.0


def test_edge_arrival_rescores_existing_edge():
    g = _base_graph()
    apply_event(g, EdgeArrival("a", "b", 9.0))
    assert g.weight("a", "b") == 9.0
    assert g.num_edges == 1


# -- CapacityChange / Retirement --------------------------------------------


def test_capacity_change_retunes_in_place():
    g = _base_graph()
    apply_event(g, CapacityChange("a", 0))
    assert g.capacity("a") == 0
    assert g.weight("a", "b") == 2.0  # edges survive a benching


def test_retirement_removes_node_and_incident_edges():
    g = _base_graph()
    apply_event(g, Retirement("a"))
    assert not g.has_node("a")
    assert g.num_edges == 0
    assert g.has_node("b")


# -- plain_graph ------------------------------------------------------------


def test_plain_graph_drops_bipartite_bookkeeping():
    bg = BipartiteGraph()
    bg.add_item("t", 2)
    bg.add_consumer("u", 1)
    bg.add_edge("t", "u", 3.0)
    plain = plain_graph(bg)
    assert isinstance(plain, Graph) and not isinstance(
        plain, BipartiteGraph
    )
    assert plain.capacities() == {"t": 2, "u": 1}
    assert plain.weight("t", "u") == 3.0
    # It's a copy: mutating it leaves the source untouched.
    plain.remove_node("t")
    assert bg.has_node("t")


def test_plain_graph_of_none_is_empty():
    assert plain_graph(None).num_nodes == 0
