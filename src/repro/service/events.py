"""The live event vocabulary of the online matching service.

The paper frames content matching as a batch problem, but the serving
setting it motivates (SocialScope's content-site framing) is a stream:
photos are uploaded, users sign up, budgets are retuned, accounts are
deleted.  This module defines the four event types the service admits,
the one validator every consumer of events asks
(:func:`validate_event`), and the one driver-side interpretation of
each (:func:`apply_event`), shared by the Zipf event generator and the
tests' cold-batch verification; the matcher applies the same events to
its graph store.  So "the final graph after these events" means exactly
one thing everywhere.

Events are validated against the graph they apply to; an invalid event
raises :class:`EventError` and leaves the graph untouched, so a bad
event in a batch is rejected without failing its batchmates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Optional, Tuple, Union

from ..graph import Graph

__all__ = [
    "Arrival",
    "CapacityChange",
    "EdgeArrival",
    "Event",
    "EventError",
    "Retirement",
    "apply_event",
    "plain_graph",
    "validate_event",
]


class EventError(ValueError):
    """An event is invalid against the current graph."""


@dataclass(frozen=True)
class Arrival:
    """A new node enters: a fresh item or consumer with its budget.

    ``edges`` are its initial candidate edges — ``(neighbor, weight)``
    pairs whose neighbors must already exist (a new photo arrives with
    its similarity-join scores against the live audience).
    """

    node: str
    capacity: int = 1
    edges: Tuple[Tuple[str, float], ...] = ()


@dataclass(frozen=True)
class EdgeArrival:
    """A new candidate edge between two live nodes (or a re-score:
    re-adding an existing edge overwrites its weight)."""

    u: str
    v: str
    weight: float


@dataclass(frozen=True)
class CapacityChange:
    """A live node's budget ``b(v)`` is retuned (``0`` benches it)."""

    node: str
    capacity: int


@dataclass(frozen=True)
class Retirement:
    """A live node leaves, taking every incident edge with it."""

    node: str


Event = Union[Arrival, EdgeArrival, CapacityChange, Retirement]


def validate_event(event: Event, contains: Callable[[str], bool]) -> None:
    """Raise :class:`EventError` unless ``event`` is valid against a
    graph whose live nodes ``contains`` answers for.

    The one event validator: :func:`apply_event` asks it with
    ``graph.has_node`` and the matcher's admission with its graph
    store's ``contains``, so both reject the same events with the same
    messages.  It reads nothing but ``contains`` and writes nothing.
    """
    if isinstance(event, Arrival):
        _check(isinstance(event.node, str),
               f"arrival node must be a str, got {event.node!r}")
        _check(not contains(event.node),
               f"arrival of existing node {event.node!r}")
        _check_capacity(event.capacity, "arrival capacity")
        seen = set()
        for neighbor, weight in event.edges:
            _check(neighbor != event.node,
                   f"arrival {event.node!r} carries a self-loop")
            _check(neighbor not in seen,
                   f"arrival {event.node!r} repeats edge to "
                   f"{neighbor!r}")
            seen.add(neighbor)
            _check(contains(neighbor),
                   f"arrival {event.node!r} references unknown "
                   f"neighbor {neighbor!r}")
            _check_weight(weight)
    elif isinstance(event, EdgeArrival):
        _check(event.u != event.v, f"self-loop on {event.u!r}")
        for node in (event.u, event.v):
            _check(contains(node), f"unknown node {node!r}")
        _check_weight(event.weight)
    elif isinstance(event, CapacityChange):
        _check(contains(event.node),
               f"capacity change for unknown node {event.node!r}")
        _check_capacity(event.capacity, "capacity")
    elif isinstance(event, Retirement):
        _check(contains(event.node),
               f"retirement of unknown node {event.node!r}")
    else:
        raise EventError(f"unknown event type: {event!r}")


def apply_event(graph: Graph, event: Event) -> None:
    """Apply ``event`` to ``graph`` in place (validate-then-mutate).

    Raises :class:`EventError` without touching the graph when the
    event is invalid (:func:`validate_event`).  The event generator's
    mirror and the verification cold-batch evolve through this
    function; the matcher applies the same events to its graph store
    after the same validation.
    """
    validate_event(event, graph.has_node)
    if isinstance(event, Arrival):
        graph.add_node(event.node, event.capacity)
        for neighbor, weight in event.edges:
            graph.add_edge(event.node, neighbor, weight)
    elif isinstance(event, EdgeArrival):
        graph.add_edge(event.u, event.v, event.weight)
    elif isinstance(event, CapacityChange):
        graph.add_node(event.node, event.capacity)
    else:
        graph.remove_node(event.node)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise EventError(message)


def _check_capacity(capacity: object, what: str) -> None:
    # ``bool`` is ``Integral``, but ``True`` is no budget (nor weight).
    _check(isinstance(capacity, Integral) and not isinstance(capacity, bool),
           f"{what} must be an int, got {capacity!r}")
    _check(capacity >= 0, f"{what} must be >= 0, got {capacity}")


def _check_weight(weight: object) -> None:
    _check(isinstance(weight, Real) and not isinstance(weight, bool),
           f"edge weights must be numbers, got {weight!r}")
    _check(weight > 0 and math.isfinite(weight),
           f"edge weights must be positive and finite, got {weight}")


def plain_graph(graph: Optional[Graph]) -> Graph:
    """A plain :class:`Graph` copy (drops bipartite side bookkeeping).

    The service is side-agnostic — arrivals need no item/consumer
    declaration — so it works on a general graph even when bootstrapped
    from a :class:`~repro.graph.BipartiteGraph`.
    """
    plain = Graph()
    if graph is None:
        return plain
    for node, capacity in graph.capacities().items():
        plain.add_node(node, capacity)
    for edge in graph.edges():
        plain.add_edge(edge.u, edge.v, edge.weight)
    return plain
