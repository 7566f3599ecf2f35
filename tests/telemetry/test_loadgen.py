"""The Zipf event generator: determinism, skew, validity, event mix."""

from collections import Counter

import pytest

from repro.service import apply_event, plain_graph
from repro.service.events import CapacityChange
from repro.telemetry.loadgen import (
    DEFAULT_MIX,
    _normalized_mix,
    _ZipfPicker,
    zipf_events,
)

from ..service.test_matcher import _seeded_graph


def test_same_seed_same_stream():
    graph = _seeded_graph(0)
    first, mirror_a = zipf_events(graph, 30, seed=7)
    second, mirror_b = zipf_events(graph, 30, seed=7)
    assert first == second
    assert sorted(mirror_a.nodes()) == sorted(mirror_b.nodes())
    # A different seed is a different stream.
    other, _ = zipf_events(graph, 30, seed=8)
    assert other != first


def test_mirror_graph_is_the_stream_applied():
    graph = _seeded_graph(1)
    events, mirror = zipf_events(graph, 25, seed=3)
    replay = plain_graph(graph)
    for event in events:
        apply_event(replay, event)
    assert sorted(replay.nodes()) == sorted(mirror.nodes())
    assert replay.capacities() == mirror.capacities()
    # The input graph was not mutated.
    assert "zipf-0" not in set(graph.capacities())


def test_mix_validation():
    with pytest.raises(ValueError, match="unknown event kinds"):
        _normalized_mix({"arrival": 1.0, "tsunami": 1.0})
    with pytest.raises(ValueError, match=">= 0"):
        _normalized_mix({"arrival": -0.1})
    with pytest.raises(ValueError, match="positive share"):
        _normalized_mix({"arrival": 0.0})
    shares = _normalized_mix({"arrival": 1.0, "edge": 3.0})
    assert shares["arrival"] == pytest.approx(0.25)
    assert shares["edge"] == pytest.approx(0.75)
    assert shares["capacity"] == 0.0
    assert sum(_normalized_mix(DEFAULT_MIX).values()) == pytest.approx(1.0)


def test_mix_steers_event_kinds():
    graph = _seeded_graph(0)
    events, _ = zipf_events(
        graph, 20, seed=0, mix={"capacity": 1.0}
    )
    assert all(isinstance(event, CapacityChange) for event in events)


def test_zipf_skew_concentrates_on_the_hot_head():
    import random

    rng = random.Random(0)
    population = [f"n{index:03d}" for index in range(100)]
    picker = _ZipfPicker(rng, skew=1.5)
    draws = Counter(picker.pick(population) for _ in range(3000))
    head = sum(draws[node] for node in population[:10])
    # With skew 1.5 the top-10 ranks dominate; uniform would give ~300.
    assert head > 1500
    assert draws[population[0]] > draws.get(population[50], 0)

    uniform = _ZipfPicker(random.Random(0), skew=0.0)
    flat = Counter(uniform.pick(population) for _ in range(3000))
    assert sum(flat[node] for node in population[:10]) < 600

    with pytest.raises(ValueError, match="skew"):
        _ZipfPicker(rng, skew=-1.0)


def test_zipf_sample_returns_distinct_nodes():
    import random

    picker = _ZipfPicker(random.Random(0), skew=2.0)
    population = [f"n{index}" for index in range(20)]
    for _ in range(50):
        picked = picker.sample(population, 3)
        assert len(picked) == len(set(picked)) <= 3


def test_traffic_targets_hot_nodes_more_than_cold():
    """The generated traffic really is skewed, end to end.

    Capacity changes repeat on a stable population (unlike
    retirements, which remove their target), so the per-node hit
    counts expose the Zipf head directly.
    """
    graph = _seeded_graph(0, n=40)
    events, _ = zipf_events(
        graph, 300, seed=5, skew=1.5, mix={"capacity": 1.0}
    )
    nodes = sorted(plain_graph(graph).nodes())
    targets = Counter(event.node for event in events)
    head = sum(targets.get(node, 0) for node in nodes[:5])
    tail = sum(targets.get(node, 0) for node in nodes[-20:])
    assert head > 2 * tail
