"""Tests for the Dataset container and topic model."""

import random

import pytest

from repro.datasets import Dataset, TopicModel


def make_dataset(**overrides) -> Dataset:
    defaults = dict(
        name="tiny",
        items={"t1": {"a": 2.0, "b": 1.0}, "t2": {"c": 3.0}},
        consumers={"c1": {"a": 1.0, "c": 1.0}, "c2": {"b": 2.0}},
        consumer_activity={"c1": 3.0, "c2": 1.0},
        item_quality={"t1": 10.0, "t2": 30.0},
        capacity_scheme="quality",
    )
    defaults.update(overrides)
    return Dataset(**defaults)


def test_topic_model_document_properties():
    model = TopicModel(50, 4, rng=random.Random(0))
    mixture = model.mixture()
    assert len(mixture) == 4
    assert sum(mixture) == pytest.approx(1.0)
    doc = model.document(mixture, 30)
    assert sum(doc.values()) == pytest.approx(30)
    assert all(term.startswith("w") for term in doc)


def test_topic_model_deterministic():
    a = TopicModel(50, 4, rng=random.Random(5))
    b = TopicModel(50, 4, rng=random.Random(5))
    assert a.document(a.mixture(), 20) == b.document(b.mixture(), 20)


def test_edges_threshold_and_cache():
    ds = make_dataset()
    all_edges = ds.edges(0.5)
    high = ds.edges(2.5)
    assert len(high) <= len(all_edges)
    assert all(w >= 2.5 for _, _, w in high)
    # lowering below the cached floor recomputes
    again = ds.edges(0.1)
    assert len(again) >= len(all_edges)


def test_edges_rejects_bad_sigma():
    with pytest.raises(ValueError):
        make_dataset().edges(0.0)


def test_edges_rejects_nan_sigma():
    with pytest.raises(ValueError, match="sigma must be positive"):
        make_dataset().edges(float("nan"))


def test_sigma_for_edge_count_inverts_distribution():
    ds = make_dataset()
    total = len(ds.edges(0.5))
    assert total >= 3
    sigma = ds.sigma_for_edge_count(2, 0.5)
    assert len(ds.edges(sigma)) >= 2
    # asking for everything returns the floor
    assert ds.sigma_for_edge_count(10_000, 0.5) == 0.5


def test_capacities_quality_scheme():
    ds = make_dataset()
    item_caps, consumer_caps = ds.capacities(alpha=2.0)
    # b(u) = alpha * n(u)
    assert consumer_caps == {"c1": 6, "c2": 2}
    bandwidth = 8
    # quality proportional: t2 gets 3x t1's share of B=8
    assert item_caps["t2"] == 6
    assert item_caps["t1"] == 2


def test_capacities_uniform_scheme():
    ds = make_dataset(capacity_scheme="uniform", item_quality={})
    item_caps, consumer_caps = ds.capacities(alpha=1.0)
    bandwidth = sum(consumer_caps.values())  # 4
    assert set(item_caps.values()) == {2}  # 4 / 2 items


def test_capacities_unknown_scheme_rejected():
    ds = make_dataset(capacity_scheme="nope")
    with pytest.raises(ValueError, match="unknown capacity scheme"):
        ds.capacities(1.0)


def test_graph_combines_edges_and_capacities():
    ds = make_dataset()
    graph = ds.graph(sigma=0.5, alpha=2.0)
    assert sorted(graph.items()) == ["t1", "t2"]
    assert sorted(graph.consumers()) == ["c1", "c2"]
    assert graph.capacity("c1") == 6
    assert graph.num_edges == len(ds.edges(0.5))


def test_table1_row():
    ds = make_dataset()
    row = ds.table1_row(0.5)
    assert row["items"] == 2
    assert row["consumers"] == 2
    assert row["edges"] == len(ds.edges(0.5))


def test_similarity_values():
    ds = make_dataset()
    values = ds.similarity_values(0.5)
    assert all(v >= 0.5 for v in values)
    assert len(values) == len(ds.edges(0.5))
