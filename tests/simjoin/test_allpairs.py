"""Tests for the centralized similarity-join engines."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simjoin import exact_similarity_join, scipy_similarity_join
from repro.text import dot

from ..strategies import vector_collections


def _bruteforce(items, consumers, sigma):
    rows = []
    for item, iv in items.items():
        for consumer, cv in consumers.items():
            similarity = dot(iv, cv)
            if similarity >= sigma:
                rows.append((item, consumer, similarity))
    rows.sort()
    return rows


def test_exact_join_simple():
    items = {"t1": {"a": 1.0, "b": 2.0}}
    consumers = {"c1": {"a": 1.0}, "c2": {"b": 3.0}, "c3": {"z": 1.0}}
    rows = exact_similarity_join(items, consumers, sigma=1.0)
    assert rows == [("t1", "c1", 1.0), ("t1", "c2", 6.0)]


def test_exact_join_threshold_excludes():
    items = {"t1": {"a": 1.0}}
    consumers = {"c1": {"a": 0.5}}
    assert exact_similarity_join(items, consumers, sigma=0.6) == []
    assert len(exact_similarity_join(items, consumers, sigma=0.5)) == 1


def test_join_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        exact_similarity_join({}, {}, 0.0)
    with pytest.raises(ValueError):
        scipy_similarity_join({}, {}, -1.0)


def test_join_rejects_nan_sigma():
    for join in (exact_similarity_join, scipy_similarity_join):
        with pytest.raises(ValueError, match="sigma must be positive"):
            join({"t": {"a": 1.0}}, {"c": {"a": 1.0}}, float("nan"))


def test_scipy_join_empty_collections():
    assert scipy_similarity_join({}, {"c": {"a": 1.0}}, 1.0) == []
    assert scipy_similarity_join({"t": {"a": 1.0}}, {}, 1.0) == []


@given(
    data=vector_collections(),
    sigma=st.floats(min_value=0.2, max_value=8.0, allow_nan=False),
)
def test_exact_join_equals_bruteforce(data, sigma):
    items, consumers = data
    expected = _bruteforce(items, consumers, sigma)
    got = exact_similarity_join(items, consumers, sigma)
    assert [(t, c) for t, c, _ in got] == [(t, c) for t, c, _ in expected]
    for (_, _, a), (_, _, b) in zip(got, expected):
        assert a == pytest.approx(b)


@given(
    data=vector_collections(),
    sigma=st.floats(min_value=0.2, max_value=8.0, allow_nan=False),
)
def test_scipy_join_equals_exact(data, sigma):
    items, consumers = data
    exact = exact_similarity_join(items, consumers, sigma)
    fast = scipy_similarity_join(items, consumers, sigma)
    assert [(t, c) for t, c, _ in fast] == [(t, c) for t, c, _ in exact]
    for (_, _, a), (_, _, b) in zip(fast, exact):
        assert a == pytest.approx(b)


def test_scipy_join_blocking_boundaries():
    items = {f"t{i}": {"a": float(i + 1)} for i in range(10)}
    consumers = {"c0": {"a": 1.0}}
    for block in (1, 3, 10, 100):
        rows = scipy_similarity_join(
            items, consumers, sigma=3.0, block_size=block
        )
        assert len(rows) == 8  # items with weight >= 3
