"""Tests for the prefix-filtering bound (the heart of the pruned index)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simjoin import max_term_weights, prefix_terms, suffix_bound
from repro.text import dot

from ..strategies import sparse_vectors, vector_collections


def test_suffix_bound_basic():
    vector = {"a": 2.0, "b": 1.0}
    bounds = {"a": 3.0, "b": 0.5, "zzz": 9.0}
    assert suffix_bound(vector, bounds) == pytest.approx(6.5)


def test_prefix_empty_when_unreachable():
    # Even matching everything, 2*0.1 + 1*0.1 < 1.0
    vector = {"a": 2.0, "b": 1.0}
    bounds = {"a": 0.1, "b": 0.1}
    assert prefix_terms(vector, bounds, sigma=1.0) == []


def test_prefix_takes_largest_contributions_first():
    vector = {"small": 1.0, "big": 5.0}
    bounds = {"small": 1.0, "big": 1.0}
    prefix = prefix_terms(vector, bounds, sigma=2.0)
    # tail must fall below 2.0: dropping "big" leaves 1.0 < 2.0
    assert prefix == ["big"]


def test_prefix_full_vector_when_needed():
    vector = {"a": 1.0, "b": 1.0}
    bounds = {"a": 1.0, "b": 1.0}
    # sigma=0.5: tail after both = 0 < 0.5 but after one = 1.0 >= 0.5
    assert prefix_terms(vector, bounds, sigma=0.5) == ["a", "b"]


def test_prefix_ignores_terms_absent_from_other_side():
    vector = {"shared": 2.0, "private": 100.0}
    bounds = {"shared": 1.0}  # "private" never matches a consumer
    assert prefix_terms(vector, bounds, sigma=1.0) == ["shared"]


def test_prefix_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        prefix_terms({"a": 1.0}, {"a": 1.0}, sigma=0.0)


def test_prefix_rejects_nan_sigma():
    with pytest.raises(ValueError, match="sigma must be positive"):
        prefix_terms({"a": 1.0}, {"a": 1.0}, sigma=float("nan"))


def test_max_term_weights():
    bounds = max_term_weights([{"a": 1.0, "b": 2.0}, {"a": 3.0}])
    assert bounds == {"a": 3.0, "b": 2.0}


@given(
    data=vector_collections(),
    sigma=st.floats(min_value=0.2, max_value=10.0, allow_nan=False),
)
def test_prefix_filter_completeness_property(data, sigma):
    """The correctness theorem: any pair >= sigma shares a prefix term."""
    items, consumers = data
    bounds = max_term_weights(consumers.values())
    for item_vector in items.values():
        prefix = set(prefix_terms(item_vector, bounds, sigma))
        for consumer_vector in consumers.values():
            similarity = dot(item_vector, consumer_vector)
            if similarity >= sigma:
                assert prefix & set(consumer_vector), (
                    "pair above threshold shares no indexed term"
                )


@given(data=vector_collections(), sigma=st.floats(0.2, 10.0))
def test_prefix_tail_bound_below_sigma(data, sigma):
    items, consumers = data
    bounds = max_term_weights(consumers.values())
    for vector in items.values():
        prefix = prefix_terms(vector, bounds, sigma)
        tail = {
            term: weight
            for term, weight in vector.items()
            if term not in prefix
        }
        assert suffix_bound(tail, bounds) < sigma
