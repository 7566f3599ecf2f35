"""Tests for collection statistics."""

from repro.simjoin import max_term_weights


def test_max_term_weights_empty():
    assert max_term_weights([]) == {}


def test_max_term_weights_takes_max():
    bounds = max_term_weights(
        [{"a": 1.0}, {"a": 5.0, "b": 0.5}, {"b": 2.0}]
    )
    assert bounds == {"a": 5.0, "b": 2.0}
