"""Tests for sparse vector algebra."""

import math

import pytest
from hypothesis import given

from repro.text import add, dot, from_counts, norm, scale

from ..strategies import sparse_vectors


def test_from_counts():
    assert from_counts(["a", "b", "a"]) == {"a": 2.0, "b": 1.0}
    assert from_counts([]) == {}


def test_dot_basic():
    assert dot({"a": 2.0, "b": 1.0}, {"a": 3.0, "c": 5.0}) == 6.0
    assert dot({}, {"a": 1.0}) == 0.0


def test_dot_uses_smaller_side():
    big = {f"w{i}": 1.0 for i in range(100)}
    assert dot({"w5": 2.0}, big) == 2.0
    assert dot(big, {"w5": 2.0}) == 2.0


def test_norm_and_normalize():
    vec = {"a": 3.0, "b": 4.0}
    assert norm(vec) == pytest.approx(5.0)


def test_add_and_scale():
    assert add({"a": 1.0}, {"a": 2.0, "b": 3.0}) == {"a": 3.0, "b": 3.0}
    assert scale({"a": 2.0}, 0.5) == {"a": 1.0}


@given(a=sparse_vectors(), b=sparse_vectors())
def test_dot_symmetric(a, b):
    assert dot(a, b) == pytest.approx(dot(b, a))


@given(a=sparse_vectors(), b=sparse_vectors())
def test_cauchy_schwarz(a, b):
    assert dot(a, b) <= norm(a) * norm(b) + 1e-9


@given(a=sparse_vectors())
def test_norm_of_scaled(a):
    assert norm(scale(a, 2.0)) == pytest.approx(2.0 * norm(a))
