"""Tests for the §4 capacity formulas."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import (
    activity_capacities,
    quality_item_capacities,
    round_capacity,
    total_bandwidth,
    uniform_item_capacities,
)


def test_round_capacity_half_up_with_floor():
    assert round_capacity(0.2) == 1
    assert round_capacity(1.4) == 1
    assert round_capacity(1.5) == 2
    assert round_capacity(2.5) == 3  # half-up, not banker's
    assert round_capacity(0.0) == 1


def test_activity_capacities_scale_with_alpha():
    activity = {"u1": 3, "u2": 10}
    assert activity_capacities(activity, 1.0) == {"u1": 3, "u2": 10}
    assert activity_capacities(activity, 2.0) == {"u1": 6, "u2": 20}
    assert activity_capacities(activity, 0.1) == {"u1": 1, "u2": 1}


def test_activity_capacities_rejects_bad_alpha():
    with pytest.raises(ValueError):
        activity_capacities({"u": 1}, 0.0)
    with pytest.raises(ValueError):
        activity_capacities({"u": 1}, -2.0)


def test_activity_capacities_rejects_nan_alpha():
    with pytest.raises(ValueError, match="alpha must be positive"):
        activity_capacities({"u": 1}, float("nan"))


def test_total_bandwidth():
    assert total_bandwidth({"a": 2, "b": 5}) == 7
    assert total_bandwidth({}) == 0


def test_uniform_item_capacities_is_b_over_t():
    caps = uniform_item_capacities(["t1", "t2", "t3", "t4"], 10)
    assert caps == {f"t{i}": 3 for i in range(1, 5)}  # 10/4 = 2.5 -> 3
    assert uniform_item_capacities([], 10) == {}
    # floor of 1 when bandwidth is tiny
    assert uniform_item_capacities(["a", "b"], 0) == {"a": 1, "b": 1}


def test_quality_capacities_proportional():
    caps = quality_item_capacities({"hi": 30.0, "lo": 10.0}, 100)
    assert caps["hi"] == 75
    assert caps["lo"] == 25


def test_quality_capacities_zero_quality_floor():
    caps = quality_item_capacities({"a": 0.0, "b": 100.0}, 50)
    assert caps["a"] == 1
    assert caps["b"] == 50


def test_quality_capacities_all_zero():
    assert quality_item_capacities({"a": 0.0, "b": 0.0}, 50) == {
        "a": 1,
        "b": 1,
    }


def test_quality_capacities_reject_negative():
    with pytest.raises(ValueError):
        quality_item_capacities({"a": -1.0}, 10)


@given(
    quality=st.dictionaries(
        st.sampled_from([f"t{i}" for i in range(8)]),
        st.floats(0.0, 100.0, allow_nan=False),
        min_size=1,
    ),
    bandwidth=st.integers(min_value=0, max_value=10_000),
)
def test_quality_capacities_properties(quality, bandwidth):
    caps = quality_item_capacities(quality, bandwidth)
    assert set(caps) == set(quality)
    assert all(b >= 1 for b in caps.values())
    # Budget approximately preserved up to rounding: Σb ≤ B + |T|
    assert sum(caps.values()) <= bandwidth + len(quality)
    # Monotone in quality: a strictly better item never gets less.
    ordered = sorted(quality.items(), key=lambda kv: kv[1])
    for (low_item, low_q), (high_item, high_q) in zip(
        ordered, ordered[1:]
    ):
        if high_q >= low_q:
            assert caps[high_item] >= caps[low_item]
