"""Unit and property tests for canonical key encoding and hashing."""

import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce import canonical_bytes, fast_hash_bytes, stable_hash
from repro.mapreduce.errors import JobValidationError

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_hashes.json"
)

key_strategy = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.text(max_size=12),
        st.binary(max_size=12),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    lambda children: st.tuples(children, children),
    max_leaves=6,
)


def _partition(key, num_partitions):
    """The reduce task the runtime's shuffle routes ``key`` to."""
    return fast_hash_bytes(canonical_bytes(key)) % num_partitions


def test_known_hash_is_stable_across_runs():
    # Regression pin: if this changes, shuffles are no longer stable.
    assert stable_hash("node-1") == stable_hash("node-1")
    assert canonical_bytes("a") == b"Sa"
    assert canonical_bytes(1) == b"I1"
    assert canonical_bytes(True) == b"B1"
    assert canonical_bytes(None) == b"N"


def test_type_tags_distinguish_lookalikes():
    assert canonical_bytes(1) != canonical_bytes("1")
    assert canonical_bytes(True) != canonical_bytes(1)
    assert canonical_bytes(b"a") != canonical_bytes("a")
    assert canonical_bytes((1,)) != canonical_bytes(1)


def test_unsupported_key_raises():
    with pytest.raises(JobValidationError):
        canonical_bytes({"a": 1})


@given(key=key_strategy)
def test_encoding_is_deterministic(key):
    assert canonical_bytes(key) == canonical_bytes(key)


@given(a=key_strategy, b=key_strategy)
def test_encoding_is_injective_on_samples(a, b):
    if a != b:
        assert canonical_bytes(a) != canonical_bytes(b)


@given(key=key_strategy, n=st.integers(min_value=1, max_value=64))
def test_partitioner_in_range(key, n):
    index = _partition(key, n)
    assert 0 <= index < n


def test_partitioner_spreads_keys():
    buckets = {_partition(f"key{i}", 8) for i in range(100)}
    assert len(buckets) == 8  # all partitions get some keys


# -- the fast hash of the encoded shuffle plane ------------------------------


def test_golden_hashes_pinned():
    """Both hash functions and the canonical encoding are frozen.

    The golden file pins ``fast_hash_bytes`` (which decides every
    shuffle's partition assignment) next to the MD5 ``stable_hash``
    baseline it replaced on the hot path (which still seeds the
    randomized matching drivers).  A diff here means every recorded
    shuffle layout and every seeded experiment changes — regenerate the
    file only for a deliberate, CHANGES.md-worthy format break.
    """
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert len(golden) >= 20
    for row in golden:
        key = eval(row["key"])  # reprs of plain literals, test-owned
        encoded = canonical_bytes(key)
        assert encoded.hex() == row["canonical_hex"], row["key"]
        assert fast_hash_bytes(encoded) == row["fast_hash"], row["key"]
        assert stable_hash(key) == row["stable_hash"], row["key"]


def _spread(keys, partitions=8):
    counts = [0] * partitions
    for key in keys:
        counts[_partition(key, partitions)] += 1
    return counts


def test_fast_hash_distributes_mixed_type_keys():
    """Every partition gets a reasonable share of a mixed-type key
    population (strings, ints, floats, pairs) — the workload the
    shuffle actually sees."""
    keys = (
        [f"term{i}" for i in range(200)]
        + [i for i in range(200)]
        + [float(i) / 3 for i in range(200)]
        + [(f"t{i % 20}", f"c{i // 20}") for i in range(200)]
        + [(i, f"w{i}") for i in range(200)]
    )
    counts = _spread(keys)
    expected = len(keys) / len(counts)
    assert min(counts) > expected * 0.5
    assert max(counts) < expected * 1.5


def test_fast_hash_distributes_sequential_int_keys():
    """Sequential integers — the degenerate key stream — still spread."""
    counts = _spread(list(range(1000)), partitions=16)
    expected = 1000 / 16
    assert min(counts) > expected * 0.5
    assert max(counts) < expected * 1.5


@given(key=key_strategy)
def test_fast_hash_is_32_bit_and_deterministic(key):
    value = fast_hash_bytes(canonical_bytes(key))
    assert 0 <= value < 2**32
    assert value == fast_hash_bytes(canonical_bytes(key))
