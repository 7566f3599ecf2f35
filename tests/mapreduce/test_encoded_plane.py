"""The encoded shuffle plane's contracts.

The runtime computes ``canonical_bytes(key)`` once per run — at
map-emit time, where every value one map-task attempt emits under one
exact-``str`` key shares a single record — and carries the
``(key_bytes, key, value)`` triple through partitioning, the shuffle's
sort, spill and merge, and the reduce-side grouping.  These tests pin:

* the **encode-once invariant** — one ``canonical_bytes`` call per
  distinct ``str`` key per map-task attempt, per emitted non-``str``
  key object, and per fresh combiner key — by counting calls through a
  patched codec (with and without a combiner, with and without
  spilling);
* **equal-key arrival order** through the encoded plane, at every
  spill threshold, for keys that form runs and keys that do not;
* what runs must **not** change: the key object reduce receives, the
  keys that may share a run, and a reducer mutating its ``values``
  under retries;
* the **sorted hand-off**: the shuffle delivers every partition
  key-sorted, spilled or not, and the reduce task groups it as given
  (outputs match bit-identically across thresholds);
* the ``shuffle.encoded_bytes`` counter and ``phase_timings`` meters.
"""

from collections import Counter

import pytest

from repro.mapreduce import (
    MapReduceJob,
    MapReduceRuntime,
    canonical_bytes,
)
from repro.mapreduce import runtime as runtime_module
from repro.mapreduce import partitioner as partitioner_module
from repro.mapreduce.faults import (
    FaultPlan,
    InjectedTaskFault,
    RetryPolicy,
)

from ..conftest import claim_once


class PlainWordCount(MapReduceJob):
    name = "PlainWordCount"

    def map(self, key, line):
        for word in line.split():
            yield word, 1

    def reduce(self, word, counts):
        yield word, sum(counts)


class CombiningWordCount(PlainWordCount):
    name = "CombiningWordCount"
    has_combiner = True

    def combine(self, word, counts):
        yield word, sum(counts)


class RekeyingWordCount(CombiningWordCount):
    """The combiner emits under a *fresh* key object every time."""

    name = "RekeyingWordCount"

    def combine(self, word, counts):
        yield word.upper(), sum(counts)

    def reduce(self, word, counts):
        yield word.lower(), sum(counts)


class FloatingCombiner(MapReduceJob):
    """The combiner's key equals its group's key but is another type."""

    has_combiner = True

    def combine(self, key, values):
        yield float(key), sum(values)


class ArrivalOrder(MapReduceJob):
    """Reduce output is the exact value arrival sequence per key."""

    def map(self, key, value):
        yield key % 2, (key, value)

    def reduce(self, key, values):
        yield key, list(values)


class StrArrivalOrder(ArrivalOrder):
    """The same under ``str`` keys, interleaved, so every task forms
    runs whose values are not adjacent in emission order."""

    name = "StrArrivalOrder"

    def map(self, key, value):
        yield f"p{key % 2}", (key, value)
        yield "all", key


class Tagged(str):
    """A ``str`` subclass: equal to, and encoded like, its ``str``."""


class KeyTypes(MapReduceJob):
    """Emits the value's ``(key, tag)`` pairs; reduce reports the key
    type it received and the arrival sequence."""

    name = "KeyTypes"

    def map(self, key, pairs):
        yield from pairs

    def reduce(self, key, values):
        yield (type(key).__name__, key), list(values)


class FirstKeyObject(MapReduceJob):
    """Reduce reports which of several equal key objects it got."""

    name = "FirstKeyObject"

    def map(self, key, word):
        yield word, id(word)

    def reduce(self, key, ids):
        yield key, (id(key), list(ids))


class MutatingReduce(MapReduceJob):
    """A reducer that edits its ``values`` list in place, then (on the
    first execution of any reduce attempt) crashes, so the retry
    re-reads a partition whose list it already mutated once."""

    name = "MutatingReduce"

    def __init__(self, sentinel):
        self.sentinel = sentinel

    def map(self, key, value):
        yield f"k{value % 3}", value
        yield f"k{value % 3}", -value

    def reduce(self, key, values):
        values.append("seen")
        values.reverse()
        if claim_once(self.sentinel):
            raise InjectedTaskFault("reduce crashed after mutating")
        yield key, tuple(values)


LINES = [
    (0, "the quick brown fox"),
    (1, "the lazy dog the fox"),
    (2, "jumps over the lazy dog"),
]


class _CountingCodec:
    """A transparent wrapper around canonical_bytes that counts calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, key):
        self.calls += 1
        return canonical_bytes(key)


@pytest.fixture
def counting_codec(monkeypatch):
    codec = _CountingCodec()
    # The runtime's task units are the only legal encoding site; patch
    # the name they resolve, plus the partitioner module's own global
    # so any regression that re-routes encoding through it is counted
    # too.
    monkeypatch.setattr(runtime_module, "canonical_bytes", codec)
    monkeypatch.setattr(partitioner_module, "canonical_bytes", codec)
    return codec


def _map_emissions(job_factory, records):
    """How many records the raw map phase emits (pre-combine)."""
    emissions = 0
    job = job_factory()
    for key, value in records:
        emissions += len(list(job.map(key, value)))
    return emissions


def _map_encodes(job_factory, records, num_map_tasks):
    """The ``canonical_bytes`` calls the map phase owes: per task (the
    runtime splits round-robin), one per distinct exact-``str`` key and
    one per emission under any other key."""
    job = job_factory()
    encodes = 0
    for task in range(num_map_tasks):
        keys = [
            out_key
            for key, value in records[task::num_map_tasks]
            for out_key, _ in job.map(key, value)
        ]
        encodes += len({k for k in keys if type(k) is str})
        encodes += sum(1 for k in keys if type(k) is not str)
    return encodes


def test_encode_once_without_combiner(counting_codec):
    runtime = MapReduceRuntime(num_map_tasks=3, num_reduce_tasks=3)
    runtime.run(PlainWordCount(), LINES)
    encodes = _map_encodes(PlainWordCount, LINES, 3)
    # "the" twice in one line: one task, one run, one encode.
    assert counting_codec.calls == encodes
    assert encodes == _map_emissions(PlainWordCount, LINES) - 1
    # Non-str keys never form a run: one encode per emitted key object.
    counting_codec.calls = 0
    records = [(i, f"v{i}") for i in range(12)]
    runtime.run(ArrivalOrder(), records)
    assert counting_codec.calls == _map_encodes(ArrivalOrder, records, 3)
    assert counting_codec.calls == len(records)


@pytest.mark.parametrize(
    "job_class, fresh_keys",
    [(CombiningWordCount, False), (RekeyingWordCount, True)],
)
def test_encode_once_with_combiner(counting_codec, job_class, fresh_keys):
    """One encode per run: a combiner output under its group's own key
    object reuses the group's cached bytes; only an output under a
    fresh key object is encoded."""
    runtime = MapReduceRuntime(num_map_tasks=3, num_reduce_tasks=3)
    output = runtime.run(job_class(), LINES)
    words = [word for _, line in LINES for word in line.split()]
    assert sorted(output) == sorted(Counter(words).items())
    map_emitted = _map_emissions(job_class, LINES)
    combined = runtime.counters.get(job_class.name, "map.output.records")
    assert 0 < combined < map_emitted
    assert counting_codec.calls == _map_encodes(job_class, LINES, 3) + (
        combined if fresh_keys else 0
    )


def test_combiner_reuses_key_bytes_by_identity_not_equality():
    """``1 == 1.0 == True`` but each encodes differently: an *equal*
    combiner key must still be encoded as what it is."""
    emitted = [
        (canonical_bytes(key), key, value)
        for key, value in [(1, 5), (True, 1), (1, 6), (2.0, 7)]
    ]
    combined = runtime_module._apply_combiner(FloatingCombiner(), emitted)
    assert sorted(combined) == sorted(
        (canonical_bytes(key), key, value)
        for key, value in [(1.0, 11), (1.0, 1), (2.0, 7)]
    )
    assert all(type(key) is float for _, key, _ in combined)


@pytest.mark.parametrize("threshold", [0, 2])
def test_encode_once_with_spilling(counting_codec, tmp_path, threshold):
    """The external shuffle spills, merges, and regroups without a
    single re-encode: run files carry the cached bytes."""
    runtime = MapReduceRuntime(
        num_map_tasks=3,
        num_reduce_tasks=3,
        spill_threshold=threshold,
        spill_dir=str(tmp_path),
    )
    runtime.run(PlainWordCount(), LINES)
    assert runtime.counters.get("runtime", "spilled_records") > 0
    assert counting_codec.calls == _map_encodes(PlainWordCount, LINES, 3)


@pytest.mark.parametrize("threshold", [None, 0, 1, 5])
def test_equal_key_arrival_order_preserved(tmp_path, threshold):
    """Values of equal keys reach reduce in arrival order — i.e. map
    task index order, then emission order — on every shuffle path."""
    records = [(i, f"v{i}") for i in range(40)]
    runtime = MapReduceRuntime(
        num_map_tasks=4,
        num_reduce_tasks=3,
        spill_threshold=threshold,
        spill_dir=str(tmp_path),
    )
    output = dict(runtime.run(ArrivalOrder(), records))
    for parity, values in output.items():
        # Arrival order: split k holds keys k, k+4, ...; splits are
        # routed in task order, so per key-parity the (key, value)
        # pairs arrive sorted by (key % 4, key).
        expected = sorted(
            ((k, f"v{k}") for k, _ in records if k % 2 == parity),
            key=lambda kv: (kv[0] % 4, kv[0]),
        )
        assert values == expected


@pytest.mark.parametrize("threshold", [None, 0, 1, 5])
def test_equal_str_key_arrival_order_preserved(backend, tmp_path, threshold):
    """The ``str``-key twin: each task folds a key's values into one
    run, and reduce still sees map task index order, then emission
    order — on every backend and shuffle path."""
    records = [(i, f"v{i}") for i in range(40)]
    runtime = MapReduceRuntime(
        num_map_tasks=4,
        num_reduce_tasks=3,
        backend=backend,
        spill_threshold=threshold,
        spill_dir=str(tmp_path),
    )
    output = dict(runtime.run(StrArrivalOrder(), records))
    by_arrival = sorted(records, key=lambda kv: (kv[0] % 4, kv[0]))
    assert output["all"] == [k for k, _ in by_arrival]
    for parity in (0, 1):
        assert output[f"p{parity}"] == [
            kv for kv in by_arrival if kv[0] % 2 == parity
        ]
    assert runtime.counters.get("runtime", "shuffle.records") == 80
    assert runtime.counters.get(
        StrArrivalOrder.name, "map.output.records"
    ) == 80


def test_reduce_receives_the_first_arriving_key_object():
    """Equal ``str`` keys share a run; the key reduce is handed is the
    object that arrived first, as without runs."""
    first, second, third = ("".join(["ke", "y"]) for _ in range(3))
    assert first == second == third and first is not second
    runtime = MapReduceRuntime(num_map_tasks=1, num_reduce_tasks=1)
    [(key, (key_id, ids))] = runtime.run(
        FirstKeyObject(), [(0, first), (1, second), (2, third)]
    )
    assert key_id == id(first) and key is first
    assert ids == [id(first), id(second), id(third)]


def test_only_exact_str_keys_form_runs():
    """``str`` subclasses and ``1``/``True``/``1.0`` never share a
    record, and values with equal key bytes keep their arrival order."""
    pairs = [
        ("k", 1),
        (Tagged("k"), 2),
        ("k", 3),
        ("k", 4),
        (1, "a"),
        (True, "b"),
        (1.0, "c"),
        (1, "d"),
        (Tagged("t"), 5),
        (Tagged("t"), 6),
    ]
    emitted, values = runtime_module._attempt_map(
        KeyTypes(), [(0, pairs)], "KeyTypes", None, "map"
    )
    assert values == len(pairs)
    assert [(type(key), value) for _, key, value in emitted] == [
        (str, 1),
        (Tagged, 2),
        (str, [3, 4]),
        (int, "a"),
        (bool, "b"),
        (float, "c"),
        (int, "d"),
        (Tagged, 5),
        (Tagged, 6),
    ]
    assert type(emitted[2][2]) is runtime_module._Run
    runtime = MapReduceRuntime(num_map_tasks=1, num_reduce_tasks=2)
    output = dict(runtime.run(KeyTypes(), [(0, pairs)]))
    assert output == {
        ("str", "k"): [1, 2, 3, 4],
        ("int", 1): ["a", "d"],
        ("bool", True): ["b"],
        ("float", 1.0): ["c"],
        ("Tagged", "t"): [5, 6],
    }
    # Order decides the key object, as without runs.
    pairs[0], pairs[1] = pairs[1], pairs[0]
    output = dict(runtime.run(KeyTypes(), [(0, pairs)]))
    assert output[("Tagged", "k")] == [2, 1, 3, 4]


def test_mutating_reduce_under_retries_matches_fault_free(backend, tmp_path):
    """Grouping copies a run, never hands it out: a reducer that
    mutates ``values`` and then crashes leaves the partition intact for
    the retry, so the output equals the fault-free run's."""
    records = [(i, i) for i in range(24)]
    clean = tmp_path / "clean"
    clean.touch()  # already claimed: this run never crashes
    expected = MapReduceRuntime(num_map_tasks=4, num_reduce_tasks=2).run(
        MutatingReduce(str(clean)), records
    )
    assert any(len(values) > 3 for _, values in expected)  # runs formed
    runtime = MapReduceRuntime(
        num_map_tasks=4,
        num_reduce_tasks=2,
        backend=backend,
        retry_policy=RetryPolicy(max_attempts=3),
        fault_plan=FaultPlan(3, crash_rate=1.0),
    )
    output = runtime.run(MutatingReduce(str(tmp_path / "crash")), records)
    assert output == expected
    assert (tmp_path / "crash").exists()
    assert runtime.counters.get("faults", "injected_crash") > 0


def test_spill_path_bit_identical_to_memory_path(tmp_path):
    """The sorted hand-off changes nothing observable: whether the
    shuffle keeps a partition in memory or merges it from spilled
    runs, the reduce task receives it key-sorted and outputs match."""
    records = [(i % 7, i) for i in range(60)]
    baseline = MapReduceRuntime(num_map_tasks=3, num_reduce_tasks=4)
    expected = baseline.run(ArrivalOrder(), records)
    for threshold in (0, 3, 1000):
        runtime = MapReduceRuntime(
            num_map_tasks=3,
            num_reduce_tasks=4,
            spill_threshold=threshold,
            spill_dir=str(tmp_path / str(threshold)),
        )
        assert runtime.run(ArrivalOrder(), records) == expected


def test_shuffle_encoded_bytes_metered():
    """shuffle.encoded_bytes = total cached key bytes, unconditionally
    metered and config-independent."""
    runtime = MapReduceRuntime()
    runtime.run(PlainWordCount(), LINES)
    expected = sum(
        len(canonical_bytes(word))
        for _, line in LINES
        for word in line.split()
    )
    assert (
        runtime.counters.get("PlainWordCount", "shuffle.encoded_bytes")
        == expected
    )
    assert (
        runtime.counters.get("runtime", "shuffle.encoded_bytes")
        == expected
    )


def test_phase_timings_accumulate():
    runtime = MapReduceRuntime()
    assert set(runtime.phase_timings) == {
        "map",
        "shuffle",
        "reduce",
        "spill",
    }
    runtime.run(PlainWordCount(), LINES)
    assert runtime.phase_timings["map"] > 0.0
    assert runtime.phase_timings["shuffle"] > 0.0
    assert runtime.phase_timings["reduce"] > 0.0
    assert runtime.phase_timings["spill"] == 0.0
    after_first = dict(runtime.phase_timings)
    runtime.run(PlainWordCount(), LINES)
    for phase in ("map", "shuffle", "reduce"):
        assert runtime.phase_timings[phase] > after_first[phase]


def test_phase_timings_record_spill_time(tmp_path):
    runtime = MapReduceRuntime(
        spill_threshold=0, spill_dir=str(tmp_path)
    )
    runtime.run(PlainWordCount(), LINES)
    assert runtime.phase_timings["spill"] > 0.0
    # Timing meters never leak into the counter determinism contract.
    snapshot = runtime.counters.snapshot()
    for group in snapshot.values():
        assert not any("seconds" in name for name in group)
