"""Unit tests for the delta iteration plane's resident state store.

Covers the store contract (partition alignment with the shuffle,
out-of-core parking on both filesystems, the key index) and the
``run_stateful`` round semantics (scan vs frontier mode, quiescence by
equality, Retired departures with pruned notices, delta convergence,
and the ``iteration.*`` counters) on a toy job — the matching-layer
equivalents live in ``tests/matching``.
"""

import pytest

from repro.mapreduce import (
    Counters,
    IterativeDriver,
    JobValidationError,
    LocalDiskFileSystem,
    MapReduceJob,
    MapReduceRuntime,
    ResidentStateStore,
    Retired,
    canonical_bytes,
    fast_hash_bytes,
)
from repro.mapreduce.errors import DriverError
from repro.mapreduce.state import (
    STATE_POINT_COUNTERS,
    STATE_SPILL_COUNTERS,
    strip_volatile_counters,
)


class CountDown(MapReduceJob):
    """Toy stateful job: each key decrements until it retires.

    Scan mode sends each key one ("tick", 1) message per round;
    frontier mode makes changed keys tick themselves.
    """

    name = "count-down"

    def map_resident(self, key, state):
        yield key, ("tick", 1)

    def map_delta(self, key, delta):
        if isinstance(delta, Retired):
            return
        yield key, ("tick", 1)

    def reduce_state(self, key, state, values):
        if state is None:
            return None, []
        remaining = state - sum(amount for _, amount in values)
        if remaining <= 0:
            return Retired(), [((key, "done"), 0)]
        return remaining, []


class Idle(MapReduceJob):
    """Reduce returns an equal-but-not-identical state every round."""

    name = "idle"

    def map_resident(self, key, state):
        yield key, ("noop",)

    def reduce_state(self, key, state, values):
        return list(state), []


class Leave(MapReduceJob):
    """Every key retires at once, naming every peer."""

    name = "leave"

    def map_resident(self, key, state):
        yield key, ("go",)

    def reduce_state(self, key, state, values):
        if state is None:
            return None, []
        return Retired(state), []


class LeaveOne(MapReduceJob):
    """Only "goner" retires, notifying the surviving "stays"."""

    name = "leave-one"

    def map_resident(self, key, state):
        yield key, ("go",)

    def reduce_state(self, key, state, values):
        if key == "goner":
            return Retired(("stays",)), []
        return state, []


# -- store contract ---------------------------------------------------------


def test_store_partitions_align_with_shuffle_hash():
    store = ResidentStateStore("align", num_partitions=4)
    store.load([(f"k{i}", i) for i in range(40)])
    for i in range(40):
        key_bytes = canonical_bytes(f"k{i}")
        index = fast_hash_bytes(key_bytes) % 4
        assert key_bytes in store.partition(index)


def test_store_records_order_is_partition_major_byte_sorted():
    store = ResidentStateStore("order", num_partitions=3)
    store.load([(f"k{i}", i) for i in range(20)])
    listed = list(store.records())
    expected = []
    for index in range(3):
        part = store.partition(index)
        expected.extend(part[kb] for kb in sorted(part))
    assert listed == expected
    assert len(store) == 20


@pytest.mark.parametrize("fs", ["memory", "disk"])
def test_store_parks_and_reloads_losslessly(fs, tmp_path):
    filesystem = (
        LocalDiskFileSystem(root=str(tmp_path / "dfs"))
        if fs == "disk"
        else None
    )
    counters = Counters()
    store = ResidentStateStore(
        "park",
        num_partitions=4,
        filesystem=filesystem,
        spill_threshold=5,
        counters=counters,
    )
    # Rich (non-JSON) state values must survive the round trip: the
    # store pickles them into bytes payloads for the record codec.
    states = {f"k{i}": {"adj": {f"n{j}": j / 3 for j in range(i)}} for i in range(12)}
    store.load(sorted(states.items()))
    store.maybe_park()  # 12 > 5: must park
    assert counters.get("park", "state.spilled_records") == 12
    assert counters.get("runtime", "state.spill_files") > 0
    # The key index answers membership without loading anything.
    assert store.contains("k3") and not store.contains("nope")
    assert len(store) == 12
    # Reloading returns the exact states.
    assert dict(store.records()) == states


def test_store_below_threshold_never_parks():
    counters = Counters()
    store = ResidentStateStore(
        "small", num_partitions=2, spill_threshold=100, counters=counters
    )
    store.load([("a", 1), ("b", 2)])
    store.maybe_park()
    assert counters.get("small", "state.spilled_records") == 0


def test_store_close_removes_parked_datasets(tmp_path):
    filesystem = LocalDiskFileSystem(root=str(tmp_path / "dfs"))
    store = ResidentStateStore(
        "gone", num_partitions=2, filesystem=filesystem, spill_threshold=0
    )
    store.load([("a", 1), ("b", 2)])
    store.park()
    assert filesystem.list_paths("/state")
    store.close()
    assert not filesystem.list_paths("/state")
    assert len(store) == 0


def test_runtime_rejects_misaligned_store():
    runtime = MapReduceRuntime(num_reduce_tasks=4)
    store = ResidentStateStore("bad", num_partitions=3)
    with pytest.raises(JobValidationError):
        runtime.run_stateful(CountDown(), store, scan=True)


# -- round semantics --------------------------------------------------------


def test_scan_rounds_converge_to_empty_delta_stream(runtime):
    store = runtime.state_store("countdown")
    store.load([("a", 1), ("b", 3), ("c", 2)])
    job = CountDown()
    done_at = {}
    rounds = 0
    while len(store):
        output, deltas = runtime.run_stateful(job, store, scan=True)
        rounds += 1
        for (key, _), _ in output:
            done_at[key] = rounds
        if not deltas and len(store):
            pytest.fail("non-empty store but empty delta stream")
    assert rounds == 3
    assert done_at == {"a": 1, "c": 2, "b": 3}
    assert runtime.counters.get("count-down", "iteration.delta_records") > 0


def test_frontier_rounds_visit_only_message_keys(runtime):
    """Frontier mode reduces only where messages arrive."""
    store = runtime.state_store("frontier")
    store.load([("hot", 5), ("cold", 5)])
    job = CountDown()
    # Only "hot" is in the delta stream: "cold" must stay untouched.
    output, deltas = runtime.run_stateful(
        job, store, deltas=[("hot", 5)], scan=False
    )
    assert deltas == [("hot", 4)]
    assert dict(store.records())["cold"] == 5
    assert runtime.counters.get(
        "count-down", "iteration.quiescent_records"
    ) == 1


def test_quiescence_is_detected_by_equality(runtime):
    store = runtime.state_store("idle")
    store.load([("a", [1, 2]), ("b", [3])])
    _, deltas = runtime.run_stateful(Idle(), store, scan=True)
    assert deltas == []
    assert runtime.counters.get("idle", "iteration.delta_records") == 0
    assert runtime.counters.get("idle", "iteration.quiescent_records") == 2


def test_retired_notices_are_pruned_to_survivors(runtime):
    # Everyone retires at once, naming everyone else: all notices must
    # be pruned, leaving an empty delta stream.
    store = runtime.state_store("leave")
    peers = ("a", "b", "c")
    store.load(
        [(k, tuple(p for p in peers if p != k)) for k in peers]
    )
    _, deltas = runtime.run_stateful(Leave(), store, scan=True)
    assert deltas == []
    assert len(store) == 0


def test_retired_notices_reach_survivors(runtime):
    store = runtime.state_store("leave-one")
    store.load([("goner", 0), ("stays", 1)])
    _, deltas = runtime.run_stateful(LeaveOne(), store, scan=True)
    assert deltas == [("goner", Retired(("stays",)))]
    assert len(store) == 1 and store.contains("stays")


def test_survivor_pruning_looks_each_named_peer_up_once(monkeypatch):
    # GreedyMR's late retirees are named by most of their neighbours:
    # one key-index lookup per distinct name and call, same notices.
    runtime = MapReduceRuntime(counters=Counters())
    store = runtime.state_store("prune-memo")
    store.load([("a", 0), ("b", 0), (1, 0)])
    looked_up = []
    contains = store.contains
    monkeypatch.setattr(
        store,
        "contains",
        lambda key: looked_up.append(key) or contains(key),
    )
    updates = [
        (canonical_bytes(key), key, Retired(notify))
        for key, notify in (
            ("x", ("a", "gone", "b")),
            ("y", ("b", "a")),
            ("z", ("gone",)),
            # 1 == True == 1.0 as dict keys, three different keys to
            # the store: only str names are memoised.
            ("w", (1, True, 1.0, 1)),
        )
    ]
    deltas, changed = MapReduceRuntime._apply_updates(store, updates)
    assert deltas == [
        ("x", Retired(("a", "b"))),
        ("y", Retired(("b", "a"))),
        ("w", Retired((1, 1))),
    ]
    assert [type(peer) for peer in deltas[2][1].notify] == [int, int]
    assert changed == 4
    assert looked_up == ["a", "gone", "b", 1, True, 1.0, 1]


def test_stateful_rounds_count_as_jobs(runtime):
    store = runtime.state_store("jobs")
    store.load([("a", 1)])
    before = runtime.jobs_executed
    runtime.run_stateful(CountDown(), store, scan=True)
    assert runtime.jobs_executed == before + 1
    assert runtime.job_log[-1] == "count-down"


def test_outputs_bit_identical_across_backends_and_storage(tmp_path):
    """The stateful plane inherits the runtime equivalence contract."""
    def run(backend, storage, spill):
        runtime = MapReduceRuntime(
            num_map_tasks=3,
            num_reduce_tasks=3,
            counters=Counters(),
            backend=backend,
            storage=storage,
            spill_threshold=spill,
            spill_dir=str(tmp_path / f"sp-{backend}-{spill}"),
        )
        store = runtime.state_store("equiv")
        store.load([(f"k{i}", 1 + i % 4) for i in range(23)])
        transcript = []
        job = CountDown()
        while len(store):
            output, deltas = runtime.run_stateful(job, store, scan=True)
            transcript.append((output, deltas))
        return transcript, strip_volatile_counters(
            runtime.counters.snapshot()
        )

    baseline = run("serial", None, None)
    for backend in ("serial", "cluster"):
        for storage, spill in (
            (None, 0),
            (LocalDiskFileSystem(root=str(tmp_path / f"d-{backend}")), 2),
        ):
            assert run(backend, storage, spill) == baseline


def test_driver_integration(runtime):
    driver = IterativeDriver(runtime, name="countdown")
    with pytest.raises(DriverError):
        driver.run_stateful(CountDown())
    driver.create_store([("a", 2), ("b", 9)])
    # Frontier rounds driven by "a" alone: "b" stays quiescent (and
    # resident) throughout, which the savings meter must reflect.
    deltas = [("a", 2)]
    rounds = 0
    while deltas:
        _, deltas = driver.run_stateful(CountDown(), deltas=deltas)
        rounds += 1
    assert rounds == 2
    assert len(driver.store) == 1 and driver.store.contains("b")
    counters = runtime.counters.group("runtime")
    assert (
        counters["iteration.quiescent_records"]
        / counters["iteration.resident_records"]
        == 0.5
    )
    driver.close()
    assert driver.store is None


def test_strip_volatile_counters_drops_both_spill_families():
    counters = Counters()
    counters.increment("g", "spilled_records", 5)
    for name in STATE_SPILL_COUNTERS:
        counters.increment("g", name, 7)
    counters.increment("g", "kept", 1)
    assert strip_volatile_counters(counters.snapshot()) == {
        "g": {"kept": 1}
    }


def test_strip_volatile_counters_drops_point_counters():
    counters = Counters()
    for name in STATE_POINT_COUNTERS:
        counters.increment("g", name, 3)
    counters.increment("g", "kept", 1)
    assert strip_volatile_counters(counters.snapshot()) == {
        "g": {"kept": 1}
    }


# -- the single-key apply path on parked partitions -------------------------


def _parked_store(tmp_path, counters=None):
    """A parked 2-partition store holding k0..k5 (threshold 0)."""
    store = ResidentStateStore(
        "point",
        num_partitions=2,
        filesystem=LocalDiskFileSystem(root=str(tmp_path / "dfs")),
        spill_threshold=0,
        counters=counters,
    )
    store.load([(f"k{i}", i * 10) for i in range(6)])
    store.park()
    assert all(part is None for part in store._partitions)
    return store


def test_point_put_leaves_partition_parked(tmp_path):
    counters = Counters()
    store = _parked_store(tmp_path, counters)
    store.put(canonical_bytes("new"), "new", 99)
    store.put(canonical_bytes("k0"), "k0", -1)  # overwrite, same path
    # No partition was unparked by the writes...
    assert all(part is None for part in store._partitions)
    assert counters.get("point", "state.point_applies") == 2
    # ...yet the index and the data both see them.
    assert store.contains("new") and len(store) == 7
    assert store.get("new") == 99
    assert store.get("k0") == -1
    assert dict(store.records())["k0"] == -1
    store.close()


def test_point_discard_tombstones_without_unparking(tmp_path):
    counters = Counters()
    store = _parked_store(tmp_path, counters)
    store.discard(canonical_bytes("k1"))
    assert all(part is None for part in store._partitions)
    assert counters.get("point", "state.point_applies") == 1
    assert not store.contains("k1") and len(store) == 5
    assert store.get("k1", "gone") == "gone"
    assert "k1" not in dict(store.records())
    # Discarding an absent key is a no-op, not a tombstone.
    store.discard(canonical_bytes("nope"))
    assert counters.get("point", "state.point_applies") == 1
    store.close()


def test_point_get_scans_parked_file_without_caching(tmp_path):
    counters = Counters()
    store = _parked_store(tmp_path, counters)
    assert store.get("k2") == 20
    assert all(part is None for part in store._partitions)
    assert counters.get("point", "state.point_reads") == 1
    # Misses answer from the key index without touching the file.
    assert store.get("nope", -1) == -1
    assert counters.get("point", "state.point_reads") == 1
    # Resident reads are direct (no point meter).
    resident = ResidentStateStore("res", num_partitions=2)
    resident.load([("a", 1)])
    assert resident.get("a") == 1
    store.close()


def test_reparking_folds_the_overlay_into_the_file(tmp_path):
    store = _parked_store(tmp_path)
    store.put(canonical_bytes("new"), "new", 99)
    store.discard(canonical_bytes("k0"))
    store.park()  # folds the overlay, rewrites the parked files
    assert all(not overlay for overlay in store._overlay)
    assert store.get("new") == 99
    assert store.get("k0", "gone") == "gone"
    expected = {f"k{i}": i * 10 for i in range(1, 6)}
    expected["new"] = 99
    assert dict(store.records()) == expected
    store.close()


def test_point_apply_then_load_partition_sees_overlay(tmp_path):
    """Loading a partition (e.g. a frontier round visiting it) folds
    pending point writes in, so rounds and point ops interleave."""
    store = _parked_store(tmp_path)
    store.put(canonical_bytes("new"), "new", 99)
    store.discard(canonical_bytes("k1"))
    for index in range(2):
        part = store.partition(index)  # unpark + fold
        for key_bytes, (key, value) in part.items():
            assert store.get(key) == value
    assert not store.contains("k1")
    assert store.get("new") == 99
    store.close()


# -- parking skips clean partitions ------------------------------------------


def _count_writes(store, monkeypatch):
    writes = []
    real_write = store.filesystem.write

    def recording_write(path, *args, **kwargs):
        writes.append(path)
        return real_write(path, *args, **kwargs)

    monkeypatch.setattr(store.filesystem, "write", recording_write)
    return writes


def test_park_rewrites_only_written_partitions(tmp_path, monkeypatch):
    store = _parked_store(tmp_path)
    writes = _count_writes(store, monkeypatch)
    records = dict(store.records())  # a plain read-back of both
    store.park()
    assert writes == []
    assert all(part is None for part in store._partitions)
    store.put(canonical_bytes("k0"), "k0", -1)  # overlay on one file
    store.park()
    assert writes == [store._path(store.partition_of(canonical_bytes("k0")))]
    records["k0"] = -1
    assert dict(store.records()) == records
    # Writes to read-back (resident) partitions mark them too.
    store.discard(canonical_bytes("k1"))
    store.park()
    del records["k1"]
    assert dict(store.records()) == records
    store.put(canonical_bytes("k2"), "k2", -2)
    store.park()
    records["k2"] = -2
    assert dict(store.records()) == records
    store.close()


@pytest.mark.parametrize("read_back", [True, False], ids=["clean", "dirty"])
def test_put_rollback_park_reads_back_committed_states(
    tmp_path, monkeypatch, read_back
):
    """A rolled-back write leaves no trace on disk: a clean partition
    restored to its snapshot needs no rewrite, a dirty one (never
    parked since its load) is still written, and either way the parked
    files hold the committed states."""
    store = ResidentStateStore(
        "txn-park",
        num_partitions=2,
        filesystem=LocalDiskFileSystem(root=str(tmp_path / "dfs")),
    )
    committed = {f"k{i}": i for i in range(6)}
    store.load(sorted(committed.items()))
    if read_back:
        store.park()
        assert dict(store.records()) == committed
    writes = _count_writes(store, monkeypatch)
    store.begin_transaction()
    store.put(canonical_bytes("k0"), "k0", -1)
    store.discard(canonical_bytes("k1"))
    store.put(canonical_bytes("new"), "new", 99)
    store.rollback_transaction()
    store.park()
    assert len(writes) == (0 if read_back else 2)
    assert all(part is None for part in store._partitions)
    assert dict(store.records()) == committed
    store.close()


def test_rollback_after_a_park_inside_the_transaction_rewrites(tmp_path):
    """A direct :meth:`park` inside a transaction rewrites the file the
    snapshot's clean flags vouched for: after rollback the restored
    partitions must count as dirty, so the next park writes the
    committed states back."""
    store = _parked_store(tmp_path)
    committed = dict(store.records())  # both partitions read back clean
    store.begin_transaction()
    store.put(canonical_bytes("k0"), "k0", -1)
    store.park()
    store.rollback_transaction()
    store.park()
    assert dict(store.records()) == committed
    store.close()
