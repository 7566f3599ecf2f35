"""The resident state store of the delta iteration plane.

Every algorithm in the paper is iterative, and until this layer existed
each round re-shipped the *entire* residual graph through
map/shuffle/reduce — node records were emitted as ``("self", state)``
messages, canonically encoded, partitioned, sorted, and re-emitted from
the reduce, every single round, even though most nodes are quiescent
after the first few iterations ("Taming the zoo" calls this
full-state-per-iteration pattern the dominant cost of iterative
algorithms on Hadoop).

A :class:`ResidentStateStore` keeps one ``key -> state`` record per
node *resident on the reduce side* instead:

* records are partitioned by the **same** hash of the canonical key
  bytes the shuffle uses (``fast_hash_bytes(key_bytes) %
  num_partitions``), so a reduce task's state partition
  is exactly the set of keys its shuffle partition can address — the
  join is local and compares cached key bytes, never re-encoding;
* between rounds the store can *park* its partitions on the runtime's
  pluggable :class:`~repro.mapreduce.storage.FileSystem` (the same
  ``--fs`` knob that backs inter-job datasets), so resident state
  spills out-of-core exactly like the external shuffle does;
* each round, the reduce returns only *changed* records — the
  **deltas** — which the runtime applies to the store and hands back as
  the next round's delta stream; convergence is simply "the delta
  stream is empty".

See :meth:`repro.mapreduce.runtime.MapReduceRuntime.run_stateful` for
the two execution modes (resident *scan* rounds and *frontier* delta
rounds) and the job-side hooks.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..telemetry.metrics import Counters
from .errors import JobValidationError
from .faults import FAULT_COUNTER_GROUP
from .job import KeyValue
from .partitioner import canonical_bytes, fast_hash_bytes
from .storage import FileSystem, InMemoryFileSystem, strip_spill_counters

__all__ = [
    "Quiet",
    "ResidentStateStore",
    "Retired",
    "STATE_POINT_COUNTERS",
    "STATE_SPILL_COUNTERS",
    "strip_volatile_counters",
]

#: Counter names metered by the resident state store when it parks
#: partitions out-of-core.  Like the external shuffle's spill counters,
#: these are the only counters allowed to differ between runs at
#: different spill thresholds.
STATE_SPILL_COUNTERS = (
    "state.spilled_records",
    "state.spill_files",
    "state.spilled_bytes",
)

#: Counters metered by the single-key fast path on *parked* partitions:
#: ``point_applies`` counts :meth:`ResidentStateStore.put`/``discard``
#: calls absorbed by the overlay without unparking, ``point_reads``
#: counts :meth:`ResidentStateStore.get` lookups served straight from a
#: parked file.  Whether a partition is parked depends on the spill
#: threshold, so these join the spill counters as volatile.
STATE_POINT_COUNTERS = (
    "state.point_applies",
    "state.point_reads",
)


def strip_volatile_counters(snapshot: dict) -> dict:
    """Drop shuffle-spill, state-spill, point-access, and fault counters.

    The cross-cell equivalence contract of the matching test matrix:
    counter totals are bit-identical across executors, filesystems, and
    spill thresholds once the threshold-dependent counters are
    stripped.  The ``faults`` group
    (injection and recovery meters) is dropped wholesale for the same
    reason: a chaos run must agree with the fault-free run on
    everything *except* the record of the faults themselves.

    Accepts either a plain :class:`Counters` snapshot or a full
    :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot (the
    ``counters`` / ``gauges`` / ``histograms`` shape).  For the
    latter, the counter section is stripped as before, the gauge
    section is dropped wholesale (gauges are wall-clock meters —
    and, on the cluster backend, scheduling meters like per-worker
    task tallies and respawn counts, which depend on dispatch timing
    — always volatile), and histograms flagged ``volatile`` (per-job timing
    distributions) are dropped while the deterministic record-count
    histograms are kept — so the bit-identical property tests keep
    passing with timing metrics enabled, and the contract extends to
    histogram bucket totals.
    """
    if _is_registry_snapshot(snapshot):
        histograms = {}
        for group, names in snapshot.get("histograms", {}).items():
            kept = {
                name: hist
                for name, hist in names.items()
                if not hist.get("volatile")
            }
            if kept:
                histograms[group] = kept
        return {
            "counters": strip_volatile_counters(
                snapshot.get("counters", {})
            ),
            "histograms": histograms,
        }
    stripped = strip_spill_counters(
        snapshot, extra=STATE_SPILL_COUNTERS + STATE_POINT_COUNTERS
    )
    stripped.pop(FAULT_COUNTER_GROUP, None)
    return stripped


def _is_registry_snapshot(snapshot: dict) -> bool:
    """A registry snapshot has the three fixed sections; a counter
    snapshot maps group names to ``name -> int`` dicts."""
    return set(snapshot) <= {"counters", "gauges", "histograms"} and (
        "gauges" in snapshot or "histograms" in snapshot
    )


@dataclass(frozen=True)
class Quiet:
    """A state update that must be stored but is *not* a delta.

    Returned from ``reduce_state`` when a record's bookkeeping changed
    without changing anything its peers can observe — GreedyMR's inbox
    is the canonical case: a node must remember the proposals it
    received, but since its own outgoing messages are a function of its
    capacity and adjacency alone, an inbox-only change obliges it to
    nothing next round.  The runtime stores ``state`` silently: no
    delta is emitted, the record counts as quiescent, and a round whose
    only updates are quiet ones can end the iteration.
    """

    state: Any


@dataclass(frozen=True)
class Retired:
    """The final delta of a record leaving the resident store.

    Returned from :meth:`~repro.mapreduce.job.MapReduceJob.
    reduce_state` to delete the key.  ``notify`` optionally names peer
    keys that must observe the departure: the runtime prunes peers that
    are no longer resident themselves and, if any survive, re-emits
    ``(key, Retired(notify))`` into the next round's delta stream so
    the job's ``map_delta`` can send death notices.  (Pruning is what
    keeps round counts identical to the paper's formulation, where a
    dead node simply stops sending: a round whose only pending work is
    notifying already-dead peers never runs.)
    """

    notify: Tuple[str, ...] = ()


#: One resident entry: the original key and its current state value.
StateEntry = Tuple[Any, Any]


class ResidentStateStore:
    """Per-partition resident state for delta-driven iterative jobs.

    Parameters
    ----------
    name:
        Namespace for parked datasets (``/state/<name>/part-NNNNN``)
        and the counter group for spill metering.
    num_partitions:
        Must equal the owning runtime's ``num_reduce_tasks`` — the
        whole point is that partition ``i`` of the store joins against
        shuffle partition ``i`` without data movement.
    filesystem:
        Where partitions park when the store exceeds
        ``spill_threshold`` records; defaults to a private in-memory
        filesystem.  States are pickled into ``bytes`` payloads, so any
        picklable state value survives the JSONL disk codec.
    spill_threshold:
        Total resident records above which :meth:`maybe_park` offloads
        every partition to the filesystem between rounds.  ``None``
        (default) keeps the store in memory.
    counters:
        Optional shared :class:`Counters` for the spill metering
        (:data:`STATE_SPILL_COUNTERS`).
    """

    def __init__(
        self,
        name: str,
        num_partitions: int,
        filesystem: Optional[FileSystem] = None,
        spill_threshold: Optional[int] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        if num_partitions < 1:
            raise JobValidationError(
                "state store needs at least one partition"
            )
        self.name = name
        self.num_partitions = num_partitions
        self.filesystem = filesystem or InMemoryFileSystem()
        self.spill_threshold = spill_threshold
        self.counters = counters
        self._partitions: List[Optional[Dict[bytes, StateEntry]]] = [
            {} for _ in range(num_partitions)
        ]
        #: Resident key bytes per partition, kept in memory even while
        #: the values are parked — membership tests never touch disk.
        self._keys: List[Set[bytes]] = [
            set() for _ in range(num_partitions)
        ]
        #: Pending single-key edits against *parked* partitions:
        #: ``key_bytes -> entry`` (``None`` = deletion tombstone).
        #: Invariant: a partition's overlay is non-empty only while
        #: ``_partitions[index] is None``; loading the partition folds
        #: the overlay in and clears it.
        self._overlay: List[Dict[bytes, Optional[StateEntry]]] = [
            {} for _ in range(num_partitions)
        ]
        #: Per-partition "written since it last matched its parked
        #: file" flag (no file counts as an empty partition): set by
        #: :meth:`load`, :meth:`put`, :meth:`discard` and an overlay
        #: fold, left clear by a plain read-back.  :meth:`park` drops
        #: a clean partition without rewriting its file.
        self._dirty: List[bool] = [False] * num_partitions
        #: Open transaction snapshot (see :meth:`begin_transaction`),
        #: or ``None``.
        self._txn: Optional[Tuple[Any, Any, Any, List[bool]]] = None
        self._park_deferred = False

    # -- transactions ------------------------------------------------------

    def begin_transaction(self) -> None:
        """Snapshot the store so a failure can roll it back.

        The snapshot is *shallow*: the partition dicts, key sets, and
        overlays are copied, the :data:`StateEntry` values are aliased.
        That is sound because every producer of entries treats them as
        immutable — ``reduce_state`` implementations return fresh state
        instances rather than mutating the stored ones (the
        statelessness contract the speculative check enforces) — so an
        aliased entry can never be changed under the snapshot, only
        replaced.  Cost is O(resident keys), independent of state size.

        While a transaction is open, :meth:`maybe_park` is deferred:
        parked *files* are never rewritten mid-transaction, so the
        on-disk image always reflects the last committed state and
        rollback is pure in-memory restoration.  The deferred park (if
        any) runs at :meth:`commit_transaction`.  The dirty flags are
        snapshotted too: against an unchanged file image, a partition
        restored to its snapshot is exactly as clean as it was then.
        """
        if self._txn is not None:
            raise JobValidationError(
                f"store {self.name!r} already has an open transaction"
            )
        self._txn = (
            [
                dict(part) if part is not None else None
                for part in self._partitions
            ],
            [set(keys) for keys in self._keys],
            [dict(overlay) for overlay in self._overlay],
            list(self._dirty),
        )
        self._park_deferred = False

    def commit_transaction(self) -> None:
        """Discard the rollback snapshot and run any deferred park."""
        if self._txn is None:
            raise JobValidationError(
                f"store {self.name!r} has no open transaction"
            )
        self._txn = None
        if self._park_deferred:
            self._park_deferred = False
            self.maybe_park()

    def rollback_transaction(self) -> None:
        """Restore the store to its :meth:`begin_transaction` state."""
        if self._txn is None:
            raise JobValidationError(
                f"store {self.name!r} has no open transaction"
            )
        partitions, keys, overlay, dirty = self._txn
        self._partitions = partitions
        self._keys = keys
        self._overlay = overlay
        self._dirty = dirty
        self._txn = None
        self._park_deferred = False

    # -- addressing --------------------------------------------------------

    def _path(self, index: int) -> str:
        return f"/state/{self.name}/part-{index:05d}"

    def partition_of(self, key_bytes: bytes) -> int:
        """The partition owning ``key_bytes`` (the shuffle's routing)."""
        return fast_hash_bytes(key_bytes) % self.num_partitions

    # -- loading and access ------------------------------------------------

    def load(self, records: Any) -> int:
        """Bulk-insert initial ``(key, value)`` records; returns count."""
        count = 0
        for key, value in records:
            key_bytes = canonical_bytes(key)
            index = self.partition_of(key_bytes)
            self.partition(index)[key_bytes] = (key, value)
            self._keys[index].add(key_bytes)
            self._dirty[index] = True
            count += 1
        return count

    def partition(self, index: int) -> Dict[bytes, StateEntry]:
        """Partition ``index`` as a ``key_bytes -> (key, state)`` dict.

        A parked partition is read back from the filesystem (and stays
        in memory until the next :meth:`maybe_park`).  Reduce tasks
        receive this dict read-only; all mutation goes through
        :meth:`put` / :meth:`discard`.
        """
        loaded = self._partitions[index]
        if loaded is None:
            path = self._path(index)
            loaded = {}
            if self.filesystem.exists(path):
                for key_bytes, payload in self.filesystem.read(path):
                    loaded[key_bytes] = pickle.loads(payload)
            overlay = self._overlay[index]
            # A plain read-back matches the file; a folded overlay
            # does not.
            self._dirty[index] = bool(overlay)
            if overlay:
                for key_bytes, entry in overlay.items():
                    if entry is None:
                        loaded.pop(key_bytes, None)
                    else:
                        loaded[key_bytes] = entry
                overlay.clear()
            self._partitions[index] = loaded
        return loaded

    def put(self, key_bytes: bytes, key: Any, value: Any) -> None:
        """Insert or replace the state for one key.

        On a *parked* partition the write lands in the partition's
        overlay — a per-event admission never reloads the whole parked
        file to touch one key (metered as ``state.point_applies``).
        """
        index = self.partition_of(key_bytes)
        part = self._partitions[index]
        if part is None:
            self._overlay[index][key_bytes] = (key, value)
            self._meter_point("state.point_applies")
        else:
            part[key_bytes] = (key, value)
            self._dirty[index] = True
        self._keys[index].add(key_bytes)

    def discard(self, key_bytes: bytes) -> None:
        """Remove one key (no-op when absent).

        Deleting from a parked partition writes an overlay tombstone
        instead of unparking (metered as ``state.point_applies``).
        """
        index = self.partition_of(key_bytes)
        if key_bytes not in self._keys[index]:
            return
        part = self._partitions[index]
        if part is None:
            self._overlay[index][key_bytes] = None
            self._meter_point("state.point_applies")
        else:
            part.pop(key_bytes, None)
            self._dirty[index] = True
        self._keys[index].discard(key_bytes)

    def get(self, key: Any, default: Any = None) -> Any:
        """The state of one key, or ``default`` when absent.

        A point read: a miss is answered from the in-memory key index,
        a resident partition is probed directly, and a parked partition
        is *scanned without unparking* — the partition stays on disk
        (metered as ``state.point_reads``).
        """
        key_bytes = canonical_bytes(key)
        index = self.partition_of(key_bytes)
        if key_bytes not in self._keys[index]:
            return default
        part = self._partitions[index]
        if part is not None:
            return part[key_bytes][1]
        pending = self._overlay[index].get(key_bytes)
        if pending is not None:
            return pending[1]
        self._meter_point("state.point_reads")
        path = self._path(index)
        if self.filesystem.exists(path):
            for stored_bytes, payload in self.filesystem.read(path):
                if stored_bytes == key_bytes:
                    return pickle.loads(payload)[1]
        return default

    def _meter_point(self, name: str) -> None:
        if self.counters is not None:
            self.counters.increment(self.name, name)
            self.counters.increment("runtime", name)

    def contains(self, key: Any) -> bool:
        """Whether ``key`` is resident (checked against the in-memory
        key index — never loads a parked partition)."""
        key_bytes = canonical_bytes(key)
        return key_bytes in self._keys[self.partition_of(key_bytes)]

    def __contains__(self, key: Any) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return sum(len(keys) for keys in self._keys)

    def records(self) -> Iterator[KeyValue]:
        """Every resident ``(key, state)`` in deterministic order.

        Partition-major, canonical-byte-sorted within each partition —
        the same order the reduce side visits keys, so scan-mode map
        splits are reproducible across runs and backends.
        """
        for index in range(self.num_partitions):
            part = self.partition(index)
            for key_bytes in sorted(part):
                yield part[key_bytes]

    # -- out-of-core parking -----------------------------------------------

    def maybe_park(self) -> None:
        """Park every partition on the filesystem if over threshold.

        Called by the runtime after each stateful round; bounds the
        *between-round* memory footprint (during a round the active
        partitions are resident, mirroring the external shuffle's
        correctness-first semantics).
        """
        if self._txn is not None:
            # Mid-transaction parks are deferred to commit so the
            # on-disk image keeps the last committed state (rollback
            # then never needs to touch the filesystem).
            self._park_deferred = True
            return
        if self.spill_threshold is None:
            return
        if len(self) <= self.spill_threshold:
            return
        self.park()

    def park(self) -> None:
        """Unconditionally park every in-memory partition.

        A written (dirty) partition is written out and dropped.  A
        clean one — read back and not written since — already matches
        its file (or has none, when empty), so it is dropped without a
        write.
        """
        spilled_records = 0
        spill_files = 0
        spilled_bytes = 0
        for index in range(self.num_partitions):
            part = self._partitions[index]
            if part is None:
                if not self._overlay[index]:
                    continue  # already parked and not re-loaded
                # Pending single-key edits: fold them into the parked
                # file (the one unavoidable full-partition pass, paid
                # once per park instead of once per edit).
                part = self.partition(index)
            if not self._dirty[index]:
                if part:
                    self._partitions[index] = None
                continue
            if self._txn is not None:
                # The file image changes under the open transaction:
                # no snapshot flag can vouch for it any more.
                self._txn[3][:] = [True] * self.num_partitions
            self._dirty[index] = False
            path = self._path(index)
            if not part:
                if self.filesystem.exists(path):
                    self.filesystem.delete(path)
                self._partitions[index] = {}
                continue
            rows = [
                (key_bytes, pickle.dumps(entry, pickle.HIGHEST_PROTOCOL))
                for key_bytes, entry in sorted(part.items())
            ]
            self.filesystem.write(path, rows, overwrite=True)
            spilled_records += len(rows)
            spill_files += 1
            spilled_bytes += self.filesystem.du(path).bytes
            self._partitions[index] = None
        if self.counters is not None and spill_files:
            for name, value in zip(
                STATE_SPILL_COUNTERS,
                (spilled_records, spill_files, spilled_bytes),
            ):
                self.counters.increment(self.name, name, value)
                self.counters.increment("runtime", name, value)

    def close(self) -> None:
        """Drop all state and delete any parked datasets."""
        for index in range(self.num_partitions):
            self._partitions[index] = {}
            self._keys[index].clear()
            self._overlay[index].clear()
            self._dirty[index] = False
            path = self._path(index)
            if self.filesystem.exists(path):
                self.filesystem.delete(path)

    def __enter__(self) -> "ResidentStateStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResidentStateStore(name={self.name!r}, "
            f"partitions={self.num_partitions}, records={len(self)})"
        )
