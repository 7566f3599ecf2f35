"""The external shuffle: sort-and-spill map outputs to disk runs.

The driver-side shuffle of :class:`~repro.mapreduce.runtime.
MapReduceRuntime` historically buffered every intermediate record in
RAM in per-partition lists.  This module reproduces Hadoop's
alternative — the *external* shuffle:

1. **accumulate** — intermediate records route to a bounded in-memory
   buffer per reduce partition;
2. **sort & spill** — when a partition's buffer exceeds the configured
   ``spill_threshold``, it is sorted by the canonical key order and
   streamed to a *run file* on disk, then cleared;
3. **merge** — at reduce time, each partition's spilled runs and its
   in-memory tail are k-way merged with :func:`heapq.merge` over the
   same canonical order, yielding the partition fully key-sorted.

Encoded records.  The shuffle operates on the runtime's *encoded
shuffle plane*: every record is a ``(key_bytes, key, value)`` triple
whose first element is the canonical key encoding computed once per run
at map time.  A record's value may be a run — the list of values one
map task emitted under one ``str`` key — which this module moves, sorts,
spills and merges as the one record it is; so ``spilled_records`` and
the buffer threshold count encoded records, not values.  Spill sorting,
run-file IO (the frame codec in :mod:`repro.mapreduce.storage.codec`),
and the k-way merge all compare those cached bytes — this module never
calls ``canonical_bytes``.

Determinism.  Every spill is a *stable* sort of a contiguous chunk of
the arrival sequence, runs are merged in spill order, and
:func:`heapq.merge` breaks ties in favor of earlier iterables — so
records with equal keys emerge in exactly their arrival order, the same
order the purely in-memory shuffle (followed by the reduce task's
stable sort) produces.  Outputs are therefore bit-identical across
spill thresholds, including ``threshold=0`` (spill every record) and
``threshold=None`` (never spill); the property tests in
``tests/mapreduce/test_storage_spill.py`` pin this down.

Metering.  Spill activity is observable through three counters
(:data:`SPILL_COUNTERS`): ``spilled_records``, ``spill_files``, and
``spilled_bytes``, incremented per job and under the global ``runtime``
group.  These counters are the *only* permitted divergence between runs
at different spill thresholds — strip them and counter totals must
match exactly.  Wall-clock spent sorting, writing, and compacting runs
accumulates in :attr:`ExternalShuffle.spill_seconds` (a timing meter,
surfaced by the runtime's ``phase_timings`` and the CLI ``--profile``
flag — never part of the bit-identical counter contract).

Run files hold length-prefixed encoded-record frames (see
``write_run_record`` in the codec module) in a directory created lazily
on first spill and removed by :meth:`ExternalShuffle.close`.

Scope.  While records are routed, at most ``spill_threshold`` of them
per partition sit in RAM (the runtime also releases each map task's
output list once routed), with the bulk of the shuffle parked in run
files.  On the ``serial`` backend, which shares the driver's memory,
the runtime hands each reduce task the lazy :meth:`merged_stream`, so
a partition is never re-materialized driver-side; the ``cluster``
backend — whose task arguments must pickle — receives the
materialized :meth:`merged_partition` list.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
import time
from operator import itemgetter
from typing import Any, Iterator, List, Optional

from ...telemetry.metrics import Counters
from ..errors import MapReduceError
from .codec import EncodedRecord, read_run_records, write_run_record

__all__ = ["ExternalShuffle", "SPILL_COUNTERS", "strip_spill_counters"]

#: Counter names metered by the external shuffle — the only counters
#: allowed to differ between runs at different spill thresholds.
SPILL_COUNTERS = ("spilled_records", "spill_files", "spilled_bytes")

#: Sort/merge key of the encoded plane: the cached canonical key bytes.
_sort_key = itemgetter(0)


def strip_spill_counters(snapshot: dict, extra: tuple = ()) -> dict:
    """Drop spill counters from a ``Counters.snapshot()`` dict.

    Used by tests asserting the cross-threshold equivalence contract:
    ``strip_spill_counters(a) == strip_spill_counters(b)`` for any two
    runs of the same job at different spill settings.  ``extra`` names
    further threshold-dependent counters to drop (the resident state
    store's ``strip_volatile_counters`` adds its parking counters).
    """
    volatile = set(SPILL_COUNTERS) | set(extra)
    cleaned = {}
    for group, names in snapshot.items():
        kept = {
            name: value
            for name, value in names.items()
            if name not in volatile
        }
        if kept:
            cleaned[group] = kept
    return cleaned


class ExternalShuffle:
    """Bounded shuffle buffers with sort-and-spill per reduce partition.

    Parameters
    ----------
    num_partitions:
        Number of reduce partitions (one buffer + run list each).
    spill_threshold:
        A partition's buffer spills once it holds *more than* this many
        records; ``0`` spills on every arrival.  (A ``None`` threshold
        means "never spill" and is handled by the runtime, which then
        bypasses this class entirely.)
    spill_dir:
        Parent directory for the run files; defaults to the system
        temporary directory.  The shuffle creates (and on
        :meth:`close` removes) its own subdirectory.
    merge_factor:
        Maximum number of run files opened simultaneously during the
        merge (Hadoop's ``io.sort.factor``).  Partitions with more runs
        are first compacted by multi-pass merging — prefix batches of
        ``merge_factor`` runs merge into a single replacement run —
        so the final k-way merge never exceeds the file-descriptor
        budget even at ``spill_threshold=0`` on large shuffles.
    """

    def __init__(
        self,
        num_partitions: int,
        spill_threshold: int,
        spill_dir: Optional[str] = None,
        merge_factor: int = 64,
    ) -> None:
        if num_partitions < 1:
            raise MapReduceError("num_partitions must be positive")
        if spill_threshold < 0:
            raise MapReduceError(
                f"spill_threshold must be >= 0, got {spill_threshold}"
            )
        if merge_factor < 2:
            raise MapReduceError(
                f"merge_factor must be >= 2, got {merge_factor}"
            )
        self.num_partitions = num_partitions
        self.spill_threshold = spill_threshold
        self.merge_factor = merge_factor
        self._spill_parent = spill_dir
        self._directory: Optional[str] = None
        self._buffers: List[List[EncodedRecord]] = [
            [] for _ in range(num_partitions)
        ]
        self._runs: List[List[str]] = [[] for _ in range(num_partitions)]
        self._merge_sequence = 0
        #: Records routed to each partition so far — lets callers test
        #: a partition for emptiness without consuming its (lazy,
        #: possibly disk-backed) merged stream.
        self.partition_records: List[int] = [0] * num_partitions
        self.spilled_records = 0
        self.spill_files = 0
        self.spilled_bytes = 0
        self.spill_seconds = 0.0

    # -- accumulate --------------------------------------------------------

    def add(self, partition: int, record: EncodedRecord) -> None:
        """Route one encoded record to its partition buffer."""
        self.partition_records[partition] += 1
        buffer = self._buffers[partition]
        buffer.append(record)
        if len(buffer) > self.spill_threshold:
            self._spill(partition)

    # -- sort & spill ------------------------------------------------------

    def _spill(self, partition: int) -> None:
        """Stable-sort a partition's buffer and stream it to a run file."""
        buffer = self._buffers[partition]
        if not buffer:
            return
        started = time.perf_counter()
        buffer.sort(key=_sort_key)  # list.sort is stable
        if self._directory is None:
            if self._spill_parent is not None:
                os.makedirs(self._spill_parent, exist_ok=True)
            self._directory = tempfile.mkdtemp(
                prefix="repro-shuffle-", dir=self._spill_parent
            )
        run_path = os.path.join(
            self._directory,
            f"part{partition:05d}-run{len(self._runs[partition]):05d}",
        )
        with open(run_path, "wb") as handle:
            for record in buffer:
                write_run_record(handle, record)
            size = handle.tell()
        self._runs[partition].append(run_path)
        self.spilled_records += len(buffer)
        self.spill_files += 1
        self.spilled_bytes += size
        self._buffers[partition] = []
        self.spill_seconds += time.perf_counter() - started

    @staticmethod
    def _read_run(run_path: str) -> Iterator[EncodedRecord]:
        """Stream encoded records back from one run file."""
        with open(run_path, "rb") as handle:
            yield from read_run_records(handle)

    # -- merge -------------------------------------------------------------

    def merged_stream(self, partition: int) -> Iterator[EncodedRecord]:
        """One partition as a lazy, fully key-sorted record stream.

        K-way merges the partition's spilled runs (in spill order) with
        its sorted in-memory tail; ``heapq.merge`` prefers earlier
        iterables on equal keys, which preserves arrival order.  When a
        partition holds more than ``merge_factor`` runs, prefix batches
        are compacted into single runs first (multi-pass merge, done
        eagerly on this call), so no merge ever opens more than
        ``merge_factor + 1`` files — batches are contiguous and the
        compacted run takes the batch's place in spill order, which
        keeps the equal-key tie-breaking identical.

        The returned iterator reads run files on demand: it is only
        valid until :meth:`close`.  Each call returns an independent
        stream.
        """
        tail = sorted(self._buffers[partition], key=_sort_key)
        runs = list(self._runs[partition])
        while len(runs) > self.merge_factor:
            batch, runs = runs[: self.merge_factor], runs[self.merge_factor :]
            runs.insert(0, self._compact_runs(batch))
        self._runs[partition] = runs
        if not runs:
            return iter(tail)
        streams = [self._read_run(path) for path in runs]
        streams.append(iter(tail))
        return heapq.merge(*streams, key=_sort_key)

    def merged_partition(self, partition: int) -> List[EncodedRecord]:
        """One partition, fully sorted, materialized as a list.

        Same contents as :meth:`merged_stream`; used when the records
        must cross a process boundary (the ``cluster`` executor
        pickles task arguments) or outlive the shuffle.
        """
        return list(self.merged_stream(partition))

    def _compact_runs(self, batch: List[str]) -> str:
        """Stream-merge a batch of runs into one replacement run file.

        The consumed run files are deleted immediately, so a multi-pass
        merge's extra disk footprint is bounded by one batch.  Merge
        passes are not metered as new spills: the spill counters report
        map-output spilling, and cross-threshold counter equality must
        not depend on the merge fan-in.  Compaction wall-clock does
        accumulate in :attr:`spill_seconds` (a timing meter only).
        """
        assert self._directory is not None  # batches imply prior spills
        started = time.perf_counter()
        merged_path = os.path.join(
            self._directory,
            f"merge{self._merge_sequence:05d}",
        )
        self._merge_sequence += 1
        streams = [self._read_run(path) for path in batch]
        with open(merged_path, "wb") as handle:
            for record in heapq.merge(*streams, key=_sort_key):
                write_run_record(handle, record)
        for path in batch:
            os.unlink(path)
        self.spill_seconds += time.perf_counter() - started
        return merged_path

    def meter(self, counters: Counters, group: str) -> None:
        """Record spill totals under ``group`` and ``runtime``."""
        for name, value in zip(
            SPILL_COUNTERS,
            (self.spilled_records, self.spill_files, self.spilled_bytes),
        ):
            if value:
                counters.increment(group, name, value)
                counters.increment("runtime", name, value)

    def close(self) -> None:
        """Delete every run file; safe to call more than once."""
        if self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._directory = None
        self._runs = [[] for _ in range(self.num_partitions)]

    def __enter__(self) -> "ExternalShuffle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExternalShuffle(partitions={self.num_partitions}, "
            f"threshold={self.spill_threshold}, "
            f"spilled={self.spilled_records})"
        )
