"""Pluggable storage subsystem for the MapReduce simulator.

The executors make *compute* pluggable (``backend="serial" |
"cluster"``); this package does the same for
*storage*, the other half of the runtime's execution model.  It provides:

* the :class:`~repro.mapreduce.storage.base.FileSystem` contract for
  inter-job datasets, with two implementations —
  :class:`~repro.mapreduce.storage.memory.InMemoryFileSystem` (the
  default simulator store) and
  :class:`~repro.mapreduce.storage.disk.LocalDiskFileSystem`
  (out-of-core JSONL files with atomic rename-on-close);
* the :class:`~repro.mapreduce.storage.shuffle.ExternalShuffle` —
  bounded map-output buffers that sort-and-spill to disk runs and
  k-way merge at reduce time, metering ``spilled_records`` /
  ``spill_files`` / ``spilled_bytes``;
* the canonical JSONL record codec and the TSV corpus-file helpers
  shared by the CLI and tests.

Select a backend with :func:`resolve_filesystem` (names in
:data:`FILESYSTEM_BACKENDS`), ``MapReduceRuntime(storage=...)``, or
the CLI's ``--fs {memory,disk}``; a
:class:`~repro.mapreduce.pipeline.Pipeline` uses its runtime's
filesystem.

The hard contract (property-tested): job outputs, ``job_log``, and
counter totals — minus the spill counters — are **bit-identical**
across filesystems, spill thresholds, and execution backends.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from .base import (
    DatasetStats,
    FileSystem,
    FileSystemError,
    validate_path,
    validate_record,
)
from .codec import dumps_record, loads_record
from .disk import LocalDiskFileSystem
from .memory import InMemoryFileSystem
from .shuffle import ExternalShuffle, SPILL_COUNTERS, strip_spill_counters
from .tsvio import read_scalars, read_vectors, write_scalars, write_vectors

__all__ = [
    "DatasetStats",
    "ExternalShuffle",
    "FILESYSTEM_BACKENDS",
    "FileSystem",
    "FileSystemError",
    "InMemoryFileSystem",
    "LocalDiskFileSystem",
    "SPILL_COUNTERS",
    "dumps_record",
    "loads_record",
    "read_scalars",
    "read_vectors",
    "resolve_filesystem",
    "strip_spill_counters",
    "validate_path",
    "validate_record",
    "write_scalars",
    "write_vectors",
]

#: The storage backend names accepted by :func:`resolve_filesystem`
#: (and therefore by ``MapReduceRuntime(storage=...)`` and the CLI).
FILESYSTEM_BACKENDS = ("memory", "disk")


def resolve_filesystem(
    storage: Union[str, FileSystem, None],
    root: Optional[str] = None,
) -> FileSystem:
    """Turn a backend name (or a :class:`FileSystem`) into a filesystem.

    ``None`` selects the in-memory backend.  ``root`` applies to the
    ``"disk"`` backend only (``root=None`` creates a fresh temporary
    directory).  Any name outside :data:`FILESYSTEM_BACKENDS` raises
    :class:`FileSystemError` listing them.
    """
    if isinstance(storage, FileSystem):
        return storage
    if storage is None or storage == "memory":
        return InMemoryFileSystem()
    if storage == "disk":
        return LocalDiskFileSystem(root=root)
    raise FileSystemError(
        f"unknown storage backend {storage!r}; "
        f"known backends: {', '.join(FILESYSTEM_BACKENDS)}"
    )
