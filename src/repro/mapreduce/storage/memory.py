"""The in-memory filesystem backend (the original simulator store).

This is the reference implementation of the
:class:`~repro.mapreduce.storage.base.FileSystem` contract: a flat
namespace of record datasets held as Python lists.  It is the default
backend — zero IO cost, ideal for tests and small corpora — and the
semantics every other backend must match (write-once, atomic
visibility, isolated reads, prefix listing).

Record counts are ``len()`` of the stored list: ``size()`` and
``du().records`` never touch a record.  ``du().bytes`` reports
serialized sizes so spill/storage tuning done against the in-memory
backend transfers to the disk backend: the length of the dataset's
canonical JSONL encoding (pickled size for records the codec cannot
express).  That means encoding every record, so it is computed only
when ``.bytes`` is first read (pipeline ``describe()``, state parking)
and cached until the dataset changes.
"""

from __future__ import annotations

import pickle
from functools import cached_property
from typing import Dict, Iterable, List, Optional

from ..job import KeyValue
from .base import (
    DatasetStats,
    FileSystem,
    FileSystemError,
    validate_path,
    validate_record,
)
from .codec import dumps_record

__all__ = ["InMemoryFileSystem"]


class _LazyStats(DatasetStats):
    """Stats of one stored dataset; ``bytes`` is sized on first read."""

    def __init__(self, dataset: List[KeyValue]) -> None:
        # Datasets are replaced, never mutated, so holding the list
        # keeps these numbers true to the dataset they were asked of.
        object.__setattr__(self, "records", len(dataset))
        object.__setattr__(self, "_dataset", dataset)

    @cached_property
    def bytes(self) -> int:  # type: ignore[override]
        total = 0
        for key, value in self._dataset:
            try:
                total += len(dumps_record(key, value)) + 1
            except FileSystemError:
                # Not expressible as JSONL (in-memory-only record
                # types); fall back to the pickled footprint.
                total += len(pickle.dumps((key, value)))
        return total


class InMemoryFileSystem(FileSystem):
    """A flat namespace of record datasets, with HDFS-like semantics.

    * datasets are written once (no in-place mutation — jobs that need
      to update state write a new path, like real MapReduce iterations);
    * reads return copies, so downstream jobs cannot corrupt inputs;
    * ``glob``-free: a *directory* is just a path prefix, and
      :meth:`list_paths` filters by prefix.
    """

    name = "memory"

    def __init__(self) -> None:
        self._datasets: Dict[str, List[KeyValue]] = {}
        self._stats: Dict[str, DatasetStats] = {}

    def write(
        self,
        path: str,
        records: Iterable[KeyValue],
        overwrite: bool = False,
    ) -> int:
        """Store ``records`` at ``path``; returns the record count.

        Refuses to overwrite unless ``overwrite=True`` — accidentally
        clobbering a previous iteration's output is a classic pipeline
        bug this surface makes loud.  The dataset becomes visible only
        after every record has been materialized and validated, so a
        failing record iterator leaves nothing behind.
        """
        path = validate_path(path)
        if path in self._datasets and not overwrite:
            raise FileSystemError(f"path already exists: {path!r}")
        materialized = [validate_record(record) for record in records]
        self._datasets[path] = materialized
        self._stats.pop(path, None)
        return len(materialized)

    def read(self, path: str) -> List[KeyValue]:
        """Return a copy of the records at ``path``."""
        path = validate_path(path)
        try:
            return list(self._datasets[path])
        except KeyError:
            raise FileSystemError(f"no such path: {path!r}") from None

    def exists(self, path: str) -> bool:
        """Whether ``path`` holds a dataset."""
        return validate_path(path) in self._datasets

    def delete(self, path: str) -> None:
        """Remove a dataset (e.g. intermediate iteration outputs)."""
        path = validate_path(path)
        if path not in self._datasets:
            raise FileSystemError(f"no such path: {path!r}")
        del self._datasets[path]
        self._stats.pop(path, None)

    def list_paths(self, prefix: str = "/") -> List[str]:
        """All dataset paths under ``prefix``, sorted."""
        if not prefix.startswith("/"):
            raise FileSystemError(
                f"prefix must start with '/', got {prefix!r}"
            )
        return sorted(
            path for path in self._datasets if path.startswith(prefix)
        )

    def du(self, path: Optional[str] = None):
        """Record/byte stats for one dataset (or all, as a dict).

        ``bytes`` is the dataset's size in the canonical JSONL encoding
        (one line per record, newline included) — the size the disk
        backend would occupy — so the numbers stay
        meaningful across backends.  It is computed when first read,
        not here, and kept until the dataset changes.
        """
        if path is None:
            return {name: self.du(name) for name in sorted(self._datasets)}
        path = validate_path(path)
        stats = self._stats.get(path)
        if stats is None:
            if path not in self._datasets:
                raise FileSystemError(f"no such path: {path!r}")
            stats = self._stats[path] = _LazyStats(self._datasets[path])
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InMemoryFileSystem(paths={len(self._datasets)})"
