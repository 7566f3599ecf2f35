"""The filesystem contract every storage backend implements.

Real MapReduce jobs communicate through a distributed filesystem: each
job reads one or more input paths and writes an output path (§3.1:
"MapReduce assumes a distributed file system from which the map
instances retrieve the input").  :class:`FileSystem` captures that
contract — a flat namespace of named, immutable-once-closed datasets of
``(key, value)`` records — independently of where the bytes live, so
pipelines and drivers can swap the in-memory simulator store for a real
on-disk store (or, later, a sharded one) without touching job code.

The contract, shared by every implementation and relied on by
:class:`~repro.mapreduce.pipeline.Pipeline`:

* **write-once** — :meth:`~FileSystem.write` refuses to overwrite unless
  asked, because clobbering a previous iteration's output is a classic
  pipeline bug;
* **all-or-nothing visibility** — a visible dataset is always
  complete; a writer that fails before its new dataset is complete
  leaves nothing new visible, and an overwrite that fails that way
  leaves the old dataset (the disk backend guarantees this with
  rename-on-close);
* **isolation** — :meth:`~FileSystem.read` hands back data the caller
  may mutate freely without corrupting the stored dataset;
* **observability** — :meth:`~FileSystem.du` reports per-dataset record
  and byte totals, the numbers that drive spill-threshold tuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..errors import MapReduceError
from ..job import KeyValue

__all__ = [
    "DatasetStats",
    "FileSystem",
    "FileSystemError",
    "validate_path",
    "validate_record",
]


class FileSystemError(MapReduceError):
    """Raised for missing paths, overwrites, and malformed names."""


def validate_path(path: str) -> str:
    """Check a dataset path and return it unchanged.

    Paths are absolute, ``/``-separated, and free of empty, ``.``, and
    ``..`` components, so every backend (including the on-disk one,
    which maps them into a root directory) interprets them identically.
    """
    if not path or not path.startswith("/"):
        raise FileSystemError(
            f"paths must be absolute (start with '/'), got {path!r}"
        )
    if path.endswith("/"):
        raise FileSystemError(f"paths must not end with '/': {path!r}")
    for component in path[1:].split("/"):
        if component in ("", ".", ".."):
            raise FileSystemError(
                f"paths must not contain empty, '.', or '..' "
                f"components: {path!r}"
            )
    return path


@dataclass(frozen=True)
class DatasetStats:
    """``du``-style usage numbers for one dataset."""

    records: int
    bytes: int


class FileSystem:
    """Abstract storage backend for inter-job datasets.

    Subclasses implement the five primitive operations (:meth:`write`,
    :meth:`read`, :meth:`exists`, :meth:`delete`, :meth:`list_paths`)
    plus :meth:`du`; the convenience methods are shared.
    """

    #: Canonical backend name, e.g. ``"memory"`` or ``"disk"``.
    name: str = "abstract"

    # -- primitives --------------------------------------------------------

    def write(
        self,
        path: str,
        records: Iterable[KeyValue],
        overwrite: bool = False,
    ) -> int:
        """Store ``records`` at ``path``; returns the record count.

        Must be atomic: a visible dataset is always complete, and a
        failure before the new dataset is complete leaves nothing new
        visible at ``path`` (a previously existing dataset stays).  An
        overwrite may leave ``path`` reading as absent for an instant
        before the new dataset appears.  Refuses to overwrite unless
        ``overwrite=True``.
        """
        raise NotImplementedError

    def read(self, path: str) -> List[KeyValue]:
        """Return the records at ``path`` (caller-owned, safe to mutate)."""
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        """Whether ``path`` holds a dataset."""
        raise NotImplementedError

    def delete(self, path: str) -> None:
        """Remove a dataset (e.g. intermediate iteration outputs)."""
        raise NotImplementedError

    def list_paths(self, prefix: str = "/") -> List[str]:
        """All dataset paths under ``prefix``, sorted."""
        raise NotImplementedError

    def du(self, path: Optional[str] = None):
        """Per-dataset usage statistics.

        With a ``path``, returns that dataset's :class:`DatasetStats`;
        without, returns ``{path: DatasetStats}`` for every dataset.
        Byte totals are storage-defined: actual file sizes for the disk
        backend, serialized-size estimates for the in-memory one (which
        computes them only when ``.bytes`` is read).  A caller that has
        just written the dataset already holds its record count —
        :meth:`write` returns it — and should not come here for it.
        """
        raise NotImplementedError

    # -- shared conveniences ----------------------------------------------

    def read_many(self, paths: Iterable[str]) -> List[KeyValue]:
        """Concatenate several datasets (multi-input jobs)."""
        records: List[KeyValue] = []
        for path in paths:
            records.extend(self.read(path))
        return records

    def size(self, path: str) -> int:
        """Number of records stored at ``path``."""
        return self.du(path).records

    def __contains__(self, path: str) -> bool:
        return self.exists(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def validate_record(record: KeyValue) -> KeyValue:
    """Shared record-shape check used by every backend's writer."""
    if not isinstance(record, tuple) or len(record) != 2:
        raise FileSystemError(
            f"records must be (key, value) pairs, got {record!r}"
        )
    return record
