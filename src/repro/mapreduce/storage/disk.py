"""The on-disk filesystem backend: out-of-core inter-job datasets.

:class:`LocalDiskFileSystem` persists each dataset as a JSONL record
file under a root directory, mapping the dataset path ``/a/b`` to
``<root>/a/b.jsonl``.  It implements the same write-once contract as the
in-memory backend, with one additional guarantee that matters on real
storage:

**Atomic visibility (rename-on-close).**  Writers stream records into a
temporary file *in the destination directory* and only rename it onto
the final name after the last record is written and the file is
closed.  The rename is atomic on POSIX, so a job that crashes
mid-write — a failing map task, an exception in a record iterator, a
killed process — never leaves a visible partial dataset: readers see
either a complete dataset or ``no such path``, exactly like HDFS's
invisible ``_temporary`` output directories.  The orphaned temp file is
removed on the error path (and is ignored by ``exists``/``list_paths``
even if the process dies before cleanup).

**Scratch data is never forced to disk.**  Inter-job datasets are
rewritten every iteration and thrown away after the run, so nothing
here asks the kernel to persist them — yet two common write idioms do
so implicitly.  ext4's default ``auto_da_alloc`` heuristic forces a
file's delayed-allocation blocks out when a file is truncated by an
``open(..., "w")`` and then closed, and when a file is renamed over an
existing name; freeing those blocks later (the next overwrite or
delete) then blocks the caller for tens of milliseconds.  So a write
streams through the descriptor ``mkstemp`` returned (no reopening, no
truncation), and an overwrite unlinks the old dataset only *after* the
new file is completely written and closed, then renames onto the now
free name.  A visible dataset is still always complete; for the
instant between that unlink and the rename the path reads as
``no such path``, and any failure before the rename leaves the old
dataset untouched.

Records are serialized with the canonical JSONL codec
(:mod:`repro.mapreduce.storage.codec`), which round-trips every
supported key/value type exactly — the basis of the storage contract
that pipeline outputs are bit-identical across the memory and disk
backends.
"""

from __future__ import annotations

import os
import tempfile
from itertools import filterfalse, islice
from typing import Dict, Iterable, List, Optional, Tuple

from ..job import KeyValue
from .base import (
    DatasetStats,
    FileSystem,
    FileSystemError,
    validate_path,
    validate_record,
)
from .codec import dumps_record, loads_record

__all__ = ["LocalDiskFileSystem"]

_SUFFIX = ".jsonl"
_TMP_MARKER = ".inprogress-"
#: Records serialized per ``handle.write`` call.
_WRITE_BATCH = 4096
#: The lines ``read`` and ``du`` skip, so that their record counts
#: agree: blank or whitespace-only ones.  The writer never emits one,
#: but a hand-made file may hold them.
_is_blank = str.isspace


class LocalDiskFileSystem(FileSystem):
    """Write-once JSONL datasets under a local root directory.

    Parameters
    ----------
    root:
        Directory holding the datasets; created if missing.  When
        omitted, a fresh temporary directory is created (handy for CLI
        runs and tests; it is *not* auto-deleted, so intermediates stay
        inspectable after the process exits).
    """

    name = "disk"

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = tempfile.mkdtemp(prefix="repro-dfs-")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        # Record counts learned from our own writes (or earlier scans),
        # keyed by the backing file's (size, mtime_ns) signature so a
        # rewrite by another filesystem instance or process invalidates
        # the cache; unknown datasets are counted on demand.
        self._counts: Dict[str, Tuple[Tuple[int, int], int]] = {}

    # -- path mapping ------------------------------------------------------

    def _target(self, path: str) -> str:
        """The file backing ``path``, whether or not it exists."""
        return os.path.join(self.root, *path[1:].split("/")) + _SUFFIX

    def _file_for(self, path: str) -> Optional[str]:
        """The existing file backing ``path``, or ``None``."""
        target = self._target(path)
        return target if os.path.isfile(target) else None

    def _dataset_name(self, file_path: str) -> Optional[str]:
        """Map a file under the root back to its dataset path."""
        if not file_path.endswith(_SUFFIX):
            return None
        relative = os.path.relpath(file_path[: -len(_SUFFIX)], self.root)
        return "/" + relative.replace(os.sep, "/")

    @staticmethod
    def _signature(file_path: str) -> Tuple[int, int]:
        """Freshness signature of a backing file for the count cache."""
        status = os.stat(file_path)
        return status.st_size, status.st_mtime_ns

    # -- primitives --------------------------------------------------------

    def write(
        self,
        path: str,
        records: Iterable[KeyValue],
        overwrite: bool = False,
    ) -> int:
        """Stream ``records`` to disk; visible only after the last one.

        The records go into a temporary file next to the destination,
        written through the descriptor ``mkstemp`` returned, so the
        final rename stays within one filesystem and is atomic.  Any
        failure before that rename — serialization, a failing iterator,
        an invalid record — removes the temporary file and leaves a
        previously existing dataset untouched.  An overwrite unlinks the
        old dataset only once the new file is complete and closed, then
        renames onto the free name: neither step makes ext4 force the
        scratch data to disk (see the module docstring).
        """
        path = validate_path(path)
        target = self._target(path)
        if not overwrite and os.path.isfile(target):
            raise FileSystemError(f"path already exists: {path!r}")
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            dir=directory,
            prefix=os.path.basename(target) + _TMP_MARKER,
        )
        handle = None
        count = 0
        try:
            handle = os.fdopen(descriptor, "w", encoding="utf-8")
            with handle:
                stream = iter(records)
                while True:
                    lines = [
                        dumps_record(*validate_record(record))
                        for record in islice(stream, _WRITE_BATCH)
                    ]
                    if not lines:
                        break
                    handle.write("\n".join(lines) + "\n")
                    count += len(lines)
        except BaseException:
            if handle is None:
                # fdopen failed, so the descriptor may still be open.
                try:
                    os.close(descriptor)
                except OSError:  # pragma: no cover - fdopen closed it
                    pass
            try:
                os.unlink(temp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        if overwrite:
            try:
                os.unlink(target)
            except FileNotFoundError:
                pass
        os.replace(temp_path, target)
        self._counts[path] = (self._signature(target), count)
        return count

    def read(self, path: str) -> List[KeyValue]:
        """Parse and return the records at ``path``."""
        path = validate_path(path)
        file_path = self._file_for(path)
        if file_path is None:
            raise FileSystemError(f"no such path: {path!r}")
        signature = self._signature(file_path)
        with open(file_path, encoding="utf-8") as handle:
            records = [
                loads_record(line)
                for line in filterfalse(_is_blank, handle)
            ]
        self._counts[path] = (signature, len(records))
        return records

    def exists(self, path: str) -> bool:
        """Whether ``path`` holds a (completely written) dataset."""
        return self._file_for(validate_path(path)) is not None

    def delete(self, path: str) -> None:
        """Remove a dataset's backing file."""
        path = validate_path(path)
        file_path = self._file_for(path)
        if file_path is None:
            raise FileSystemError(f"no such path: {path!r}")
        os.unlink(file_path)
        self._counts.pop(path, None)

    def list_paths(self, prefix: str = "/") -> List[str]:
        """All dataset paths under ``prefix``, sorted.

        In-progress temp files are invisible: only completely written
        (renamed) datasets are listed.
        """
        if not prefix.startswith("/"):
            raise FileSystemError(
                f"prefix must start with '/', got {prefix!r}"
            )
        paths = []
        for directory, _, files in os.walk(self.root):
            for file_name in files:
                if _TMP_MARKER in file_name:
                    continue
                dataset = self._dataset_name(
                    os.path.join(directory, file_name)
                )
                if dataset is not None and dataset.startswith(prefix):
                    paths.append(dataset)
        return sorted(paths)

    def du(self, path: Optional[str] = None):
        """Record/byte stats; bytes are actual on-disk file sizes."""
        if path is None:
            return {name: self.du(name) for name in self.list_paths()}
        path = validate_path(path)
        file_path = self._file_for(path)
        if file_path is None:
            raise FileSystemError(f"no such path: {path!r}")
        signature = self._signature(file_path)
        cached = self._counts.get(path)
        if cached is not None and cached[0] == signature:
            count = cached[1]
        else:
            with open(file_path, encoding="utf-8") as handle:
                count = sum(1 for _ in filterfalse(_is_blank, handle))
            self._counts[path] = (signature, count)
        return DatasetStats(records=count, bytes=signature[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalDiskFileSystem(root={self.root!r})"
