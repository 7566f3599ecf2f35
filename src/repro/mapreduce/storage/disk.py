"""The on-disk filesystem backend: out-of-core inter-job datasets.

:class:`LocalDiskFileSystem` persists each dataset as a JSONL record
file (optionally gzip-compressed) under a root directory, mapping the
dataset path ``/a/b`` to ``<root>/a/b.jsonl`` (``.jsonl.gz`` when
compressed).  It implements the same write-once contract as the
in-memory backend, with one additional guarantee that matters on real
storage:

**Atomic visibility (rename-on-close).**  Writers stream records into a
temporary file *in the destination directory* and only ``os.replace``
it onto the final name after the last record is written and the file is
closed.  ``os.replace`` is atomic on POSIX, so a job that crashes
mid-write — a failing map task, an exception in a record iterator, a
killed process — never leaves a visible partial dataset: readers see
either the complete dataset or ``no such path``, exactly like HDFS's
invisible ``_temporary`` output directories.  The orphaned temp file is
removed on the error path (and is ignored by ``exists``/``list_paths``
even if the process dies before cleanup).

Records are serialized with the canonical JSONL codec
(:mod:`repro.mapreduce.storage.codec`), which round-trips every
supported key/value type exactly — the basis of the storage contract
that pipeline outputs are bit-identical across the memory and disk
backends.
"""

from __future__ import annotations

import gzip
import os
import tempfile
from itertools import islice
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
_SUFFIX_GZ = ".jsonl.gz"
_TMP_MARKER = ".inprogress-"
#: Records serialized per ``handle.write`` call.
_WRITE_BATCH = 4096


class LocalDiskFileSystem(FileSystem):
    """Write-once JSONL datasets under a local root directory.

    Parameters
    ----------
    root:
        Directory holding the datasets; created if missing.  When
        omitted, a fresh temporary directory is created (handy for CLI
        runs and tests; it is *not* auto-deleted, so intermediates stay
        inspectable after the process exits).
    compress:
        When ``True``, datasets are written gzip-compressed (suffix
        ``.jsonl.gz``).  Readers always accept both representations, so
        a root may mix compressed and plain datasets.
    """

    name = "disk"

    def __init__(
        self, root: Optional[str] = None, compress: bool = False
    ) -> None:
        if root is None:
            root = tempfile.mkdtemp(prefix="repro-dfs-")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.compress = compress
        # Record counts learned from our own writes (or earlier scans),
        # keyed by the backing file's (size, mtime_ns) signature so a
        # rewrite by another filesystem instance or process invalidates
        # the cache; unknown datasets are counted on demand.
        self._counts: Dict[str, Tuple[Tuple[int, int], int]] = {}

    # -- path mapping ------------------------------------------------------

    def _candidates(self, path: str) -> Tuple[str, str]:
        """The two potential files backing ``path`` (plain, gzip)."""
        relative = path[1:]
        base = os.path.join(self.root, *relative.split("/"))
        return base + _SUFFIX, base + _SUFFIX_GZ

    def _file_for(self, path: str) -> Optional[str]:
        """The existing file backing ``path``, or ``None``.

        If both the plain and gzip representation exist — possible only
        when a compression-switching overwrite crashed between its
        ``os.replace`` and the stale twin's unlink — the newer file
        wins: the replace is the commit point, so the freshly renamed
        dataset must shadow the stale one.
        """
        existing = [
            candidate
            for candidate in self._candidates(path)
            if os.path.isfile(candidate)
        ]
        if not existing:
            return None
        if len(existing) == 1:
            return existing[0]
        return max(existing, key=lambda name: os.stat(name).st_mtime_ns)

    def _dataset_name(self, file_path: str) -> Optional[str]:
        """Map a file under the root back to its dataset path."""
        for suffix in (_SUFFIX_GZ, _SUFFIX):  # longest suffix first
            if file_path.endswith(suffix):
                relative = os.path.relpath(
                    file_path[: -len(suffix)], self.root
                )
                return "/" + relative.replace(os.sep, "/")
        return None

    @staticmethod
    def _signature(file_path: str) -> Tuple[int, int]:
        """Freshness signature of a backing file for the count cache."""
        status = os.stat(file_path)
        return status.st_size, status.st_mtime_ns

    @staticmethod
    def _open(file_path: str, mode: str):
        if file_path.endswith(_SUFFIX_GZ):
            return gzip.open(file_path, mode + "t", encoding="utf-8")
        return open(file_path, mode, encoding="utf-8")

    # -- primitives --------------------------------------------------------

    def write(
        self,
        path: str,
        records: Iterable[KeyValue],
        overwrite: bool = False,
    ) -> int:
        """Stream ``records`` to disk; visible only after the last one.

        The temporary file lives next to the destination so the final
        ``os.replace`` stays within one filesystem and is atomic; any
        failure while serializing removes it, leaving a previously
        existing dataset (if any) untouched.
        """
        path = validate_path(path)
        existing = self._file_for(path)
        if existing is not None and not overwrite:
            raise FileSystemError(f"path already exists: {path!r}")
        plain, compressed = self._candidates(path)
        target = compressed if self.compress else plain
        directory = os.path.dirname(target)
        os.makedirs(directory, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            dir=directory,
            prefix=os.path.basename(target) + _TMP_MARKER,
        )
        os.close(descriptor)
        count = 0
        try:
            with self._opened_temp(temp_path) as handle:
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
            try:
                os.unlink(temp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        os.replace(temp_path, target)
        for candidate in self._candidates(path):
            # An overwrite switched compression modes (or a previous
            # one crashed mid-switch); drop any stale alternate
            # representation so reads stay unambiguous.
            if candidate != target and os.path.isfile(candidate):
                os.unlink(candidate)
        self._counts[path] = (self._signature(target), count)
        return count

    def _opened_temp(self, temp_path: str):
        """Open the in-progress temp file with the configured codec."""
        if self.compress:
            return gzip.open(temp_path, "wt", encoding="utf-8")
        return open(temp_path, "w", encoding="utf-8")

    def read(self, path: str) -> List[KeyValue]:
        """Parse and return the records at ``path``."""
        path = validate_path(path)
        file_path = self._file_for(path)
        if file_path is None:
            raise FileSystemError(f"no such path: {path!r}")
        signature = self._signature(file_path)
        with self._open(file_path, "r") as handle:
            # Blank lines (only ever hand-made) are skipped, as ``du``
            # does not count them.
            records = [
                loads_record(line) for line in handle if line != "\n"
            ]
        self._counts[path] = (signature, len(records))
        return records

    def exists(self, path: str) -> bool:
        """Whether ``path`` holds a (completely written) dataset."""
        return self._file_for(validate_path(path)) is not None

    def delete(self, path: str) -> None:
        """Remove a dataset's backing file (every representation)."""
        path = validate_path(path)
        if self._file_for(path) is None:
            raise FileSystemError(f"no such path: {path!r}")
        for candidate in self._candidates(path):
            if os.path.isfile(candidate):
                os.unlink(candidate)
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
        paths = set()  # both representations map to one dataset name
        for directory, _, files in os.walk(self.root):
            for file_name in files:
                if _TMP_MARKER in file_name:
                    continue
                dataset = self._dataset_name(
                    os.path.join(directory, file_name)
                )
                if dataset is not None and dataset.startswith(prefix):
                    paths.add(dataset)
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
            with self._open(file_path, "r") as handle:
                count = sum(1 for line in handle if line.strip())
            self._counts[path] = (signature, count)
        return DatasetStats(records=count, bytes=signature[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalDiskFileSystem(root={self.root!r}, "
            f"compress={self.compress})"
        )
