"""Deterministic partitioning of intermediate keys to reduce tasks.

Python's built-in :func:`hash` is randomized per process for strings, which
would make simulated shuffles non-reproducible across runs.  We therefore
hash a *canonical byte encoding* of each key.  The same encoding doubles
as a total order for the sort phase, so keys of heterogeneous types can
be sorted deterministically.

The encoding is the currency of the runtime's *encoded shuffle plane*
(see :mod:`repro.mapreduce.runtime`): :func:`canonical_bytes` is computed
once per run — all the values one map-task attempt emits under one
``str`` key, or a single value under any other key — and everything
downstream — partitioning, spill sorting, merging, reduce-side
sort/group — reuses the cached bytes.  A key's partition is
``fast_hash_bytes(key_bytes) % num_partitions`` on those bytes — a
CRC32 with a murmur3-style finalizer, several times cheaper than the
MD5 it replaced.  A plain job hashes every record it routes.  A
stateful round reads a resident key's partition from the state
store's key index, which holds that same value, and hashes only the
keys the store has not seen.
:func:`stable_hash` keeps the original MD5 construction
because it seeds per-node RNGs in the matching drivers (wider digest,
pinned by golden tests); it is no longer on the shuffle hot path.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Any

from .errors import JobValidationError

__all__ = [
    "canonical_bytes",
    "fast_hash_bytes",
    "stable_hash",
]


def canonical_bytes(key: Any) -> bytes:
    """Encode ``key`` into bytes, stably across processes and runs.

    Supported key types are the ones used throughout this package:
    ``str``, ``bytes``, ``int``, ``float``, ``bool``, ``None`` and
    (arbitrarily nested) tuples thereof.  Each value is prefixed with a
    type tag so that e.g. ``1`` and ``"1"`` encode differently.

    This runs once per run of intermediate values (the encoded shuffle
    plane's invariant), which still makes it one of the hottest
    functions in the simulator — the type checks are ordered by observed key
    frequency (str and tuple-of-str keys dominate every pipeline in
    the repo), with the bool check kept ahead of int, of which bool is
    a subclass.
    """
    cls = key.__class__
    if cls is str:
        return b"S" + key.encode("utf-8")
    if cls is tuple:
        body = bytearray(b"T")
        for part in key:
            if part.__class__ is str:  # inlined: hottest nested type
                encoded = b"S" + part.encode("utf-8")
            else:
                encoded = canonical_bytes(part)
            body += len(encoded).to_bytes(4, "big")
            body += encoded
        return bytes(body)
    if cls is bool:  # must precede int: bool is a subclass
        return b"B1" if key else b"B0"
    if cls is int:
        return b"I" + str(key).encode("ascii")
    if cls is float:
        return b"F" + repr(key).encode("ascii")
    if key is None:
        return b"N"
    if cls is bytes:
        return b"Y" + key
    # Subclasses (str/int/tuple/bytes subtypes) miss the exact-type
    # fast paths above and resolve here, encoding as their base type.
    if isinstance(key, bool):
        return b"B1" if key else b"B0"
    if isinstance(key, str):
        return b"S" + key.encode("utf-8")
    if isinstance(key, tuple):
        parts = bytearray(b"T")
        for part in key:
            encoded = canonical_bytes(part)
            parts += len(encoded).to_bytes(4, "big")
            parts += encoded
        return bytes(parts)
    if isinstance(key, int):
        return b"I" + str(key).encode("ascii")
    if isinstance(key, float):
        return b"F" + repr(key).encode("ascii")
    if isinstance(key, bytes):
        return b"Y" + key
    raise JobValidationError(
        f"unsupported key type for shuffling: {type(key).__name__}"
    )


def fast_hash_bytes(data: bytes) -> int:
    """A cheap, process-independent 32-bit hash of encoded key bytes.

    CRC32 (a single C call) followed by the murmur3 32-bit finalizer,
    so the low bits — the ones ``% num_partitions`` consumes — avalanche
    well even for near-identical or structured keys.  Values are pinned
    by the golden-hash test; changing this function re-partitions every
    shuffle.
    """
    h = zlib.crc32(data)
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


def stable_hash(key: Any) -> int:
    """Return a process-independent 64-bit hash of ``key``.

    MD5-based: wider and better mixed than :func:`fast_hash_bytes`, used
    where hash *quality* matters more than speed (seeding per-node RNGs
    in the randomized matching drivers).  The shuffle hot path uses
    :func:`fast_hash_bytes` instead.
    """
    digest = hashlib.md5(canonical_bytes(key)).digest()
    return int.from_bytes(digest[:8], "big")

