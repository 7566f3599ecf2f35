"""Canonical JSONL encoding of ``(key, value)`` records.

The disk filesystem persists datasets as line-delimited JSON — the
format real Hadoop pipelines favor for inter-job data because it is
splittable, greppable, and language-neutral.  Plain JSON, however, is
lossy for Python records: tuples come back as lists, and dictionary
keys come back as strings.  Either would break the storage subsystem's
hard contract that pipeline outputs are **bit-identical** across the
memory and disk backends (shuffle keys like ``("item", "consumer")``
must round-trip as tuples to sort and group identically).

This codec therefore wraps the containers in single-key *tag objects*:

========  =======================================  ==================
tag       encodes                                   payload
========  =======================================  ==================
``"t"``   ``tuple``                                 list of encoded items
``"l"``   ``list``                                  list of encoded items
``"d"``   ``dict`` (any key type, order kept)       list of encoded ``[k, v]`` pairs
``"y"``   ``bytes``                                 base64 string
========  =======================================  ==================

Scalars (``None``, ``bool``, ``int``, ``float``, ``str``) pass through
natively — JSON round-trips them exactly, including floats, which
serialize via ``repr`` and parse back to the identical IEEE double.
Because *every* dict is encoded as a tag object, a user dict can never
be mistaken for a tag: decoders treat any one-key object whose key is a
known tag as encoded structure, and such objects only ever come from
the encoder.

One record is one line: ``[encoded_key, encoded_value]``.  Types
outside the table (arbitrary class instances) raise
:class:`~repro.mapreduce.storage.base.FileSystemError` — datasets are
an interchange surface, not a pickle jar; jobs that need richer state
in records keep it in memory or convert at the boundary.

A disk-backed pipeline pays this codec for every record of every
stage hand-off, so both directions make one pass per record: the
encoder writes JSON text straight from the Python value, the decoder
untags containers from inside the JSON scanner.  The lines are exactly
what ``json.dumps`` produces for the tag tree (compact separators,
ASCII-only, ``NaN``/``Infinity`` as Python's JSON dialect spells them).
"""

from __future__ import annotations

import base64
import json
import math
import pickle
from json.encoder import encode_basestring_ascii
from typing import Any, BinaryIO, Callable, Dict, Iterator, Tuple

from ..job import KeyValue
from .base import FileSystemError

__all__ = [
    "dumps_record",
    "loads_record",
    "write_run_record",
    "read_run_records",
]

# -- encoder -----------------------------------------------------------------
#
# No intermediate tag tree and no per-call ``JSONEncoder``.  The leaves
# are the stdlib's own (``encode_basestring_ascii``, ``float.__repr__``,
# ``int.__repr__``), which is what keeps every line byte-identical to
# ``json.dumps`` — pinned by tests/mapreduce/golden_jsonl.json.


def _encode_float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _encode_bytes(value: bytes) -> str:
    return '{"y":"' + base64.b64encode(value).decode("ascii") + '"}'


def _encode_tuple(value: tuple) -> str:
    return '{"t":[' + ",".join([_encode(item) for item in value]) + "]}"


def _encode_list(value: list) -> str:
    return '{"l":[' + ",".join([_encode(item) for item in value]) + "]}"


def _encode_dict(value: dict) -> str:
    pairs = [
        "[" + _encode(key) + "," + _encode(val) + "]"
        for key, val in value.items()
    ]
    return '{"d":[' + ",".join(pairs) + "]}"


#: Exact class -> encoder.  ``bool`` has its own entry, so it never
#: falls through to ``int``; subclasses of the other types miss the
#: lookup and resolve by ``isinstance`` against the same table,
#: encoding as their base type (``int.__repr__``, not the subclass's).
_ENCODERS: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    float: _encode_float,
    tuple: _encode_tuple,
    int: int.__repr__,
    dict: _encode_dict,
    list: _encode_list,
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    bytes: _encode_bytes,
}
_exact_encoder = _ENCODERS.get


def _encode(value: Any) -> str:
    """The JSON text of one key or value (or of anything nested in it)."""
    encoder = _exact_encoder(value.__class__)
    if encoder is not None:
        return encoder(value)
    for base, encoder in _ENCODERS.items():
        if isinstance(value, base):
            return encoder(value)
    raise FileSystemError(
        f"cannot serialize {type(value).__name__} values to a record "
        "dataset; supported types: None, bool, int, float, str, bytes, "
        "tuple, list, dict"
    )


def dumps_record(key: Any, value: Any) -> str:
    """Serialize one record to its canonical single-line JSON form."""
    return "[" + _encode(key) + "," + _encode(value) + "]"


# -- decoder -----------------------------------------------------------------
#
# The C JSON scanner does the parsing; ``_untag`` runs as its
# ``object_hook``, so tag objects turn back into tuples, lists, dicts
# and bytes innermost-first while the line is scanned — there is no
# second walk over a decoded tree.


def _untag(tagged: Dict[str, Any]) -> Any:
    if len(tagged) != 1:
        raise FileSystemError(
            f"malformed tag object with {len(tagged)} keys "
            "(encoded structures are single-key tag objects)"
        )
    ((tag, payload),) = tagged.items()
    if tag == "t":
        return tuple(payload)
    if tag == "d":
        return dict(payload)
    if tag == "l":
        return list(payload)
    if tag == "y":
        return base64.b64decode(payload)
    raise FileSystemError(f"unknown record tag {tag!r}")


_DECODER = json.JSONDecoder(object_hook=_untag)


def _parse(line: str) -> Any:
    """``json.loads`` with the tag hook applied.

    A line that is exactly one JSON value (all the encoder writes),
    with or without its newline, skips ``decode``'s whitespace regex
    matches; anything else is ``decode``'s to accept or reject.
    """
    try:
        parsed, end = _DECODER.scan_once(line, 0)
        if end == len(line) or line[end:] == "\n":
            return parsed
    except StopIteration:
        pass
    return _DECODER.decode(line)


def loads_record(line: str) -> KeyValue:
    """Parse one line produced by :func:`dumps_record`.

    Every corruption mode — invalid JSON, a non-pair top level, a
    malformed or unknown tag — surfaces as :class:`FileSystemError`
    carrying the offending line, never a bare ``ValueError``.
    """
    try:
        record = _parse(line)
        if record.__class__ is not list:
            raise ValueError("the top level is not a [key, value] array")
        key, value = record
        return key, value
    except FileSystemError as exc:
        raise FileSystemError(
            f"malformed record line {line!r}: {exc}"
        ) from None
    except (ValueError, TypeError) as exc:
        raise FileSystemError(
            f"malformed record line {line!r}: {exc}"
        ) from None


# -- spill-run codec ---------------------------------------------------------
#
# The external shuffle's run files hold *encoded records* — the
# ``(key_bytes, key, value)`` triples of the runtime's encoded shuffle
# plane — as length-prefixed binary frames::
#
#     [4-byte len(key_bytes)] [key_bytes] [4-byte len(payload)] [payload]
#
# where ``payload`` is the pickled ``(key, value)`` pair.  Writing a
# frame reuses the canonical key encoding computed at map time (the
# encode-once contract extends to disk), and reading one restores the
# full triple without re-encoding, so a spilled record is merge-sorted
# and grouped by raw byte comparison exactly like an in-memory one.
# Run files are private intermediates (deleted after the job), never an
# interchange surface — hence pickle payloads rather than JSONL.

EncodedRecord = Tuple[bytes, Any, Any]


def write_run_record(handle: BinaryIO, record: EncodedRecord) -> None:
    """Append one encoded record to an open run file."""
    key_bytes = record[0]
    payload = pickle.dumps(
        (record[1], record[2]), pickle.HIGHEST_PROTOCOL
    )
    handle.write(len(key_bytes).to_bytes(4, "big"))
    handle.write(key_bytes)
    handle.write(len(payload).to_bytes(4, "big"))
    handle.write(payload)


def read_run_records(handle: BinaryIO) -> Iterator[EncodedRecord]:
    """Stream encoded records back from an open run file.

    Every truncation point — a short header, short key bytes, or a
    short payload (e.g. the disk filled mid-spill) — raises
    :class:`FileSystemError` rather than desyncing into a silent
    partial read or an opaque unpickling error.
    """
    while True:
        header = handle.read(4)
        if not header:
            return
        if len(header) != 4:
            raise FileSystemError("truncated spill-run frame header")
        key_size = int.from_bytes(header, "big")
        key_bytes = handle.read(key_size)
        if len(key_bytes) != key_size:
            raise FileSystemError("truncated spill-run frame key")
        size_bytes = handle.read(4)
        if len(size_bytes) != 4:
            raise FileSystemError("truncated spill-run frame")
        payload_size = int.from_bytes(size_bytes, "big")
        payload = handle.read(payload_size)
        if len(payload) != payload_size:
            raise FileSystemError("truncated spill-run frame payload")
        key, value = pickle.loads(payload)
        yield key_bytes, key, value
