"""The wire protocol of the cluster backend: length-prefixed frames.

Every message between the driver and a worker is one *frame*::

    MAGIC(4) VERSION(1) HEADER_LEN(4, big-endian) PAYLOAD_LEN(8) \
        HEADER(json, utf-8) PAYLOAD(raw bytes)

The header is a small JSON object (``{"op": "task", ...}``) so frames
are inspectable on the wire; the payload carries the pickled task unit
or result, which never needs to be parsed to route the frame.  Both
halves are length-prefixed, so a reader always knows exactly how many
bytes to consume — there is no in-band framing to corrupt.  The
payload length is a u64, so a task result of any size travels inline
on its reply frame.

Failure surface
---------------

* :class:`ProtocolError` — the stream is not speaking this protocol
  (bad magic, unsupported version, oversized header): a *permanent*
  error, never retried.
* :class:`ConnectionClosed` — the peer hung up mid-frame (worker
  death, injected frame drop).  A :class:`ConnectionError` subclass,
  so generic ``except OSError`` recovery treats it like any other
  transport failure: the driver re-executes the task elsewhere.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from ..errors import MapReduceError

__all__ = [
    "ConnectionClosed",
    "MAGIC",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "connect",
    "recv_frame",
    "request",
    "send_frame",
]

MAGIC = b"RPMR"
PROTOCOL_VERSION = 1

#: MAGIC + version + header length (u32) + payload length (u64).
_PREFIX = struct.Struct(">4sBIQ")

#: Headers are small control JSON; anything bigger is a framing bug.
_MAX_HEADER = 1 << 20


class ProtocolError(MapReduceError):
    """The stream is not a well-formed cluster-protocol frame."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection mid-frame (death or frame drop)."""


def send_frame(
    sock: socket.socket,
    header: Dict[str, Any],
    payload: bytes = b"",
) -> None:
    """Serialize and send one frame (header JSON + raw payload)."""
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(encoded) > _MAX_HEADER:
        raise ProtocolError(
            f"frame header of {len(encoded)} bytes exceeds the "
            f"{_MAX_HEADER}-byte limit"
        )
    prefix = _PREFIX.pack(
        MAGIC, PROTOCOL_VERSION, len(encoded), len(payload)
    )
    # One sendall per section: the kernel coalesces, and memoryview
    # avoids copying a potentially large payload into a joined buffer.
    sock.sendall(prefix)
    sock.sendall(encoded)
    if payload:
        sock.sendall(memoryview(payload))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ConnectionClosed`."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection with {remaining} of "
                f"{count} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket,
) -> Tuple[Dict[str, Any], bytes]:
    """Receive one frame; returns ``(header, payload)``.

    Raises :class:`ConnectionClosed` if the peer hung up (cleanly
    between frames or mid-frame) and :class:`ProtocolError` if the
    stream is not speaking this protocol.
    """
    magic, version, header_len, payload_len = _PREFIX.unpack(
        _recv_exact(sock, _PREFIX.size)
    )
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r})"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(speaking {PROTOCOL_VERSION})"
        )
    if header_len > _MAX_HEADER:
        raise ProtocolError(
            f"frame header of {header_len} bytes exceeds the "
            f"{_MAX_HEADER}-byte limit"
        )
    try:
        header = json.loads(_recv_exact(sock, header_len))
    except ValueError as exc:
        raise ProtocolError(f"unparseable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(header)}"
        )
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    return header, payload


def connect(
    port: int,
    timeout: Optional[float] = None,
    host: str = "127.0.0.1",
) -> socket.socket:
    """Open a TCP connection to a worker's listening socket."""
    sock = socket.create_connection((host, port), timeout=timeout)
    # Task frames are request/response; never batch tiny prefixes.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def request(
    sock: socket.socket,
    header: Dict[str, Any],
    payload: bytes = b"",
) -> Tuple[Dict[str, Any], bytes]:
    """One round trip: send a frame, receive the reply frame."""
    send_frame(sock, header, payload)
    return recv_frame(sock)
