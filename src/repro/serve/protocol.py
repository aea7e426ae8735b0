"""Wire format of the serving layer: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON.  The prefix makes message boundaries explicit on a stream
socket (no sentinel scanning, binary-safe payloads later), and JSON keeps the
protocol debuggable with nothing but ``nc`` and ``python -m json.tool``.

Frames are bounded by :data:`MAX_FRAME_BYTES`.  A peer announcing a larger
frame is told so with a structured error and the connection is closed —
after an oversized announcement the stream position is unrecoverable, so
closing is the only safe resynchronisation.  A frame that *parses* but is
not valid JSON gets a structured ``malformed-json`` error and the connection
stays usable: the framing layer already consumed exactly the announced
bytes, so the stream is still aligned.

Request vocabulary (the ``op`` key selects the operation)::

    {"op": "route", "pi": [...], "d": 8, "g": 4}        # optional "deadline_ms"
    {"op": "stats"}
    {"op": "metrics"}    # Prometheus-style text exposition of daemon metrics
    {"op": "ping"}
    {"op": "health"}     # liveness + degradation summary (fault injection)

A route request names no router backend: the daemon routes every request
with the one backend of its config (``serve --backend``).  Version 1 took an
optional ``"backend"``; version 2 answers a request carrying one with
``bad-request``.

Responses carry ``{"ok": true, ...}`` on success and
``{"ok": false, "error": {"code": ..., "message": ...}}`` on failure; the
machine-readable codes are the :data:`ERR_*` constants below, part of the
protocol contract (tests and clients match on them, never on messages).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ERR_BAD_REQUEST",
    "ERR_DEADLINE",
    "ERR_DEGRADED",
    "ERR_INTERNAL",
    "ERR_MALFORMED_JSON",
    "ERR_OVERSIZED_FRAME",
    "ERR_QUEUE_FULL",
    "ERR_SHUTTING_DOWN",
    "ERR_UNKNOWN_OP",
    "FrameError",
    "FrameTooLargeError",
    "MalformedFrameError",
    "error_response",
    "recv_frame",
    "send_frame",
]

#: Bump on incompatible wire-format changes; carried in ``stats`` responses
#: so clients can assert what they are talking to.
PROTOCOL_VERSION = 2

#: Upper bound on one frame's payload.  A route request for n = 65536 is
#: ~0.5 MiB of JSON; 8 MiB leaves an order of magnitude of headroom while
#: still refusing absurd announcements before allocating anything.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Machine-readable error codes (the ``error.code`` field).
ERR_OVERSIZED_FRAME = "oversized-frame"
ERR_MALFORMED_JSON = "malformed-json"
ERR_BAD_REQUEST = "bad-request"
ERR_UNKNOWN_OP = "unknown-op"
ERR_QUEUE_FULL = "queue-full"
ERR_SHUTTING_DOWN = "shutting-down"
ERR_INTERNAL = "internal-error"
#: The request named a deadline (``deadline_ms``) and routing did not finish
#: inside it; the work may still complete server-side but the answer is gone.
ERR_DEADLINE = "deadline-exceeded"
#: Routing could not be completed even on the degraded topology — the fault
#: spec disconnects the traffic (distinct from ``internal-error``: the daemon
#: is healthy, the surviving hardware just cannot carry the request).
ERR_DEGRADED = "degraded"

_HEADER = struct.Struct(">I")


class FrameError(Exception):
    """Base class for framing-level failures."""


class FrameTooLargeError(FrameError):
    """The peer announced a frame larger than the negotiated bound."""

    def __init__(self, announced: int, limit: int):
        super().__init__(
            f"peer announced a {announced}-byte frame; the limit is {limit}"
        )
        self.announced = announced
        self.limit = limit


class MalformedFrameError(FrameError):
    """A complete frame arrived but its payload is not a JSON object."""


def error_response(code: str, message: str) -> dict[str, Any]:
    """The canonical error-response payload."""
    return {"ok": False, "error": {"code": code, "message": message}}


def send_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Encode ``payload`` as one length-prefixed JSON frame and send it all.

    Raises :class:`FrameTooLargeError` when the encoded payload would exceed
    :data:`MAX_FRAME_BYTES` (sending it would make the *receiver* drop the
    connection, so failing locally is strictly better) and ``OSError`` when
    the peer is gone.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(len(body), MAX_FRAME_BYTES)
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exactly(sock: socket.socket, n_bytes: int) -> bytes | None:
    """Read exactly ``n_bytes``; ``None`` on clean EOF at a frame boundary.

    EOF in the *middle* of a frame is a protocol violation and raises
    ``ConnectionResetError`` — the caller must not mistake a truncated
    request for a clean goodbye.
    """
    chunks: list[bytes] = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n_bytes and not chunks:
                return None
            raise ConnectionResetError(
                f"connection closed mid-frame ({n_bytes - remaining} of "
                f"{n_bytes} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, *, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Receive one frame; ``None`` on clean EOF before a header.

    Raises :class:`FrameTooLargeError` on an oversized announcement (the
    stream is then unrecoverable — close the connection),
    :class:`MalformedFrameError` when the payload is not a JSON object (the
    stream *is* still aligned — the caller may answer with a structured
    error and keep serving), and ``OSError`` on transport failures.
    """
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameTooLargeError(length, max_bytes)
    body = _recv_exactly(sock, length) if length else b""
    if body is None:  # pragma: no cover - zero-length header then EOF
        raise ConnectionResetError("connection closed between header and body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrameError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedFrameError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload
