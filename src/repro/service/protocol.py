"""Wire protocol of the query service: JSON objects, one per line.

The service speaks newline-delimited JSON over a plain TCP stream — the
same shape VerdictDB's pandas-sql server uses, chosen because every
language (and ``nc``) can speak it and because a line is a natural frame:
no length prefixes, no partial-read state machine. Each request carries a
client-chosen ``id`` echoed verbatim in the response, so a client may
pipeline requests and match answers by id. ``hello`` answers with the
server's :data:`PROTOCOL_VERSION` (2); :class:`~repro.service.client.ServiceClient`
refuses any other.

Requests::

    {"id": 1, "op": "hello", "tenant": "ads", "defaults": {"mode": "quickr"}}
    {"id": 2, "op": "query", "query": "q12", "mode": "quickr", "deadline_ms": 2000}
    {"id": 3, "op": "stats"}
    {"id": 4, "op": "ping"}
    {"id": 5, "op": "close"}

Responses are ``{"id": ..., "ok": true, ...payload}`` or ``{"id": ...,
"ok": false, "error": {"code": ..., "message": ...}}``. Admission
rejections are *successful protocol exchanges* with ``ok: false`` and an
``error.code`` of ``rejected.backpressure`` / ``rejected.quota`` /
``rejected.deadline`` — the service's contract is that overload produces
explicit rejections, never hangs or dropped connections.

Answer tables travel as columns (name → dtype + data). A numeric or bool
column is the base64 of its little-endian buffer, ``{"dtype": "<f8",
"b64": "..."}`` with ``dtype`` the NumPy ``dtype.str``, so a value costs
its bytes and every bit (NaN payloads and ``-0.0`` included) arrives as
sent; a string column stays a JSON list of strings. Each payload carries a
SHA-256 ``digest`` over the canonical bytes (names, dtypes, raw column
buffers). The digest is how the load benchmark asserts served answers are
bit-identical to library-mode execution, and :func:`table_from_wire`
re-derives it client-side as an end-to-end integrity check. A malformed
answer payload raises :class:`~repro.errors.ProtocolError`, never another
exception and never a wrong table.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import socket
from typing import Any, Dict, Iterator, List, Mapping, Optional

import numpy as np

from repro.engine.table import Table
from repro.errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "encode_message",
    "decode_message",
    "read_messages",
    "send_message",
    "error_response",
    "ok_response",
    "table_digest",
    "table_to_wire",
    "table_from_wire",
]

#: Bumped when the message schema changes incompatibly; ``hello`` echoes it.
#: Version 2 carries numeric columns as base64 little-endian buffers.
PROTOCOL_VERSION = 2

#: Upper bound on one frame. A line above this is a protocol error (a
#: defensive cap so a garbage peer cannot balloon server memory).
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Column kinds that travel (and hash) element-wise as strings.
_STRING_KINDS = ("U", "S", "O")

#: The buffer dtypes a v2 column may name: bool, (unsigned) integers and
#: floats, little-endian. Anything else — object dtype included — is a
#: protocol error, so a payload can never make the client build objects.
#: ``np.dtype(str)`` yields NumPy's canonical instances, which
#: ``np.frombuffer`` takes on its fast path.
_WIRE_DTYPES = {
    wire: np.dtype(wire)
    for wire in (np.dtype(code).newbyteorder("<").str for code in "?bBhHiIqQefdg")
}


def encode_message(message: Dict[str, Any]) -> bytes:
    """One frame: compact JSON plus the newline terminator."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(message).__name__}")
    return message


def read_messages(
    sock: socket.socket, max_line_bytes: int = MAX_LINE_BYTES
) -> Iterator[Dict[str, Any]]:
    """Yield decoded frames from a socket until the peer closes.

    Buffers partial lines across ``recv`` boundaries; a frame larger than
    ``max_line_bytes`` (default :data:`MAX_LINE_BYTES`) raises
    :class:`ProtocolError`. A socket read timeout (the server's slow-loris
    guard) surfaces as ``socket.timeout`` — an ``OSError`` the caller
    turns into a clean disconnect.

    Linear in the bytes read: each chunk is searched for newlines once,
    and a frame's pieces are joined once, when its newline arrives.
    """
    pieces: List[bytes] = []
    pending = 0  # bytes held in ``pieces``
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            if b"".join(pieces).strip():
                raise ProtocolError("connection closed mid-frame")
            return
        start = 0
        end = chunk.find(b"\n")
        while end >= 0:
            if pending + end - start > max_line_bytes:
                raise ProtocolError(f"frame exceeds {max_line_bytes} bytes")
            line = chunk[start:end]
            if pieces:
                pieces.append(line)
                line = b"".join(pieces)
                pieces, pending = [], 0
            if line.strip():
                yield decode_message(line)
            start = end + 1
            end = chunk.find(b"\n", start)
        if start < len(chunk):
            pieces.append(chunk[start:])
            pending += len(chunk) - start
            if pending > max_line_bytes:
                raise ProtocolError(f"frame exceeds {max_line_bytes} bytes")


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(encode_message(message))


def ok_response(request_id: Any, **payload: Any) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, **payload}


def error_response(request_id: Any, code: str, message: str, **extra: Any) -> Dict[str, Any]:
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message, **extra}}


# -- answer-table serialization ------------------------------------------------

@functools.lru_cache(maxsize=64)
def _dtype_label(dtype: np.dtype) -> bytes:
    """``str(dtype)``, as hashed: NumPy builds it in Python (µs a call)."""
    return str(dtype).encode()


def _digest(num_rows: int, columns: Mapping[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    h.update(repr(num_rows).encode())
    for name, values in columns.items():
        h.update(name.encode("utf-8"))
        if values.dtype.kind in _STRING_KINDS:
            # String buffers are width/padding-sensitive (``<U5`` vs ``<U10``
            # holding equal values), so hash the elements, each followed by
            # a NUL, not the buffer. SHA-256 streams, so one update of the
            # joined text is the same bytes as one update per element.
            h.update(b"str")
            items = values.tolist()
            if items:
                h.update(("\x00".join(map(str, items)) + "\x00").encode("utf-8"))
        else:
            h.update(_dtype_label(values.dtype))
            h.update(np.ascontiguousarray(values))
    return h.hexdigest()


def table_digest(table: Table) -> str:
    """SHA-256 over the table's canonical bytes.

    Covers column names and order, dtypes, row count and the raw column
    buffers — two tables share a digest iff they are bit-identical.
    """
    return _digest(
        table.num_rows, {name: table.column(name) for name in table.column_names}
    )


def _wire_columns(table: Table) -> Dict[str, np.ndarray]:
    """The columns as they travel: decoded, and each numeric one a
    contiguous little-endian buffer (a no-op for native answers here)."""
    columns = {}
    for name in table.column_names:
        values = table.column(name)
        if values.dtype.kind not in _STRING_KINDS:
            values = np.ascontiguousarray(values, dtype=values.dtype.newbyteorder("<"))
        columns[name] = values
    return columns


def _column_to_wire(values: np.ndarray) -> Dict[str, Any]:
    if values.dtype.kind in _STRING_KINDS:
        return {"dtype": "str", "values": list(map(str, values.tolist()))}
    return {"dtype": values.dtype.str, "b64": base64.b64encode(values).decode("ascii")}


def table_to_wire(table: Table, include_rows: bool = True) -> Dict[str, Any]:
    """JSON-able view of an answer table plus its bit-identity digest."""
    columns = _wire_columns(table)
    out: Dict[str, Any] = {
        "name": table.name,
        "num_rows": int(table.num_rows),
        "column_order": list(columns),
        "digest": _digest(table.num_rows, columns),
    }
    if include_rows:
        out["columns"] = {name: _column_to_wire(values) for name, values in columns.items()}
    return out


def _column_from_wire(name: str, spec: Any, num_rows: int) -> np.ndarray:
    if not isinstance(spec, dict):
        raise ProtocolError(f"answer column {name!r} must be an object")
    dtype = spec.get("dtype")
    if dtype == "str":
        values = spec.get("values")
        if not isinstance(values, list) or len(values) != num_rows:
            raise ProtocolError(f"answer column {name!r} must list {num_rows} strings")
        if not set(map(type, values)) <= {str}:
            raise ProtocolError(f"answer column {name!r} must list strings only")
        return np.array(values, dtype=str)
    try:
        wire_dtype = _WIRE_DTYPES[dtype]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON value
        raise ProtocolError(f"answer column {name!r} has unsupported dtype {dtype!r}") from None
    try:
        raw = base64.b64decode(spec.get("b64"), validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ProtocolError(f"answer column {name!r} is not valid base64: {exc}") from exc
    if len(raw) != num_rows * wire_dtype.itemsize:
        raise ProtocolError(
            f"answer column {name!r} holds {len(raw)} bytes, expected "
            f"{num_rows} rows of {wire_dtype.itemsize}"
        )
    return np.frombuffer(raw, wire_dtype).astype(wire_dtype.newbyteorder("="), copy=False)


def table_from_wire(wire: Dict[str, Any], verify: bool = True) -> Optional[Table]:
    """Reconstruct the answer table; returns None for digest-only payloads.

    With ``verify`` (default) the digest is recomputed from the
    reconstructed arrays and checked against the server's — a bit flip
    anywhere in transit or in (de)serialization fails loudly. Numeric
    columns are read-only views of the decoded buffers.
    """
    if not isinstance(wire, dict):
        raise ProtocolError("answer must be an object")
    columns = wire.get("columns")
    if columns is None:
        return None
    order = wire.get("column_order")
    num_rows = wire.get("num_rows")
    name = wire.get("name", "answer")
    if not isinstance(columns, dict) or not isinstance(order, list) or not isinstance(name, str):
        raise ProtocolError(
            "answer needs a 'columns' object, a 'column_order' list and a string 'name'"
        )
    if type(num_rows) is not int or num_rows < 0:
        raise ProtocolError(f"answer 'num_rows' must be a non-negative integer, got {num_rows!r}")
    if (not order or len(order) != len(columns) or not set(map(type, order)) <= {str}
            or set(order) != columns.keys()):
        raise ProtocolError(
            f"answer 'column_order' {order!r} must name each column of {sorted(columns)!r} once"
        )
    arrays = {c: _column_from_wire(c, columns[c], num_rows) for c in order}
    table = Table(name, arrays)
    if verify:
        try:
            digest = _digest(num_rows, arrays)
        except UnicodeEncodeError as exc:  # a lone surrogate in a string column
            raise ProtocolError(f"answer holds an unencodable string: {exc}") from exc
        sent = wire.get("digest")
        if digest != sent:
            raise ProtocolError(
                f"answer digest mismatch: server sent {str(sent)[:12]}…, "
                f"reconstruction hashes to {digest[:12]}…"
            )
    return table
