"""Wire-protocol tests: framing, table serialization, digest integrity."""

import base64
import itertools
import socket
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.table import Table
from repro.errors import ProtocolError
from repro.service import protocol


class ChunkedSocket:
    """Hands out ``data`` in ``recv`` chunks of the given size(s), cycling
    through a list of sizes, then EOF."""

    def __init__(self, data, sizes):
        self.data, self.pos = data, 0
        self.sizes = itertools.cycle(sizes if isinstance(sizes, list) else [sizes])

    def recv(self, bufsize):
        chunk = self.data[self.pos:self.pos + min(bufsize, next(self.sizes))]
        self.pos += len(chunk)
        return chunk


def make_table(**columns):
    return Table("answer", columns)


class TestFraming:
    def test_encode_decode_roundtrip(self):
        message = {"id": 7, "op": "query", "query": "q12", "deadline_ms": 150.5}
        assert protocol.decode_message(protocol.encode_message(message).rstrip(b"\n")) == message

    def test_encode_is_one_line(self):
        frame = protocol.encode_message({"op": "ping", "note": "a\nb"})
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1  # embedded newlines are escaped

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"{not json")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"[1, 2, 3]")

    def test_read_messages_reassembles_split_frames(self):
        left, right = socket.socketpair()
        try:
            frame = protocol.encode_message({"id": 1, "op": "ping"})
            # Deliver the frame in three fragments plus a second message.
            left.sendall(frame[:3])
            left.sendall(frame[3:7])
            left.sendall(frame[7:])
            left.sendall(protocol.encode_message({"id": 2, "op": "close"}))
            left.close()
            messages = list(protocol.read_messages(right))
        finally:
            right.close()
        assert [m["id"] for m in messages] == [1, 2]

    def test_read_messages_raises_on_mid_frame_close(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b'{"id": 1, "op": ')  # no newline, then close
            left.close()
            with pytest.raises(ProtocolError):
                list(protocol.read_messages(right))
        finally:
            right.close()

    def test_read_messages_is_linear_in_frame_size(self):
        # An 8 MB frame (within max_result_rows) in 1 KB recv chunks: a
        # reader that re-copies or re-scans its buffer per chunk moves
        # ~32 GB here and takes seconds; a linear one takes milliseconds.
        frame = protocol.encode_message({"id": 1, "blob": "x" * (8 * 1024 * 1024)})
        start = time.perf_counter()
        messages = list(protocol.read_messages(ChunkedSocket(frame, 1024)))
        elapsed = time.perf_counter() - start
        assert [m["id"] for m in messages] == [1]
        assert len(messages[0]["blob"]) == 8 * 1024 * 1024
        assert elapsed < 1.0, f"8 MB frame took {elapsed:.2f}s to reassemble"

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.dictionaries(st.text(max_size=3), st.text(max_size=20), max_size=3),
                 min_size=1, max_size=6),
        st.lists(st.integers(1, 40), min_size=1, max_size=20),
        st.booleans(),
    )
    def test_any_chunking_yields_the_same_frames(self, messages, sizes, blank_lines):
        separator = b"\n  \n" if blank_lines else b""
        data = separator.join(protocol.encode_message(m) for m in messages)
        assert list(protocol.read_messages(ChunkedSocket(data, sizes))) == messages

    def test_oversized_frame_spanning_chunks_is_refused(self):
        frame = protocol.encode_message({"blob": "x" * 200})
        with pytest.raises(ProtocolError, match="exceeds 100 bytes"):
            list(protocol.read_messages(ChunkedSocket(frame, 64), max_line_bytes=100))
        # Exactly at the cap is still a frame.
        at_cap = protocol.encode_message({"b": "x" * 92})
        assert len(at_cap) - 1 == 100
        assert list(protocol.read_messages(ChunkedSocket(at_cap, 7), max_line_bytes=100)) == [
            {"b": "x" * 92}
        ]

    def test_response_helpers(self):
        ok = protocol.ok_response(3, pong=True)
        assert ok == {"id": 3, "ok": True, "pong": True}
        err = protocol.error_response(4, "rejected.quota", "over quota", retryable=True)
        assert err["ok"] is False
        assert err["error"]["code"] == "rejected.quota"
        assert err["error"]["retryable"] is True


class TestTableWire:
    def test_roundtrip_bit_identical(self):
        table = make_table(
            g=np.array([1, 2, 3], dtype=np.int64),
            x=np.array([1.5, -0.1, 3.25e-17], dtype=np.float64),
            s=np.array(["a", "bb", "ccc"]),
        )
        wire = protocol.table_to_wire(table)
        rebuilt = protocol.table_from_wire(wire)  # verify=True recomputes digest
        assert rebuilt.column_names == table.column_names
        for name in table.column_names:
            np.testing.assert_array_equal(rebuilt.column(name), table.column(name))
        assert protocol.table_digest(rebuilt) == wire["digest"]

    def test_float_bits_survive_json(self):
        import json

        # Adversarial doubles: json must round-trip the exact bits.
        values = np.array([0.1, 1 / 3, np.pi, 1e-300, -1e300, np.nan, np.inf])
        table = make_table(x=values)
        wire = json.loads(json.dumps(protocol.table_to_wire(table)))
        rebuilt = protocol.table_from_wire(wire)
        assert rebuilt.column("x").tobytes() == values.tobytes()

    def test_digest_detects_tampering(self):
        table = make_table(x=np.array([1.0, 2.0]))
        wire = protocol.table_to_wire(table)
        column = wire["columns"]["x"]
        raw = bytearray(base64.b64decode(column["b64"]))
        raw[3] ^= 0x01  # one bit of the first value's mantissa
        column["b64"] = base64.b64encode(bytes(raw)).decode("ascii")
        with pytest.raises(ProtocolError, match="digest mismatch"):
            protocol.table_from_wire(wire)

    def test_digest_independent_of_string_width(self):
        # '<U1' vs '<U9' buffers holding equal values must hash equal.
        narrow = make_table(s=np.array(["a", "b"], dtype="<U1"))
        wide = make_table(s=np.array(["a", "b"], dtype="<U9"))
        assert protocol.table_digest(narrow) == protocol.table_digest(wide)

    def test_digest_sensitive_to_each_component(self):
        base = make_table(x=np.array([1.0, 2.0]))
        assert protocol.table_digest(base) != protocol.table_digest(
            make_table(x=np.array([1.0, 2.5]))  # values
        )
        assert protocol.table_digest(base) != protocol.table_digest(
            make_table(y=np.array([1.0, 2.0]))  # column name
        )
        assert protocol.table_digest(base) != protocol.table_digest(
            make_table(x=np.array([1, 2], dtype=np.int64))  # dtype
        )

    def test_digest_only_payload(self):
        table = make_table(x=np.array([1.0]))
        wire = protocol.table_to_wire(table, include_rows=False)
        assert "columns" not in wire
        assert protocol.table_from_wire(wire) is None
        assert wire["digest"] == protocol.table_digest(table)
