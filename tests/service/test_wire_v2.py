"""Wire protocol v2: answer columns as little-endian buffers.

Holds the v2 column format to its contract: every dtype round-trips bit
for bit with the same digest, the digest is the per-element one of
protocol v1 for every answer of the 24 queries, a malformed answer payload
raises :class:`ProtocolError` and nothing else, and the service builds
each named query once and serves library-identical answers over a socket.
"""

import base64
import hashlib
import json
import socket
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.errors import ProtocolError
from repro.optimizer.planner import QuickrPlanner
from repro.service import QueryServer, QueryService, ServiceClient, ServiceConfig
from repro.service import protocol
from repro.service.auditor import AuditorConfig
from repro.service.governor import GovernorConfig
from repro.workloads.tpcds import QUERY_BUILDERS, query_by_name


def reference_digest(table: Table) -> str:
    """``table_digest`` as protocol v1 computed it: one update per string
    element, and the numeric buffers through ``tobytes``."""
    h = hashlib.sha256()
    h.update(repr(table.num_rows).encode())
    for name in table.column_names:
        values = np.ascontiguousarray(table.column(name))
        h.update(name.encode("utf-8"))
        if values.dtype.kind in ("U", "S", "O"):
            h.update(b"str")
            for item in values.tolist():
                h.update(str(item).encode("utf-8"))
                h.update(b"\x00")
        else:
            h.update(str(values.dtype).encode())
            h.update(values.tobytes())
    return h.hexdigest()


def over_the_wire(table: Table) -> Table:
    """Serve ``table`` through one encoded frame and rebuild it."""
    frame = protocol.encode_message({"id": 1, "ok": True, "answer": protocol.table_to_wire(table)})
    assert frame.count(b"\n") == 1
    return protocol.table_from_wire(protocol.decode_message(frame.rstrip(b"\n"))["answer"])


def assert_bit_equal(rebuilt: Table, table: Table) -> None:
    assert rebuilt.column_names == table.column_names
    assert rebuilt.num_rows == table.num_rows
    for name in table.column_names:
        got, want = rebuilt.column(name), table.column(name)
        if want.dtype.kind in ("U", "S", "O"):
            assert got.tolist() == [str(v) for v in want.tolist()]
        else:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    assert protocol.table_digest(rebuilt) == protocol.table_digest(table)
    assert protocol.table_digest(table) == reference_digest(table)


# -- round trip ---------------------------------------------------------------

SPECIAL_FLOATS = [np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -2.2250738585072e-308, 1e-310]


def numeric_columns(n):
    ints = [
        (dtype, st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)))
        for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
                      np.uint32, np.uint64)
    ]
    floats = [
        (np.float64, st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                               st.sampled_from(SPECIAL_FLOATS))),
        (np.float32, st.one_of(st.floats(width=32, allow_nan=True, allow_infinity=True),
                               st.sampled_from([np.nan, -0.0, np.inf, -np.inf, 1e-45]))),
    ]
    choices = [(np.bool_, st.booleans())] + ints + floats
    return st.sampled_from(choices).flatmap(
        lambda pair: st.lists(pair[1], min_size=n, max_size=n).map(
            lambda values, dtype=pair[0]: np.array(values, dtype=dtype)
        )
    )


def string_column(n):
    text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
    # NumPy drops a string's trailing NULs; an embedded one survives.
    embedded_nul = st.tuples(text, text).map(lambda pair: f"{pair[0]}\x00{pair[1]}x")
    return st.lists(st.one_of(text, embedded_nul), min_size=n, max_size=n).map(
        lambda values: np.array(values, dtype=str)
    )


@st.composite
def answer_tables(draw):
    n = draw(st.integers(0, 12))
    width = draw(st.integers(1, 5))
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=width,
                          max_size=width, unique=True))
    columns = {
        name: draw(st.one_of(numeric_columns(n), string_column(n))) for name in names
    }
    return Table("answer", columns)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(answer_tables())
    def test_every_dtype_survives_bit_for_bit(self, table):
        assert_bit_equal(over_the_wire(table), table)

    def test_extremes(self):
        table = Table("answer", {
            "u": np.array([0, 2**63, 2**64 - 1], dtype=np.uint64),
            "i": np.array([-2**63, -1, 2**63 - 1], dtype=np.int64),
            "b": np.array([True, False, True]),
            "f": np.array([np.nan, -0.0, 5e-324]),
            "h": np.array([np.inf, -np.inf, 1e-45], dtype=np.float32),
            "s": np.array(["é", "a\x00b", "日本"]),
        })
        rebuilt = over_the_wire(table)
        assert_bit_equal(rebuilt, table)
        assert np.signbit(rebuilt.column("f")[1])

    def test_empty_table(self):
        table = Table("answer", {
            "g": np.array([], dtype=np.int64),
            "s": np.array([], dtype=str),
            "x": np.array([], dtype=np.float64),
        })
        assert_bit_equal(over_the_wire(table), table)

    def test_numeric_columns_travel_as_little_endian_buffers(self):
        table = Table("answer", {
            "x": np.array([1.5, 2.0]),
            "k": np.array([7, 7], dtype=np.int8),
        })
        columns = protocol.table_to_wire(table)["columns"]
        assert columns["x"] == {"dtype": "<f8", "b64": base64.b64encode(
            np.array([1.5, 2.0], dtype="<f8").tobytes()).decode("ascii")}
        assert columns["k"]["dtype"] == "|i1"

    def test_big_endian_and_strided_inputs_are_converted(self):
        table = Table("answer", {
            "big": np.array([1.0, -2.5, np.nan], dtype=">f8"),
            "strided": np.arange(6, dtype=np.int64)[::2],
        })
        wire = protocol.table_to_wire(table)
        assert wire["columns"]["big"]["dtype"] == "<f8"
        rebuilt = protocol.table_from_wire(json.loads(json.dumps(wire)))
        assert rebuilt.column("big").tobytes() == table.column("big").astype("<f8").tobytes()
        assert rebuilt.column("strided").tolist() == [0, 2, 4]


# -- the digest did not move ----------------------------------------------------

@pytest.fixture(scope="module")
def all_answers(tiny_tpcds):
    planner, executor = QuickrPlanner(tiny_tpcds), Executor(tiny_tpcds)
    answers = {}
    for name in QUERY_BUILDERS:
        query = query_by_name(tiny_tpcds, name)
        answers[(name, "exact")] = executor.execute(planner.plan_baseline(query).plan).table
        answers[(name, "quickr")] = executor.execute(planner.plan(query).plan).table
    return answers


class TestDigestUnchanged:
    def test_every_answer_of_the_suite_keeps_its_digest(self, all_answers):
        assert len(all_answers) == 48
        for key, table in all_answers.items():
            assert protocol.table_digest(table) == reference_digest(table), key
            assert protocol.table_to_wire(table)["digest"] == reference_digest(table), key
            assert_bit_equal(over_the_wire(table), table)


# -- hardened decode ----------------------------------------------------------------

def valid_wire():
    table = Table("answer", {
        "g": np.array([1, 2, 3], dtype=np.int64),
        "x": np.array([0.5, np.nan, -0.0]),
        "s": np.array(["a", "bb", "ccc"]),
    })
    return json.loads(json.dumps(protocol.table_to_wire(table)))


class TestHardenedDecode:
    @pytest.mark.parametrize("dtype", [
        "O", "|O", "object", "<U3", "str_", "<c16", "<M8[s]", "<m8[s]", "V8", "|V8",
        ">f8", ">i8", "f8,i4", "(2,)f8", "", "float64", "<f9", 8, None, ["<f8"],
    ])
    def test_dtype_outside_bool_int_uint_float(self, dtype):
        wire = valid_wire()
        wire["columns"]["x"]["dtype"] = dtype
        with pytest.raises(ProtocolError, match="dtype"):
            protocol.table_from_wire(wire)

    @pytest.mark.parametrize(
        "payload", ["not base64!", "AAAA=AAA", "AAA", "é", 12, None, ["AAAA"]]
    )
    def test_invalid_base64(self, payload):
        wire = valid_wire()
        wire["columns"]["x"]["b64"] = payload
        with pytest.raises(ProtocolError, match="base64"):
            protocol.table_from_wire(wire)

    @pytest.mark.parametrize("raw_len", [0, 8, 16, 23, 25, 32])
    def test_buffer_length_not_rows_times_itemsize(self, raw_len):
        wire = valid_wire()
        wire["columns"]["x"]["b64"] = base64.b64encode(b"\x01" * raw_len).decode("ascii")
        with pytest.raises(ProtocolError, match="bytes, expected 3 rows of 8"):
            protocol.table_from_wire(wire)

    def test_column_missing_from_column_order(self):
        wire = valid_wire()
        wire["column_order"].remove("x")
        with pytest.raises(ProtocolError, match="column_order"):
            protocol.table_from_wire(wire)

    def test_column_order_names_a_missing_column(self):
        wire = valid_wire()
        del wire["columns"]["x"]
        with pytest.raises(ProtocolError, match="column_order"):
            protocol.table_from_wire(wire)

    @pytest.mark.parametrize("mutate", [
        lambda w: w.update(num_rows=-1),
        lambda w: w.update(num_rows="3"),
        lambda w: w.update(num_rows=True),
        lambda w: w.update(num_rows=4),
        lambda w: w.update(column_order=["g", "x", "s", "s"]),
        lambda w: w.update(column_order=[]),
        lambda w: w.update(column_order="gxs"),
        lambda w: w.update(columns=[]),
        lambda w: w.update(name=7),
        lambda w: w["columns"].update(s={"dtype": "str", "values": [1, 2, 3]}),
        lambda w: w["columns"].update(s={"dtype": "str", "values": ["a", "b"]}),
        lambda w: w["columns"].update(s={"dtype": "str", "values": [["a"], ["b"], ["c"]]}),
        lambda w: w["columns"].update(s=["a", "bb", "ccc"]),
        lambda w: w["columns"].update(s={"dtype": "str", "values": ["\ud800", "b", "c"]}),
        lambda w: w.update(digest=None),
        lambda w: w.update(digest="0" * 64),
    ])
    def test_malformed_answer(self, mutate):
        wire = valid_wire()
        mutate(wire)
        with pytest.raises(ProtocolError):
            protocol.table_from_wire(wire)

    def test_answer_must_be_an_object(self):
        with pytest.raises(ProtocolError):
            protocol.table_from_wire(["columns"])


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(allow_nan=False),
    st.text(max_size=12), st.sampled_from(["<f8", "|b1", "<i8", "str", "O", "AAAA", "g", "x"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)


def mutations():
    """One edit of a valid answer payload: replace any field (a column's
    spec, one of its entries, or a top-level key) with an arbitrary JSON
    value, delete it, or cut or flip its base64 text."""
    path = st.sampled_from([
        ("name",), ("num_rows",), ("column_order",), ("columns",), ("digest",),
        ("columns", "g"), ("columns", "x"), ("columns", "s"),
        ("columns", "g", "dtype"), ("columns", "g", "b64"),
        ("columns", "x", "dtype"), ("columns", "x", "b64"),
        ("columns", "s", "dtype"), ("columns", "s", "values"),
    ])
    replace = st.tuples(st.just("replace"), path, JSON_VALUES)
    delete = st.tuples(st.just("delete"), path, st.none())
    buffers = st.sampled_from([("columns", "g", "b64"), ("columns", "x", "b64")])
    cut = st.tuples(st.just("cut"), buffers, st.integers(0, 15))
    flip = st.tuples(st.just("flip"), buffers,
                     st.tuples(st.integers(0, 15), st.sampled_from("AZaz09+/=-_ .")))
    return st.lists(st.one_of(replace, delete, cut, flip), min_size=1, max_size=3)


def apply_mutation(wire, op, path, arg):
    parent = wire
    for key in path[:-1]:
        if not isinstance(parent, dict) or key not in parent:
            return
        parent = parent[key]
    key = path[-1]
    if not isinstance(parent, dict):
        return
    if op == "replace":
        parent[key] = arg
    elif op == "delete":
        parent.pop(key, None)
    elif isinstance(parent.get(key), str):
        text = parent[key]
        if op == "cut":
            parent[key] = text[:arg]
        elif arg[0] < len(text):
            parent[key] = text[:arg[0]] + arg[1] + text[arg[0] + 1:]


class TestDecodeFuzz:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutations())
    def test_malformed_payload_is_a_protocol_error_or_the_right_table(self, edits):
        wire = valid_wire()
        original = protocol.table_from_wire(valid_wire())
        for op, path, arg in edits:
            apply_mutation(wire, op, path, arg)
        try:
            table = protocol.table_from_wire(wire)
        except ProtocolError:
            return
        if table is None:  # the edits removed the columns: a digest-only payload
            assert "columns" not in wire or wire["columns"] is None
            return
        # Anything accepted is the table that was sent, bit for bit.
        assert protocol.table_digest(table) == protocol.table_digest(original)
        assert_bit_equal(table, original)


# -- the service ----------------------------------------------------------------------

class FakeVersionServer:
    """A listener that answers ``hello`` with a chosen protocol version."""

    def __init__(self, version):
        self.version = version
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn:
            for request in protocol.read_messages(conn):
                protocol.send_message(conn, protocol.ok_response(
                    request["id"], session_id="s-1", tenant="t",
                    protocol_version=self.version, queries=[],
                ))
                if request.get("op") == "close":
                    return

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5.0)


class TestVersion:
    def test_hello_echoes_version_2(self, tiny_tpcds):
        assert protocol.PROTOCOL_VERSION == 2
        server = QueryServer(QueryService(tiny_tpcds, ServiceConfig(num_workers=1))).start()
        try:
            with ServiceClient(*server.address, timeout=30.0) as client:
                assert client.hello()["protocol_version"] == 2
        finally:
            server.stop()

    @pytest.mark.parametrize("version", [1, 3, None, "2"])
    def test_client_refuses_other_versions(self, version):
        fake = FakeVersionServer(version)
        try:
            with ServiceClient(*fake.address, timeout=10.0) as client:
                with pytest.raises(ProtocolError, match="protocol version"):
                    client.hello()
        finally:
            fake.close()


class TestNoDelay:
    def test_both_ends_set_tcp_nodelay(self, tiny_tpcds):
        server = QueryServer(QueryService(tiny_tpcds, ServiceConfig(num_workers=1))).start()
        try:
            with ServiceClient(*server.address, timeout=30.0) as client:
                assert client.ping()  # the server has accepted by now
                assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                with server._conn_lock:
                    accepted = list(server._connections)
                assert len(accepted) == 1
                assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            server.stop()


class TestQueriesBuiltOnce:
    def test_each_builder_runs_once_per_service(self, tiny_tpcds):
        calls = {}

        def counted(name):
            def build(db):
                calls[name] = calls.get(name, 0) + 1
                return QUERY_BUILDERS[name](db)
            return build

        names = ("q07", "q15", "q12")
        config = ServiceConfig(
            num_workers=2,
            # Permanent queue pressure: q15's quickr plan serves one rung
            # down, so the governor plans more than one rung of it.
            governor=GovernorConfig(queue_pressure_fraction=0.0),
            audit=AuditorConfig(sample_fraction=1.0),
        )
        service = QueryService(tiny_tpcds, config,
                               query_builders={n: counted(n) for n in names}).start()
        try:
            session = service.open_session(tenant="t")
            degraded = 0
            for _ in range(4):
                for name in names:
                    for mode in ("quickr", "exact"):
                        payload = service.execute(session, name, mode=mode, timeout=60.0)
                        degraded += payload["degraded"] is not None
                        assert service.auditor.wait_drained(60.0)
            audited = service.registry.total("auditor.completed")
        finally:
            service.close()
        assert degraded > 0, "no governor rung below the requested one was planned"
        assert audited > 0, "the auditor replayed nothing"
        assert calls == {name: 1 for name in names}


    def test_racing_first_builds_share_one_query(self, tiny_tpcds):
        # More threads than cores race on every name's first build with a
        # tiny switch interval: a build may run more than once, but every
        # caller must get the one Query that was stored.
        service = QueryService(tiny_tpcds, ServiceConfig(num_workers=1))
        names = ("q07", "q15", "q12", "q01")
        seen = {name: [] for name in names}
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(timeout=30.0)
            for name in names:
                seen[name].append(service._queries.get(name))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for name in names:
            assert len(seen[name]) == 8
            assert all(query is seen[name][0] for query in seen[name]), name
            assert service._queries.get(name) is seen[name][0]


class TestServedEqualsLibrary:
    def test_all_24_queries_over_a_socket(self, tiny_tpcds, all_answers):
        server = QueryServer(QueryService(tiny_tpcds, ServiceConfig(num_workers=2))).start()
        try:
            with ServiceClient(*server.address, timeout=60.0) as client:
                client.hello(tenant="wire")
                for (name, mode), table in all_answers.items():
                    reply = client.query(name, mode=mode)
                    assert reply.degraded is None, (name, mode)
                    assert reply.digest == protocol.table_digest(table), (name, mode)
                    assert_bit_equal(reply.table, table)
        finally:
            server.stop()
