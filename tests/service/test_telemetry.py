"""End-to-end tests of the service telemetry plane: the ``/metrics``
scrape endpoint, the JSONL telemetry stream, and flight-recorder
postmortem bundles produced by real (mis)behaving queries."""

import json
import time
import urllib.request

import pytest

from repro.obs.export import validate_openmetrics
from repro.obs.flight import load_bundle, render_bundle
from repro.service import QueryServer, ServiceClient, ServiceConfig
from repro.service.server import QueryService


@pytest.fixture()
def telemetry_service(tiny_tpcds, tmp_path):
    config = ServiceConfig(
        num_workers=2,
        metrics_port=0,
        telemetry_path=str(tmp_path / "telemetry.jsonl"),
        telemetry_interval_seconds=0.05,
        postmortem_dir=str(tmp_path / "postmortems"),
    )
    service = QueryService(tiny_tpcds, config)
    server = QueryServer(service, port=0).start()
    yield service, server, tmp_path
    server.stop()


def _scrape(service, path="/metrics"):
    host, port = service.metrics_address
    with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


class TestScrapeEndpoint:
    def test_metrics_valid_and_carries_service_series(self, telemetry_service):
        service, server, _ = telemetry_service
        host, port = server.address
        with ServiceClient(host, port, timeout=60.0) as client:
            client.hello(tenant="ads")
            client.query("q01")
        status, content_type, body = _scrape(service)
        assert status == 200
        assert content_type.startswith("application/openmetrics-text")
        assert validate_openmetrics(body) == []
        assert "repro_service_admitted_total" in body
        assert 'tenant="ads"' in body

    def test_healthz_reports_service_gauges(self, telemetry_service):
        service, _, _ = telemetry_service
        status, _, body = _scrape(service, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["ok"] is True
        assert health["queue_depth"] == 0
        assert health["draining"] is False
        assert health["audit_backlog"] == 0

    def test_metrics_address_none_without_endpoint(self, tiny_tpcds):
        service = QueryService(tiny_tpcds, ServiceConfig(num_workers=1))
        server = QueryServer(service, port=0).start()
        try:
            assert service.metrics_address is None
        finally:
            server.stop()


class TestTelemetryStream:
    def test_snapshots_accumulate_and_flush_on_close(self, telemetry_service):
        service, server, tmp_path = telemetry_service
        host, port = server.address
        with ServiceClient(host, port, timeout=60.0) as client:
            client.hello()
            client.query("q01")
        time.sleep(0.2)
        server.stop()
        lines = [json.loads(line) for line in
                 (tmp_path / "telemetry.jsonl").read_text().splitlines()]
        assert len(lines) >= 2
        for record in lines:
            assert {"ts", "metrics", "queue_depth"} <= set(record)
        admitted = [
            entry["value"]
            for record in lines
            for entry in record["metrics"].get("counter", {}).get(
                "service.admitted", [])
        ]
        assert admitted and max(admitted) >= 1.0


class TestPostmortems:
    def test_cancelled_query_dumps_renderable_bundle(self, telemetry_service, monkeypatch):
        service, server, tmp_path = telemetry_service
        host, port = server.address
        # Doom the query whatever the host's speed: admit it with a deadline
        # it would easily meet, then hold it at the engine's door until the
        # deadline has passed, so governance fires at the first checkpoint.
        engine = service.governor.executor
        execute = engine.execute

        def stalled(plan, governance=None):
            while not governance.expired():
                time.sleep(0.001)
            return execute(plan, governance=governance)

        monkeypatch.setattr(engine, "execute", stalled)
        with ServiceClient(host, port, timeout=60.0) as client:
            client.hello(tenant="ads")
            try:
                client.query("q06", deadline_ms=250.0)
            except Exception:  # noqa: BLE001 - cancelled/degraded both fine
                pass
        deadline = time.monotonic() + 10.0
        dump_dir = tmp_path / "postmortems"
        bundles = []
        while time.monotonic() < deadline and not bundles:
            if dump_dir.is_dir():
                bundles = sorted(
                    e for e in dump_dir.iterdir()
                    if e.name.startswith("postmortem-")
                )
            time.sleep(0.05)
        assert bundles, "no postmortem bundle written for a doomed query"
        bundle = str(bundles[-1])
        record = load_bundle(bundle)
        assert record["query"] == "q06" and record["tenant"] == "ads"
        assert record["outcome"].startswith(("cancelled", "served.degraded"))
        text = render_bundle(bundle)
        assert "postmortem: query q06" in text
        assert "decision trail:" in text

    def test_served_queries_leave_no_bundle(self, telemetry_service):
        service, server, tmp_path = telemetry_service
        host, port = server.address
        with ServiceClient(host, port, timeout=60.0) as client:
            client.hello()
            client.query("q01")
        dump_dir = tmp_path / "postmortems"
        bundles = [] if not dump_dir.is_dir() else [
            e for e in dump_dir.iterdir() if e.name.startswith("postmortem-")
        ]
        assert bundles == []
        # The flight ring still has the query's trail in memory.
        recent = service.flight.recent()
        assert any(r.query == "q01" and r.outcome == "served" for r in recent)


class TestSloSurface:
    def test_slo_op_reports_ledger_auditor_flight(self, telemetry_service):
        service, server, _ = telemetry_service
        host, port = server.address
        with ServiceClient(host, port, timeout=60.0) as client:
            client.hello(tenant="ads")
            client.query("q01")
            report = client.slo()
        assert report["slo"]["ads"]["requests"] >= 1
        assert report["auditor"]["enabled"] is False
        assert report["flight"]["recorded"] >= 1
        assert report["calibration"] == []
