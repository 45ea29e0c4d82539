"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_plan_args(self):
        args = build_parser().parse_args(["plan", "q12", "--scale", "0.1"])
        assert args.query == "q12" and args.scale == 0.1

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_plan_command(self, capsys):
        assert main(["plan", "q02", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "approximable" in out
        # every node is printed with its stable address and fingerprint
        assert "plan fingerprint: " in out
        assert "\n  r " in out and "  r.0" in out
        # ... and with how many of its output columns the plan above reads
        assert "cols kept/total" in out

    def test_plan_unknown_query(self, capsys):
        assert main(["plan", "q99", "--scale", "0.08"]) == 2

    def test_plan_execute(self, capsys):
        assert main(["plan", "q15", "--scale", "0.08", "--execute"]) == 0
        assert "machine-hours gain" in capsys.readouterr().out

    def test_trace_command(self, capsys):
        assert main(["trace", "--queries", "2000"]) == 0
        assert "Figure 2b" in capsys.readouterr().out


class TestObservabilityCommands:
    def test_explain_analyze_single_query(self, capsys):
        assert main(["explain-analyze", "q02", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "explain analyze: q02" in out
        assert "plan fingerprint" in out
        assert "actual in -> out" in out
        assert "answer:" in out

    def test_explain_analyze_unknown_query(self, capsys):
        assert main(["explain-analyze", "q99", "--scale", "0.08"]) == 2

    def test_explain_analyze_all_queries(self, capsys):
        assert main(["explain-analyze", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        for name in ("q01", "q12", "q24"):
            assert f"explain analyze: {name}" in out

    def test_trace_flag_writes_valid_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(
            ["explain-analyze", "q02", "--scale", "0.08", "--trace", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert f"trace events to {path}" in out
        assert "never closed" not in out

        assert main(["validate-trace", str(path)]) == 0
        assert "schema OK, no unclosed spans" in capsys.readouterr().out

    def test_validate_trace_rejects_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"name": "x", "ph": "X", "dur": -1}]')
        assert main(["validate-trace", str(path)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_metrics_flag_writes_registry_snapshot(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            ["explain-analyze", "q02", "--scale", "0.08", "--metrics", str(path)]
        ) == 0
        assert f"metrics registry to {path}" in capsys.readouterr().out
        snapshot = json.loads(path.read_text())
        assert snapshot["timings"]["compile_seconds"] > 0
        assert snapshot["metrics"]["counter"]["executor.queries"][0]["value"] >= 1

    def test_log_level_flag_emits_planner_logs(self, capsys):
        assert main(["plan", "q02", "--scale", "0.08", "--log-level", "debug"]) == 0
        assert "repro." in capsys.readouterr().err


class TestStatsCatalogCommand:
    ARGS = ["--scale", "0.03", "--partitions", "4", "--tables", "store_sales,item"]

    def test_build_inspect_validate(self, capsys):
        from repro.workloads.tpcds import generate_tpcds

        db = generate_tpcds(scale=0.03, seed=1)
        assert main(["stats-catalog", "build", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "partition catalog (P=4)" in out
        lines = {line.split()[0]: line.split() for line in out.splitlines() if line.strip()}
        # table, layout, cluster column, partitions, rows summed over them.
        assert lines["store_sales"][:5] == [
            "store_sales", "range-cluster", "ss_sold_date_sk", "4",
            str(db.table("store_sales").num_rows),
        ]
        assert lines["item"][:5] == ["item", "round-robin", "-", "4", str(db.table("item").num_rows)]
        assert "built: 2 (table, partition-count) pair(s)" in out

        assert main(["stats-catalog", "inspect", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "store_sales (range-cluster)" in out and "item (round-robin)" in out
        header = next(line for line in out.splitlines() if "ss_sold_date_sk min" in line)
        assert header.split()[-1] == "distinct"

        assert main(["stats-catalog", "validate", *self.ARGS]) == 0
        assert "catalog consistent: 2 table(s) x 4 partition(s)" in capsys.readouterr().out

    def test_unknown_table_fails(self, capsys):
        assert main(["stats-catalog", "build", "--scale", "0.03", "--tables", "nope"]) == 1
        assert "unknown table(s): nope" in capsys.readouterr().out


class TestPostmortemCommand:
    @pytest.fixture()
    def dump_dir(self, tmp_path):
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(dump_dir=str(tmp_path))
        for name in ("q03", "q07"):
            record = recorder.record("s-1", "ads", name, "quickr")
            record.note("admission", "admitted", queue_depth=0)
            recorder.finish(record, "cancelled.deadline")
        return tmp_path

    def test_renders_newest_bundle_by_default(self, capsys, dump_dir):
        assert main(["postmortem", str(dump_dir)]) == 0
        out = capsys.readouterr().out
        assert "rendering newest of 2 bundle(s)" in out
        assert "postmortem: query q07" in out

    def test_list_enumerates_bundles(self, capsys, dump_dir):
        assert main(["postmortem", str(dump_dir), "--list"]) == 0
        out = capsys.readouterr().out
        assert out.count("postmortem-") == 2

    def test_direct_bundle_path(self, capsys, dump_dir):
        import os

        bundle = sorted(
            e for e in os.listdir(dump_dir) if e.startswith("postmortem-")
        )[0]
        assert main(["postmortem", str(dump_dir / bundle)]) == 0
        assert "postmortem: query q03" in capsys.readouterr().out

    def test_missing_path_fails(self, capsys, tmp_path):
        assert main(["postmortem", str(tmp_path / "nope")]) == 1


class TestSloCommand:
    def test_against_live_service(self, capsys, tiny_tpcds):
        import json

        from repro.service import QueryServer, ServiceClient, ServiceConfig
        from repro.service.auditor import AuditorConfig
        from repro.service.server import QueryService

        config = ServiceConfig(
            num_workers=2,
            audit=AuditorConfig(sample_fraction=1.0),
            latency_slo_ms=60_000.0,
        )
        service = QueryService(tiny_tpcds, config)
        server = QueryServer(service, port=0).start()
        try:
            host, port = server.address
            with ServiceClient(host, port, timeout=60.0) as client:
                client.hello(tenant="ads")
                client.query("q02")
            assert service.auditor.wait_drained(timeout=60.0)

            assert main(["slo", "--port", str(port), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["auditor"]["completed"] >= 1

            assert main(["slo", "--port", str(port)]) == 0
            out = capsys.readouterr().out
            assert "CI calibration" in out
            assert "latency SLO" in out and "ads" in out
        finally:
            server.stop()

    def test_connection_refused(self, capsys):
        assert main(["slo", "--port", "1"]) == 1
        captured = capsys.readouterr()
        assert "cannot connect" in (captured.out + captured.err).lower()
