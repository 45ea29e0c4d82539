"""One cumulative store: every report is a read of the metrics registry.

``one_store_golden.json`` holds what the reports said when each kept its
own tallies beside the registry: the accuracy ledger's report over a
seeded sequence of calls, the service's counts over a scripted query mix,
and an executor's plan-cache block across a harvest. The views must
reproduce it exactly — integer counts stay integers, float sums bit-equal.
Rewrite the file only for an intended change:
``PYTHONPATH=src python -m tests.obs.test_one_store``.
"""

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.engine.executor import Executor
from repro.errors import AdmissionRejected, GovernanceError
from repro.obs.accuracy import AccuracyLedger, ErrorMetrics
from repro.obs.registry import MetricsRegistry
from repro.optimizer.planner import QuickrPlanner
from repro.service.admission import AdmissionConfig
from repro.service.auditor import AuditorConfig
from repro.service.governor import GovernorConfig
from repro.service.server import QueryService, ServiceConfig
from repro.workloads.tpcds import QUERY_BUILDERS, query_by_name

GOLDEN = Path(__file__).with_name("one_store_golden.json")

TENANTS = ("ads", "bi", "etl", "ml")
KINDS = ("uniform", "distinct", "universe+uniform")
RUNGS = ("quickr", "quickr-coarse", "quickr-select")
ABANDON_REASONS = ("preempted", "queue-full", "replay-failed")


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _random_comparison(rng) -> ErrorMetrics:
    groups = int(rng.integers(0, 30))
    checked = int(rng.integers(0, 40)) if rng.random() > 0.15 else 0
    error = float(rng.random() * 0.2)
    return ErrorMetrics(
        groups_exact=groups,
        groups_missed=int(rng.integers(0, groups + 1)),
        aggregation_error=error,
        max_aggregation_error=error * (1.0 + float(rng.random())),
        cells_checked=checked,
        cells_covered=int(rng.integers(0, checked + 1)),
    )


def scripted_ledger(registry=None, calls=200, seed=38) -> AccuracyLedger:
    """A ledger fed a fixed, seeded mix of audits, requests and abandoned
    audits over several tenants, sampler kinds and rungs."""
    ledger = AccuracyLedger(registry, latency_slo_ms=80.0, slo_target=0.95)
    rng = np.random.default_rng(seed)
    for _ in range(calls):
        draw = rng.random()
        tenant = _pick(rng, TENANTS)
        if draw < 0.55:
            comparison = _random_comparison(rng)
            ledger.record_audit(
                comparison, tenant, _pick(rng, KINDS), _pick(rng, RUNGS),
                float(rng.exponential(0.02)),
            )
        elif draw < 0.95:
            cancelled = bool(rng.random() < 0.1)
            latency = None if cancelled and rng.random() < 0.5 else float(rng.exponential(0.04))
            ledger.record_request(tenant, latency, cancelled=cancelled)
        else:
            ledger.record_abandoned(_pick(rng, ABANDON_REASONS))
    return ledger


def _slow_q12(db):
    time.sleep(0.3)
    return query_by_name(db, "q12")


#: (session, query, mode, deadline_ms): served clean, served one rung down
#: (permanent queue pressure coarsens q15's uniform sampler), exact,
#: rejected at submit (expired deadline) and cancelled mid-flight.
SERVICE_SCRIPT = (
    ("ads", "q07", "quickr", None),
    ("ads", "q15", "quickr", None),
    ("bi", "q12", "exact", None),
    ("bi", "q07", "quickr", -5.0),
    ("ads", "slow", "quickr", 50.0),
    ("bi", "q15", "quickr", None),
    ("ads", "q07", "exact", None),
    ("ads", "q12", "quickr", None),
)


def scripted_service_stats(db) -> dict:
    """``QueryService.stats()`` after :data:`SERVICE_SCRIPT`, one worker and
    an auditor that replays every approximate answer before the next query
    (so no audit is preempted), minus the runtime estimates (wall clocks)."""
    config = ServiceConfig(
        num_workers=1,
        admission=AdmissionConfig(max_queue_depth=16, tenant_quota=8),
        governor=GovernorConfig(queue_pressure_fraction=0.0),
        audit=AuditorConfig(sample_fraction=1.0),
    )
    builders = {**QUERY_BUILDERS, "slow": _slow_q12}
    service = QueryService(db, config, query_builders=builders).start()
    try:
        sessions = {t: service.open_session(tenant=t) for t in ("ads", "bi", "gone")}
        service.sessions.close(sessions["gone"].session_id)
        for tenant, name, mode, deadline_ms in SERVICE_SCRIPT:
            try:
                service.execute(sessions[tenant], name, mode=mode,
                                deadline_ms=deadline_ms, timeout=60.0)
            except (AdmissionRejected, GovernanceError):
                pass
            assert service.auditor.wait_drained(60.0)
        stats = service.stats()
    finally:
        service.close()
    stats.pop("runtime_estimates")
    return stats


PLAN_CACHE_SCRIPT = ("q07", "q12", "q07", "q15", "q19", "q12", "q07")


def scripted_plan_cache(db) -> dict:
    """``Executor.timings()["plan_cache"]`` over a two-entry cache (hits,
    misses and evictions), then again after a harvest and one query."""
    planner = QuickrPlanner(db)
    executor = Executor(db, plan_cache_size=2)
    for name in PLAN_CACHE_SCRIPT:
        executor.execute(planner.plan(query_by_name(db, name)).plan)
    executor.execute(planner.plan_baseline(query_by_name(db, "q07")).plan)
    before = executor.timings()["plan_cache"]
    executor.reset_metrics()
    executor.execute(planner.plan(query_by_name(db, "q12")).plan)
    return {"before_reset": before, "after_reset": executor.timings()["plan_cache"]}


def _canonical(payload) -> str:
    """Exact text of a payload: ``1`` and ``1.0`` differ, floats are
    written to the bit."""
    return json.dumps(payload, sort_keys=True)


def _golden(key):
    return _canonical(json.loads(GOLDEN.read_text(encoding="utf-8"))[key])


class TestSameNumbers:
    def test_ledger_report(self):
        assert _canonical(scripted_ledger().report()) == _golden("ledger")

    def test_service_counts(self, tiny_tpcds):
        assert _canonical(scripted_service_stats(tiny_tpcds)) == _golden("service_stats")

    def test_plan_cache_block(self, tiny_tpcds):
        assert _canonical(scripted_plan_cache(tiny_tpcds)) == _golden("plan_cache")


class TestOneHarvest:
    def test_reset_zeroes_every_report_together(self, tiny_tpcds):
        service = QueryService(
            tiny_tpcds, ServiceConfig(num_workers=1), query_builders=dict(QUERY_BUILDERS)
        ).start()
        try:
            session = service.open_session(tenant="ads")
            for name in ("q07", "q07", "q12"):
                service.execute(session, name, timeout=60.0)
            service.sessions.close(session.session_id)
            scripted_ledger(service.registry, calls=60)
            assert service.stats()["plan_cache"]["hits"] == 1
            service.registry.reset()
            stats = service.stats()
            report = service.ledger.report()
            timings = service.executor.timings()["plan_cache"]
        finally:
            service.close()
        assert report["calibration"] == [] and report["slo"] == {}
        assert report["audits_abandoned"] == 0
        assert {stats["sessions"][k] for k in ("opened", "closed", "live")} == {0}
        assert stats["queries"] == {"served": 0, "rejected": 0}
        assert {timings[k] for k in ("hits", "misses", "evictions")} == {0}
        assert timings == stats["plan_cache"] and timings["size"] == 2

    def test_report_taken_mid_write_is_consistent(self):
        registry = MetricsRegistry()
        ledger = AccuracyLedger(registry, latency_slo_ms=1.0)
        stop = threading.Event()

        def write(seed):
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                checked = int(rng.integers(1, 50))
                ledger.record_audit(
                    ErrorMetrics(4, 1, 0.1, 0.2, checked, checked), "ads", "uniform",
                    "quickr", 0.001,
                )
                ledger.record_request("ads", 0.5)  # over the 1 ms SLO: a violation

        writers = [threading.Thread(target=write, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for writer in writers:
                writer.start()
            for _ in range(200):
                report = ledger.report()
                for row in report["calibration"]:
                    assert row["cells_covered"] == row["cells_checked"]
                for entry in report["slo"].values():
                    assert entry["violations"] == entry["requests"]
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for writer in writers:
                writer.join(timeout=30.0)
        assert not any(writer.is_alive() for writer in writers)
        # The rows are the registry's series, read back.
        [row] = ledger.report()["calibration"]
        labels = dict(tenant="ads", kind="uniform", rung="quickr")
        assert row["audits"] == registry.value("accuracy.audits", **labels)
        assert row["groups_matched"] == 3 * row["audits"]
        assert row["groups_matched"] == registry.value("accuracy.groups_matched", **labels)
        seconds = registry.histogram("accuracy.audit_seconds", **labels).snapshot()
        assert seconds["count"] == row["audits"]

    def test_cells_past_the_label_cap_are_one_overflow_row(self):
        registry = MetricsRegistry(max_labelsets_per_metric=3)
        ledger = AccuracyLedger(registry)
        for index in range(6):
            ledger.record_audit(
                ErrorMetrics(2, 0, 0.05, 0.1, 4, 3), f"t{index}", "uniform", "quickr", 0.01
            )
            ledger.record_request(f"t{index}", 0.01)
        report = ledger.report()
        rows = report["calibration"]
        assert [row["tenant"] for row in rows] == ["t0", "t1", "t2", "overflow"]
        assert rows[-1]["sampler_kind"] == rows[-1]["rung"] == "overflow"
        assert rows[-1]["audits"] == 3 and rows[-1]["cells_checked"] == 12
        assert sorted(report["slo"]) == ["overflow", "t0", "t1", "t2"]
        assert report["slo"]["overflow"]["requests"] == 3
        assert sum(row["audits"] for row in rows) == registry.total("accuracy.audits") == 6


if __name__ == "__main__":
    from repro.workloads.tpcds import generate_tpcds

    database = generate_tpcds(scale=0.08, seed=3)
    golden = {
        "ledger": scripted_ledger().report(),
        "service_stats": scripted_service_stats(database),
        "plan_cache": scripted_plan_cache(database),
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
