"""Tests for the accuracy/SLO ledger and the audit comparison."""

import numpy as np
import pytest

from repro.engine.table import Table
from repro.obs.accuracy import AccuracyLedger, compare_tables
from repro.obs.registry import MetricsRegistry


def approx_table(values, ci, keys=None):
    cols = {"g": np.asarray(keys if keys is not None else range(len(values)))}
    cols["total"] = np.asarray(values, dtype=np.float64)
    cols["total__ci"] = np.asarray(ci, dtype=np.float64)
    return Table("approx", cols)


def exact_table(values, keys=None):
    cols = {"g": np.asarray(keys if keys is not None else range(len(values)))}
    cols["total"] = np.asarray(values, dtype=np.float64)
    return Table("exact", cols)


class TestCompareTables:
    def test_perfect_coverage(self):
        cmp = compare_tables(
            approx_table([10.0, 20.0], ci=[1.0, 1.0]),
            exact_table([10.5, 19.5]),
        )
        assert cmp.cells_checked == 2 and cmp.cells_covered == 2
        assert cmp.groups_matched == 2 and cmp.groups_missed == 0
        assert cmp.max_aggregation_error == pytest.approx(0.5 / 10.5)

    def test_ci_miss_counted(self):
        cmp = compare_tables(
            approx_table([10.0], ci=[0.1]), exact_table([12.0])
        )
        assert cmp.cells_checked == 1 and cmp.cells_covered == 0
        assert cmp.aggregation_error == pytest.approx(2.0 / 12.0)

    def test_missed_groups(self):
        # Exact has three groups; the sample only kept two.
        cmp = compare_tables(
            approx_table([10.0, 20.0], ci=[5.0, 5.0], keys=[0, 1]),
            exact_table([10.0, 20.0, 30.0], keys=[0, 1, 2]),
        )
        assert cmp.groups_missed == 1 and cmp.groups_matched == 2

    def test_non_finite_cells_skipped(self):
        cmp = compare_tables(
            approx_table([np.nan], ci=[1.0]), exact_table([10.0])
        )
        assert cmp.cells_checked == 0

    def test_nan_group_key_matches_itself(self):
        # Keys match by value, NaN included: Python hashes a NaN scalar by
        # identity, so rows keyed on their scalars would miss this group.
        keys = [1.0, np.nan]
        cmp = compare_tables(
            approx_table([10.0, 20.0], ci=[1.0, 1.0], keys=keys),
            exact_table([10.0, 20.0], keys=np.array(keys)),
        )
        assert cmp.groups_missed == 0 and cmp.groups_matched == 2
        assert cmp.cells_checked == 2 and cmp.cells_covered == 2

    def test_zero_truth_scores_zero_or_one(self):
        # The paper's rule, the one compare_answers applies: an exact 0
        # scores 0 for an estimate of 0 and 1 for any other, not |est|.
        cmp = compare_tables(
            approx_table([0.5, 0.0], ci=[1.0, 1.0]), exact_table([0.0, 0.0])
        )
        assert cmp.max_aggregation_error == 1.0
        assert cmp.aggregation_error == 0.5


class TestLedgerCalibration:
    def test_audits_aggregate_per_slice(self):
        ledger = AccuracyLedger(MetricsRegistry())
        for _ in range(2):
            cmp = compare_tables(
                approx_table([10.0, 20.0], ci=[1.0, 1.0]),
                exact_table([10.5, 19.5]),
            )
            ledger.record_audit(cmp, "ads", "uniform", "quickr", 0.0)
        report = ledger.report()
        [row] = report["calibration"]
        assert (row["tenant"], row["sampler_kind"], row["rung"]) == (
            "ads", "uniform", "quickr",
        )
        assert row["audits"] == 2
        assert row["cells_checked"] == 4 and row["observed_coverage"] == 1.0
        assert row["nominal_coverage"] == 0.95

    def test_registry_mirrors_calibration(self):
        registry = MetricsRegistry()
        ledger = AccuracyLedger(registry)
        cmp = compare_tables(
            approx_table([10.0], ci=[0.01]), exact_table([12.0])
        )
        ledger.record_audit(cmp, "t", "uniform", "quickr", 0.0)
        labels = dict(tenant="t", kind="uniform", rung="quickr")
        assert registry.value("accuracy.audits", **labels) == 1
        assert registry.value("accuracy.observed_coverage", **labels) == 0.0

    def test_abandoned_counted(self):
        registry = MetricsRegistry()
        ledger = AccuracyLedger(registry)
        ledger.record_abandoned("preempted")
        ledger.record_abandoned("queue-full")
        assert ledger.report()["audits_abandoned"] == 2
        assert registry.total("accuracy.audits_abandoned") == 2


class TestLedgerSLO:
    def test_burn_rate_math(self):
        # 1% budget; 2 violations out of 100 requests = burn 2.0.
        ledger = AccuracyLedger(latency_slo_ms=100.0, slo_target=0.99)
        for _ in range(98):
            ledger.record_request("ads", latency_seconds=0.01)
        ledger.record_request("ads", latency_seconds=0.5)   # over SLO
        ledger.record_request("ads", None, cancelled=True)  # cancelled
        entry = ledger.report()["slo"]["ads"]
        assert entry["requests"] == 100
        assert entry["violations"] == 2 and entry["cancelled"] == 1
        assert entry["error_budget_burn"] == pytest.approx(2.0)

    def test_no_latency_bound_counts_only_cancellations(self):
        ledger = AccuracyLedger(latency_slo_ms=None, slo_target=0.99)
        ledger.record_request("t", latency_seconds=999.0)
        ledger.record_request("t", None, cancelled=True)
        entry = ledger.report()["slo"]["t"]
        assert entry["violations"] == 1

    def test_burn_gauge_exported(self):
        registry = MetricsRegistry()
        ledger = AccuracyLedger(registry, latency_slo_ms=10.0, slo_target=0.9)
        ledger.record_request("t", latency_seconds=1.0)  # violation
        assert registry.value("slo.error_budget_burn", tenant="t") == pytest.approx(
            10.0
        )

    def test_invalid_targets_rejected(self):
        with pytest.raises(ValueError):
            AccuracyLedger(nominal_coverage=1.5)
        with pytest.raises(ValueError):
            AccuracyLedger(slo_target=0.0)
