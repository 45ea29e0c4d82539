"""Tests for the central metrics registry."""

import json

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    OVERFLOW_LABELS,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("plan_cache.hits", plan="ab12")
        b = registry.counter("plan_cache.hits", plan="ab12")
        assert a is b
        a.inc()
        b.inc(2)
        assert registry.value("plan_cache.hits", plan="ab12") == 3.0

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("sampler.rows_out", address="r.0").inc(10)
        registry.counter("sampler.rows_out", address="r.1").inc(5)
        assert registry.value("sampler.rows_out", address="r.0") == 10.0
        assert registry.total("sampler.rows_out") == 15.0
        assert len(registry) == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        assert registry.counter("m", a="1", b="2") is registry.counter("m", b="2", a="1")

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("sampler.effective_rate", address="r.0")
        assert gauge.snapshot() is None
        gauge.set(0.097)
        gauge.set(0.101)
        assert registry.value("sampler.effective_rate", address="r.0") == 0.101

    def test_cross_kind_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("x")

    def test_value_absent_is_none_total_absent_is_zero(self):
        registry = MetricsRegistry()
        assert registry.value("never") is None
        assert registry.total("never") == 0.0


class TestHistogram:
    def test_percentiles_from_buckets(self):
        hist = Histogram(buckets=(0.01, 0.1, 1.0))
        for _ in range(98):
            hist.observe(0.005)
        hist.observe(0.5)
        hist.observe(2.0)
        assert hist.count == 100
        assert hist.percentile(0.5) == 0.01      # bucket upper bound
        assert hist.percentile(0.99) == 1.0
        assert hist.min == 0.005 and hist.max == 2.0
        assert hist.mean == pytest.approx((98 * 0.005 + 0.5 + 2.0) / 100)

    def test_percentile_clamped_to_max(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(0.2)
        assert hist.percentile(0.99) == 0.2  # never reports above the max seen

    def test_empty_percentile_is_none(self):
        assert Histogram().percentile(0.5) is None

    def test_default_buckets_span_operator_to_query_scale(self):
        assert DEFAULT_BUCKETS[0] <= 0.0001 and DEFAULT_BUCKETS[-1] >= 60.0

    def test_registry_histogram_snapshot_fields(self):
        registry = MetricsRegistry()
        registry.histogram("task_seconds", pool="thread").observe(0.02)
        snap = registry.snapshot()["histogram"]["task_seconds"][0]
        assert snap["labels"] == {"pool": "thread"}
        assert snap["count"] == 1 and snap["sum"] == pytest.approx(0.02)
        assert {"min", "max", "mean", "p50", "p95", "p99"} <= set(snap)


class TestHarvest:
    def test_snapshot_is_json_able_and_grouped(self):
        registry = MetricsRegistry()
        registry.counter("queries").inc(3)
        registry.gauge("rate", address="r").set(0.5)
        registry.histogram("seconds").observe(0.1)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["counter"]["queries"][0]["value"] == 3.0
        assert snap["gauge"]["rate"][0] == {"labels": {"address": "r"}, "value": 0.5}
        assert snap["histogram"]["seconds"][0]["count"] == 1

    def test_reset_returns_final_snapshot_then_zeroes(self):
        registry = MetricsRegistry()
        registry.counter("queries").inc(7)
        registry.histogram("seconds").observe(1.0)
        final = registry.reset()
        assert final["counter"]["queries"][0]["value"] == 7.0
        # Instruments survive (same objects, same length) but read zero.
        assert len(registry) == 2
        assert registry.value("queries") == 0.0
        assert registry.snapshot()["histogram"]["seconds"][0]["count"] == 0


class TestCardinalityGuard:
    def test_overflow_collapses_past_the_cap(self):
        registry = MetricsRegistry(max_labelsets_per_metric=4)
        for i in range(10):
            registry.counter("queries", tenant=f"t{i}").inc()
        # 4 real label-sets plus one shared overflow bucket.
        names = [
            (name, labels)
            for kind, name, labels, _ in registry.instruments()
            if name == "queries"
        ]
        assert len(names) == 5
        assert ("queries", OVERFLOW_LABELS) in names
        assert registry.value("queries", **OVERFLOW_LABELS) == 6.0
        assert registry.total("queries") == 10.0

    def test_overflow_counter_records_spills_per_metric(self):
        registry = MetricsRegistry(max_labelsets_per_metric=2)
        for i in range(5):
            registry.counter("a", t=f"{i}").inc()
            registry.counter("b", t=f"{i}").inc()
        assert registry.value(
            MetricsRegistry.OVERFLOW_COUNTER, metric="a"
        ) == 3.0
        assert registry.value(
            MetricsRegistry.OVERFLOW_COUNTER, metric="b"
        ) == 3.0

    def test_existing_labelsets_still_resolve_after_cap(self):
        registry = MetricsRegistry(max_labelsets_per_metric=2)
        first = registry.counter("m", t="0")
        registry.counter("m", t="1")
        registry.counter("m", t="2")  # overflows
        assert registry.counter("m", t="0") is first

    def test_unlabeled_metrics_never_overflow(self):
        registry = MetricsRegistry(max_labelsets_per_metric=1)
        registry.counter("plain").inc()
        registry.counter("labeled", t="a").inc()
        registry.counter("labeled", t="b").inc()  # overflow
        # The bare (no-label) instrument is exempt from the cap.
        registry.counter("plain").inc()
        assert registry.value("plain") == 2.0

    def test_overflowed_exposition_stays_valid_openmetrics(self):
        from repro.obs.export import render_openmetrics, validate_openmetrics

        registry = MetricsRegistry(max_labelsets_per_metric=2)
        for i in range(6):
            registry.counter("queries", tenant=f"t{i}").inc()
        text = render_openmetrics(registry)
        assert validate_openmetrics(text) == []
        assert 'overflow="true"' in text

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_labelsets_per_metric=0)
