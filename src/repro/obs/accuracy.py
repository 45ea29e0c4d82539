"""Answer scoring and the accuracy/SLO ledger: is the error bar we
returned actually honest?

:func:`compare_answers` is the one comparator of an approximate answer
with the exact one: it aligns the two on their group columns and returns
the paper's Section 5.1 metrics (missed groups, aggregation error) and
the CI coverage of the answer's ``__ci`` columns in one
:class:`ErrorMetrics`. The evaluation harness, the perf benchmark and the
auditor all score answers with it; :func:`compare_tables` is the form
for an answer that names its own aggregates through its ``__ci`` columns.

Quickr's contract is a cheap answer *with a calibrated confidence
interval*: each aggregate column ``x`` on a sampled answer carries an
``x__ci`` column holding the 95% CI half-width. Nothing in the serving
path verifies that promise — the ledger does. The background auditor
(:mod:`repro.service.auditor`) re-executes a fraction of served
approximate queries exactly and reports each comparison here; the ledger
maintains, per ``(tenant, sampler-kind, governor rung)``:

* **observed coverage** — the fraction of audited aggregate cells whose
  CI actually contained the exact value, to be compared against the
  nominal level (95%). A well-calibrated system hovers at or above
  nominal; systematically lower coverage means the variance estimates
  are optimistic for that slice of traffic.
* **relative error** — mean/max |approx - exact| / |exact| over audited
  cells (0 or 1 where the exact value is 0), the headline accuracy number.
* **missed groups** — group-by rows present exactly but absent from the
  sampled answer (small-group loss, the failure mode CI columns cannot
  express).

Separately the ledger tracks the **latency SLO error budget** per tenant:
every request is recorded with its latency and outcome; a violation is a
served answer over the SLO latency or a cancelled query. With an SLO
target of ``slo_target`` (e.g. 0.99 = 1% allowed violations), the burn
rate is ``observed_violation_rate / allowed_rate`` — burn > 1 means the
budget is being spent faster than the SLO allows.

The ledger keeps nothing of its own. Everything it learns is written to
the metrics registry (``accuracy.*`` and ``slo.*`` instruments), so the
scrape endpoint, the JSONL telemetry stream and
:meth:`AccuracyLedger.report` (the ``repro slo`` view) read the same
numbers, and a registry harvest zeroes all three together.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.engine.aggregate import CI_SUFFIX
from repro.engine.keys import pack_keys
from repro.obs.registry import OVERFLOW_LABELS, MetricsRegistry

__all__ = ["ErrorMetrics", "AccuracyLedger", "compare_answers", "compare_tables"]


@dataclass(frozen=True)
class ErrorMetrics:
    """One approximate answer scored against the exact answer: the paper's
    Section 5.1 metrics plus the audit of its ``__ci`` intervals."""

    #: Distinct groups in the exact answer.
    groups_exact: int
    #: Exact groups with no row in the approximate answer.
    groups_missed: int
    #: Mean and max relative error over the aggregate cells of the groups
    #: both answers hold (both values finite).
    aggregation_error: float
    max_aggregation_error: float
    #: Of those cells, the ones with a CI column ...
    cells_checked: int
    #: ... and the ones whose CI half-width covers the exact value.
    cells_covered: int

    @property
    def groups_matched(self) -> int:
        return self.groups_exact - self.groups_missed

    @property
    def missed_fraction(self) -> float:
        if self.groups_exact == 0:
            return 0.0
        return self.groups_missed / self.groups_exact


def _align(exact, approx, group_cols: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """``(exact_rows, approx_rows)``: the first row of each exact group, in
    exact-row order, and the approximate row holding the same group (-1
    where it is missed). Both answers' keys are packed together, so equal
    key tuples get equal codes; ``pack_keys`` parks every NaN of a column on
    one code, so a NaN key matches a NaN key (``group_codes`` would give
    each NaN row its own group). A key repeated within one answer keeps its
    first row; a scalar answer is its first row."""
    if not group_cols:
        exact_rows = np.arange(min(exact.num_rows, 1))
        return exact_rows, np.full(len(exact_rows), 0 if approx.num_rows else -1)
    key, _, _ = pack_keys(
        [np.concatenate([exact.column(c), approx.column(c)]) for c in group_cols]
    )
    codes = np.unique(key, return_inverse=True)[1]
    n = exact.num_rows
    exact_codes, exact_rows = np.unique(codes[:n], return_index=True)
    approx_codes, approx_first = np.unique(codes[n:], return_index=True)
    approx_row = np.full(len(codes), -1)
    approx_row[approx_codes] = approx_first
    order = np.argsort(exact_rows)
    return exact_rows[order], approx_row[exact_codes[order]]


def _relative_error(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """``|est - truth| / |truth|``; where the truth is zero (below 1e-12)
    the error is 0 for a zero estimate and 1 otherwise (the paper's rule)."""
    scale = np.abs(truth)
    zero = scale < 1e-12
    return np.where(
        zero,
        (np.abs(est) >= 1e-12).astype(np.float64),
        np.abs(est - truth) / np.where(zero, 1.0, scale),
    )


def compare_answers(
    exact, approx, group_cols: Sequence[str], agg_cols: Sequence[str]
) -> ErrorMetrics:
    """Align ``approx`` to ``exact`` on the group columns and score it: the
    groups it misses, the relative error of every aggregate cell the two
    share, and how many of its ``__ci`` intervals cover the exact value.
    The mean error is taken over the aggregates' error vectors joined
    aggregate by aggregate, each in exact-row order."""
    exact_rows, approx_rows = _align(exact, approx, group_cols)
    matched = approx_rows >= 0
    exact_rows, approx_rows = exact_rows[matched], approx_rows[matched]
    errors = [np.empty(0)]
    checked = covered = 0
    for alias in agg_cols:
        if not (exact.has_column(alias) and approx.has_column(alias)):
            continue
        truth = np.asarray(exact.column(alias), dtype=np.float64)[exact_rows]
        est = np.asarray(approx.column(alias), dtype=np.float64)[approx_rows]
        finite = np.isfinite(truth) & np.isfinite(est)
        truth, est = truth[finite], est[finite]
        errors.append(_relative_error(est, truth))
        if approx.has_column(alias + CI_SUFFIX):
            half = np.asarray(approx.column(alias + CI_SUFFIX), dtype=np.float64)
            checked += len(est)
            covered += int(np.count_nonzero(np.abs(est - truth) <= half[approx_rows][finite]))
    errors = np.concatenate(errors)
    return ErrorMetrics(
        groups_exact=len(matched),
        groups_missed=int(np.count_nonzero(~matched)),
        aggregation_error=float(np.mean(errors)) if len(errors) else 0.0,
        max_aggregation_error=float(np.max(errors)) if len(errors) else 0.0,
        cells_checked=checked,
        cells_covered=covered,
    )


def compare_tables(approx, exact) -> ErrorMetrics:
    """:func:`compare_answers` for an answer that carries its own structure:
    the columns with a ``__ci`` companion are the aggregates, every other
    column is a group key."""
    aggs = [c[: -len(CI_SUFFIX)] for c in approx.column_names if c.endswith(CI_SUFFIX)]
    keys = [c for c in approx.column_names if c not in aggs and not c.endswith(CI_SUFFIX)]
    return compare_answers(exact, approx, keys, aggs)


def _cell(labels: Dict[str, str]) -> Tuple[bool, str, str, str]:
    """Sort key and name of one calibration cell: ``(overflowed, tenant,
    kind, rung)``. A cell past the registry's label cap is the one
    ``{overflow="true"}`` series, reported as tenant, kind and rung
    ``"overflow"`` after every named cell."""
    return (
        labels == OVERFLOW_LABELS,
        labels.get("tenant", "overflow"),
        labels.get("kind", "overflow"),
        labels.get("rung", "overflow"),
    )


class AccuracyLedger:
    """Per-(tenant, sampler-kind, rung) calibration plus SLO burn.

    Keeps no tallies of its own: every record is a group of registry
    writes, and :meth:`report` reads them back. The lock spans each write
    group and the read, so a report never sees half an audit (more cells
    covered than checked) or half a request. Written by the auditor
    thread and the service workers, read by the scrape endpoint and
    ``repro slo``.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        nominal_coverage: float = 0.95,
        latency_slo_ms: Optional[float] = None,
        slo_target: float = 0.99,
    ):
        if not 0.0 < nominal_coverage < 1.0:
            raise ValueError("nominal_coverage must be in (0, 1)")
        if not 0.0 < slo_target < 1.0:
            raise ValueError("slo_target must be in (0, 1)")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.nominal_coverage = float(nominal_coverage)
        self.latency_slo_ms = latency_slo_ms
        self.slo_target = float(slo_target)
        self._lock = threading.Lock()

    # -- calibration side (auditor thread) -------------------------------------
    def record_audit(
        self,
        comparison: ErrorMetrics,
        tenant: str,
        sampler_kind: str,
        rung: str,
        audit_seconds: float,
    ) -> None:
        """One finished audit of a served answer in the slice ``(tenant,
        sampler_kind, rung)``."""
        labels = dict(tenant=tenant, kind=sampler_kind, rung=rung)
        registry = self.registry
        with self._lock:
            for name, amount in (
                ("accuracy.audits", 1),
                ("accuracy.cells_checked", comparison.cells_checked),
                ("accuracy.cells_covered", comparison.cells_covered),
                ("accuracy.groups_missed", comparison.groups_missed),
                ("accuracy.groups_matched", comparison.groups_matched),
                # Weighted by the cells it averages over, so the report's
                # sum / cells_checked is a per-cell mean.
                ("accuracy.rel_error_sum",
                 comparison.aggregation_error * max(1, comparison.cells_checked)),
            ):
                registry.counter(name, **labels).inc(amount)
            worst = registry.gauge("accuracy.max_rel_error", **labels)
            worst.set(max(worst.snapshot() or 0.0, comparison.max_aggregation_error))
            registry.histogram("accuracy.audit_seconds", **labels).observe(audit_seconds)
            checked = registry.counter("accuracy.cells_checked", **labels).snapshot()
            if checked:
                covered = registry.counter("accuracy.cells_covered", **labels).snapshot()
                registry.gauge("accuracy.observed_coverage", **labels).set(covered / checked)

    def record_abandoned(self, reason: str) -> None:
        self.registry.counter("accuracy.audits_abandoned", reason=reason).inc()

    # -- SLO side (service workers) --------------------------------------------
    def record_request(
        self, tenant: str, latency_seconds: Optional[float], cancelled: bool = False
    ) -> None:
        """One finished request: served (with its latency) or cancelled."""
        over_slo = (
            not cancelled
            and self.latency_slo_ms is not None
            and latency_seconds is not None
            and latency_seconds * 1000.0 > self.latency_slo_ms
        )
        registry = self.registry
        with self._lock:
            requests = registry.counter("slo.requests", tenant=tenant)
            requests.inc()
            if latency_seconds is not None:
                registry.counter("slo.latency_seconds", tenant=tenant).inc(latency_seconds)
            if cancelled or over_slo:
                registry.counter(
                    "slo.violations", tenant=tenant,
                    reason="cancelled" if cancelled else "latency",
                ).inc()
            violations = sum(
                registry.value("slo.violations", tenant=tenant, reason=reason) or 0.0
                for reason in ("cancelled", "latency")
            )
            registry.gauge("slo.error_budget_burn", tenant=tenant).set(
                self._burn(requests.snapshot(), violations)
            )

    def _burn(self, requests: float, violations: float) -> float:
        return (violations / requests) / (1.0 - self.slo_target)

    # -- reporting -------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The ``repro slo`` payload: calibration rows + per-tenant burn,
        read off the registry (slices with no record since the last
        harvest are left out)."""
        with self._lock:
            series: Dict[str, list] = {}
            for _, name, labels, instrument in self.registry.instruments():
                if name.startswith(("accuracy.", "slo.")):
                    series.setdefault(name, []).append((labels, instrument.snapshot()))
        calibration = self._calibration_rows(series)
        slo = self._slo_rows(series)
        abandoned = sum(value for _, value in series.get("accuracy.audits_abandoned", ()))
        return {
            "nominal_coverage": self.nominal_coverage,
            "latency_slo_ms": self.latency_slo_ms,
            "slo_target": self.slo_target,
            "calibration": calibration,
            "slo": slo,
            "audits_abandoned": int(abandoned),
        }

    def _calibration_rows(self, series: Dict[str, list]) -> list:
        """One row per cell with audits since the last harvest."""
        by_cell = {
            name: {_cell(labels): value for labels, value in rows}
            for name, rows in series.items()
        }

        def read(name, cell, default=0):
            value = by_cell.get(name, {}).get(cell)
            return default if value is None else value

        rows = []
        for cell, audits in sorted(by_cell.get("accuracy.audits", {}).items()):
            if not audits:
                continue
            checked = int(read("accuracy.cells_checked", cell))
            covered = int(read("accuracy.cells_covered", cell))
            rows.append({
                "tenant": cell[1],
                "sampler_kind": cell[2],
                "rung": cell[3],
                "audits": int(audits),
                "cells_checked": checked,
                "cells_covered": covered,
                "observed_coverage": covered / checked if checked else None,
                "nominal_coverage": self.nominal_coverage,
                "groups_matched": int(read("accuracy.groups_matched", cell)),
                "groups_missed": int(read("accuracy.groups_missed", cell)),
                "mean_rel_error": (
                    read("accuracy.rel_error_sum", cell) / checked if checked else None
                ),
                "max_rel_error": read("accuracy.max_rel_error", cell, 0.0),
                "audit_seconds": round(
                    read("accuracy.audit_seconds", cell, {}).get("sum", 0.0), 4
                ),
            })
        return rows

    def _slo_rows(self, series: Dict[str, list]) -> Dict[str, Dict[str, Any]]:
        """Per-tenant totals over the tenant's label sets (violations carry
        a reason label; the cancelled ones are counted apart too)."""
        tally: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name in ("slo.requests", "slo.latency_seconds", "slo.violations"):
            for labels, value in series.get(name, ()):
                entry = tally[labels.get("tenant", "overflow")]
                entry[name] += value
                if labels.get("reason") == "cancelled":
                    entry["cancelled"] += value
        out = {}
        for tenant, entry in sorted(tally.items()):
            requests, violations = int(entry["slo.requests"]), int(entry["slo.violations"])
            if requests:
                out[tenant] = {
                    "requests": requests,
                    "violations": violations,
                    "cancelled": int(entry["cancelled"]),
                    "mean_latency_ms": round(
                        entry["slo.latency_seconds"] / requests * 1000.0, 3
                    ),
                    "error_budget_burn": self._burn(requests, violations),
                }
        return out
