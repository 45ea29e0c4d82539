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

Everything the ledger learns is mirrored into the metrics registry
(``accuracy.*`` and ``slo.*`` instruments), so the scrape endpoint and
the JSONL telemetry stream carry calibration state without extra wiring,
and :meth:`AccuracyLedger.report` renders the ``repro slo`` view.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.engine.aggregate import CI_SUFFIX
from repro.engine.keys import pack_keys
from repro.obs.registry import MetricsRegistry

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


@dataclass
class _CalibrationCell:
    """Running calibration totals for one (tenant, kind, rung)."""

    audits: int = 0
    cells_checked: int = 0
    cells_covered: int = 0
    groups_missed: int = 0
    groups_matched: int = 0
    rel_error_sum: float = 0.0
    rel_error_max: float = 0.0
    audit_seconds: float = 0.0

    @property
    def observed_coverage(self) -> Optional[float]:
        if self.cells_checked == 0:
            return None
        return self.cells_covered / self.cells_checked


@dataclass
class _TenantSLO:
    """Latency-SLO accounting for one tenant."""

    requests: int = 0
    violations: int = 0
    cancelled: int = 0
    latency_sum: float = 0.0


class AccuracyLedger:
    """Per-(tenant, sampler-kind, rung) calibration plus SLO burn.

    Thread-safe; written by the auditor thread and the service workers,
    read by the scrape endpoint and ``repro slo``.
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
        self._calibration: Dict[Tuple[str, str, str], _CalibrationCell] = {}
        self._slo: Dict[str, _TenantSLO] = {}
        #: Audits the auditor could not finish (preempted past the retry
        #: cap, or the replay itself failed).
        self.audits_abandoned = 0

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
        with self._lock:
            cell = self._calibration.get((tenant, sampler_kind, rung))
            if cell is None:
                cell = self._calibration[(tenant, sampler_kind, rung)] = _CalibrationCell()
            cell.audits += 1
            cell.cells_checked += comparison.cells_checked
            cell.cells_covered += comparison.cells_covered
            cell.groups_missed += comparison.groups_missed
            cell.groups_matched += comparison.groups_matched
            cell.rel_error_sum += comparison.aggregation_error * max(
                1, comparison.cells_checked
            )
            cell.rel_error_max = max(cell.rel_error_max, comparison.max_aggregation_error)
            cell.audit_seconds += audit_seconds
            coverage = cell.observed_coverage
        labels = dict(tenant=tenant, kind=sampler_kind, rung=rung)
        registry = self.registry
        registry.counter("accuracy.audits", **labels).inc()
        registry.counter("accuracy.cells_checked", **labels).inc(
            comparison.cells_checked
        )
        registry.counter("accuracy.cells_covered", **labels).inc(
            comparison.cells_covered
        )
        registry.counter("accuracy.groups_missed", **labels).inc(
            comparison.groups_missed
        )
        if coverage is not None:
            registry.gauge("accuracy.observed_coverage", **labels).set(coverage)
        registry.histogram("accuracy.audit_seconds").observe(audit_seconds)

    def record_abandoned(self, reason: str) -> None:
        with self._lock:
            self.audits_abandoned += 1
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
        violation = cancelled or over_slo
        with self._lock:
            slo = self._slo.get(tenant)
            if slo is None:
                slo = self._slo[tenant] = _TenantSLO()
            slo.requests += 1
            if latency_seconds is not None:
                slo.latency_sum += latency_seconds
            if cancelled:
                slo.cancelled += 1
            if violation:
                slo.violations += 1
            burn = self._burn_locked(slo)
        self.registry.counter("slo.requests", tenant=tenant).inc()
        if violation:
            self.registry.counter(
                "slo.violations",
                tenant=tenant,
                reason="cancelled" if cancelled else "latency",
            ).inc()
        if burn is not None:
            self.registry.gauge("slo.error_budget_burn", tenant=tenant).set(burn)

    def _burn_locked(self, slo: _TenantSLO) -> Optional[float]:
        if slo.requests == 0:
            return None
        allowed = 1.0 - self.slo_target
        return (slo.violations / slo.requests) / allowed

    # -- reporting -------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The ``repro slo`` payload: calibration rows + per-tenant burn."""
        with self._lock:
            calibration = [
                {
                    "tenant": tenant,
                    "sampler_kind": kind,
                    "rung": rung,
                    "audits": cell.audits,
                    "cells_checked": cell.cells_checked,
                    "cells_covered": cell.cells_covered,
                    "observed_coverage": cell.observed_coverage,
                    "nominal_coverage": self.nominal_coverage,
                    "groups_matched": cell.groups_matched,
                    "groups_missed": cell.groups_missed,
                    "mean_rel_error": (
                        cell.rel_error_sum / cell.cells_checked
                        if cell.cells_checked else None
                    ),
                    "max_rel_error": cell.rel_error_max,
                    "audit_seconds": round(cell.audit_seconds, 4),
                }
                for (tenant, kind, rung), cell in sorted(self._calibration.items())
            ]
            slo = {
                tenant: {
                    "requests": entry.requests,
                    "violations": entry.violations,
                    "cancelled": entry.cancelled,
                    "mean_latency_ms": (
                        round(entry.latency_sum / entry.requests * 1000.0, 3)
                        if entry.requests else None
                    ),
                    "error_budget_burn": self._burn_locked(entry),
                }
                for tenant, entry in sorted(self._slo.items())
            }
            abandoned = self.audits_abandoned
        return {
            "nominal_coverage": self.nominal_coverage,
            "latency_slo_ms": self.latency_slo_ms,
            "slo_target": self.slo_target,
            "calibration": calibration,
            "slo": slo,
            "audits_abandoned": abandoned,
        }
