"""Observability: tracing, metrics and logging for the whole pipeline.

One coherent layer replaces the scattered ad-hoc stats the system grew
organically (``PlanCache`` counters, ``ParallelMetrics``, the fault
ledger, per-operator rows/time):

* :mod:`repro.obs.trace` — a zero-dependency span tracer. Spans carry
  attributes, nest by thread-local context, survive pickling across worker
  processes (serializable buffers spliced back into the parent trace), and
  export both a Chrome/Perfetto ``trace_event`` JSON file and a human tree
  view.
* :mod:`repro.obs.registry` — a central :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms, keyed by metric name plus
  labels (plan fingerprint, node address, sampler kind, ...), with explicit
  ``snapshot()``/``reset()`` so repeated runs cannot bleed into each other.
* :mod:`repro.obs.log` — the stdlib ``logging`` hierarchy rooted at
  ``repro`` (NullHandler by default; ``configure()`` wires a stream handler
  for the CLI's ``--log-level`` flag).
* :mod:`repro.obs.explain` — the ``explain-analyze`` renderer: the
  annotated operator tree (estimated vs. actual rows, sampler accuracy
  telemetry, C1/C2 dominance-check values).
* :mod:`repro.obs.export` — the production telemetry plane's egress:
  OpenMetrics/Prometheus text exposition, a ``/metrics`` scrape endpoint,
  and a periodic JSONL snapshot writer.
* :mod:`repro.obs.accuracy` — the one answer comparator (missed groups,
  aggregation error, CI coverage) and the accuracy/SLO ledger:
  per-(tenant, sampler-kind, rung) CI-coverage calibration fed by
  exact-replay audits, plus latency-SLO error-budget burn.
* :mod:`repro.obs.flight` — the flight recorder: a bounded ring of recent
  queries' spans and decisions, dumped as postmortem bundles on bad
  endings.

Everything is optional and pay-for-play: with no tracer installed and no
registry consulted, the instrumented hot paths cost one ``is None`` branch.
"""

from repro.obs.accuracy import AccuracyLedger, ErrorMetrics, compare_tables
from repro.obs.export import (
    MetricsHTTPServer,
    TelemetrySnapshotWriter,
    render_openmetrics,
    validate_openmetrics,
)
from repro.obs.flight import FlightRecorder, QueryRecord, load_bundle, render_bundle
from repro.obs.log import configure as configure_logging
from repro.obs.log import logger
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    Span,
    Tracer,
    current_tracer,
    get_tracer,
    set_tracer,
    validate_chrome_trace,
)

__all__ = [
    "AccuracyLedger",
    "ErrorMetrics",
    "FlightRecorder",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "QueryRecord",
    "Span",
    "TelemetrySnapshotWriter",
    "Tracer",
    "compare_tables",
    "configure_logging",
    "current_tracer",
    "get_tracer",
    "load_bundle",
    "logger",
    "render_bundle",
    "render_openmetrics",
    "set_tracer",
    "validate_chrome_trace",
]
