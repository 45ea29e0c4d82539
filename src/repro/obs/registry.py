"""Central metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per executor session absorbs the statistics
that previously lived in four disconnected structures (``PlanCache``
counters, the executor's compile/execute split, ``ParallelMetrics``
retry/speculation/degradation counts, per-sampler rows and weight mass),
keyed uniformly by metric name plus a label set — typically the plan
fingerprint and the node's structural address from
:mod:`repro.algebra.addressing`, so a metric line reads "sampler at
``r.0.1.0`` of plan ``ab12cd…`` emitted 11897 of 120034 rows".

Design points:

* **get-or-create instruments** — ``registry.counter("x", plan=fp)``
  returns the same :class:`Counter` for the same (name, labels) pair, so
  call sites never pre-register anything;
* **fixed-bucket histograms** — percentiles come from cumulative bucket
  counts (upper-bound reporting, exact min/max kept separately), bounded
  memory regardless of observation count;
* **snapshot()/reset()** — an explicit harvest boundary. ``snapshot()``
  returns a plain JSON-able dict; ``reset()`` zeroes every instrument (and
  returns the final pre-reset snapshot) so cold-vs-warm benchmark phases
  and repeated queries cannot bleed into each other.

Thread-safe: instrument creation takes the registry lock, and every
instrument carries its own lock guarding mutation *and* snapshot. A bare
``+=`` is not atomic in CPython (the load/add/store bytecodes can
interleave between threads, losing increments) — the query service drives
one registry from many session worker threads concurrently, so updates
must be exact, not merely non-crashing. The harvest boundary is equally
exact: ``reset()`` drains each instrument atomically under its own lock
(read-and-zero as one critical section), so an increment racing a harvest
lands either in the returned snapshot or in the next one — never in both,
never in neither.

Label cardinality is bounded: per-tenant/per-node labels fed by a load
generator could otherwise mint an unbounded number of label-sets per
metric. Past ``max_labelsets_per_metric`` distinct label-sets, further
novel label-sets collapse into a single ``{overflow="true"}`` bucket per
metric and the ``registry.labelset_overflow`` counter records the spill.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import log as obs_log

_LOG = obs_log.logger("obs.registry")

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "OVERFLOW_LABELS",
]

#: Default histogram buckets (seconds-oriented, exponential): good for both
#: sub-millisecond operator timings and multi-second query wall clocks.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelKey = Tuple[Tuple[str, str], ...]

#: Label-set novel label-sets collapse into once a metric hits the
#: cardinality cap.
OVERFLOW_LABELS: Dict[str, str] = {"overflow": "true"}


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> float:
        with self._lock:
            return self.value

    def drain(self) -> float:
        """Atomically read-and-zero: the harvest boundary. An increment
        racing the harvest lands in exactly one snapshot."""
        with self._lock:
            value, self.value = self.value, 0.0
            return value


class Gauge:
    """Last-set value (e.g. effective sampling rate, weight mass)."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        """Atomically adjust the gauge (e.g. queue depth up/down)."""
        with self._lock:
            self.value = (self.value or 0.0) + float(delta)

    def snapshot(self) -> Optional[float]:
        with self._lock:
            return self.value

    def drain(self) -> Optional[float]:
        with self._lock:
            value, self.value = self.value, None
            return value


class Histogram:
    """Fixed-bucket histogram with cumulative-count percentiles."""

    __slots__ = ("buckets", "counts", "count", "total", "min", "max", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        # counts[i] observes values <= buckets[i]; the final slot is overflow.
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def _percentile_locked(self, q: float) -> Optional[float]:
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target:
                upper = self.buckets[i] if i < len(self.buckets) else self.max
                return min(upper, self.max) if self.max is not None else upper
        return self.max

    def percentile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the ``q``-quantile observation
        (clamped to the exact max; ``None`` when empty)."""
        with self._lock:
            return self._percentile_locked(q)

    @property
    def mean(self) -> Optional[float]:
        with self._lock:
            return self.total / self.count if self.count else None

    def _snapshot_locked(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count if self.count else None,
        }
        if self.count:
            out["p50"] = self._percentile_locked(0.50)
            out["p95"] = self._percentile_locked(0.95)
            out["p99"] = self._percentile_locked(0.99)
        return out

    def snapshot(self) -> dict:
        with self._lock:
            return self._snapshot_locked()

    def bucket_counts(self) -> Tuple[Tuple[float, ...], List[int]]:
        """(bucket upper bounds, per-bucket counts incl. overflow slot) —
        the raw material of the OpenMetrics cumulative-bucket encoding."""
        with self._lock:
            return self.buckets, list(self.counts)

    def _reset_locked(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def drain(self) -> dict:
        with self._lock:
            out = self._snapshot_locked()
            self._reset_locked()
            return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Name+labels-keyed store of counters, gauges and histograms.

    ``max_labelsets_per_metric`` caps the distinct label-sets one metric
    may hold; past the cap, novel label-sets collapse into a shared
    ``{overflow="true"}`` bucket (counted in ``registry.labelset_overflow``)
    so a hostile or merely enthusiastic label source cannot grow registry
    memory without bound.
    """

    #: Name of the counter recording label-set spills, labeled by metric.
    OVERFLOW_COUNTER = "registry.labelset_overflow"

    def __init__(self, max_labelsets_per_metric: int = 512):
        if max_labelsets_per_metric < 1:
            raise ValueError("max_labelsets_per_metric must be positive")
        self.max_labelsets_per_metric = int(max_labelsets_per_metric)
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, str, LabelKey], Any] = {}
        #: Distinct label-sets per (kind, name) — the cardinality the cap
        #: is held over.
        self._labelset_counts: Dict[Tuple[str, str], int] = {}
        self._overflow_warned: set = set()

    # -- get-or-create --------------------------------------------------------
    def _get(self, kind: str, name: str, labels: Dict[str, Any], **kwargs):
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is not None:
            return instrument
        overflowed = False
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                existing_kinds = {k for k, n, _ in self._instruments if n == name}
                if existing_kinds and kind not in existing_kinds:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{sorted(existing_kinds)[0]}, cannot re-register as {kind}"
                    )
                count_key = (kind, name)
                if (
                    labels
                    and labels != OVERFLOW_LABELS
                    and name != self.OVERFLOW_COUNTER
                    and self._labelset_counts.get(count_key, 0)
                    >= self.max_labelsets_per_metric
                ):
                    # Cardinality cap hit: collapse into the overflow bucket.
                    overflowed = True
                    key = (kind, name, _label_key(OVERFLOW_LABELS))
                    instrument = self._instruments.get(key)
                    if instrument is None:
                        instrument = _KINDS[kind](**kwargs)
                        self._instruments[key] = instrument
                else:
                    instrument = _KINDS[kind](**kwargs)
                    self._instruments[key] = instrument
                    self._labelset_counts[count_key] = (
                        self._labelset_counts.get(count_key, 0) + 1
                    )
        if overflowed:
            self.counter(self.OVERFLOW_COUNTER, metric=name).inc()
            if name not in self._overflow_warned:
                self._overflow_warned.add(name)
                _LOG.warning(
                    "metric %r hit the label-cardinality cap (%d label-sets); "
                    "further novel label-sets collapse into overflow=true",
                    name, self.max_labelsets_per_metric,
                )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        if buckets is None:
            return self._get("histogram", name, labels)
        return self._get("histogram", name, labels, buckets=buckets)

    # -- harvest --------------------------------------------------------------
    def instruments(self) -> List[Tuple[str, str, Dict[str, str], Any]]:
        """Stable-ordered ``(kind, name, labels, instrument)`` rows — the
        raw view the OpenMetrics exporter renders from (histograms expose
        their bucket counts only through the live instrument)."""
        with self._lock:
            items = sorted(self._instruments.items(), key=lambda kv: kv[0])
        return [
            (kind, name, dict(label_key), instrument)
            for (kind, name, label_key), instrument in items
        ]

    def _harvest(self, read) -> dict:
        """``{kind: {name: [{"labels": …, …}, …]}}`` of ``read(instrument)``."""
        out: Dict[str, Dict[str, List[dict]]] = {}
        for kind, name, labels, instrument in self.instruments():
            entry = {"labels": labels}
            value = read(instrument)
            if isinstance(value, dict):
                entry.update(value)
            else:
                entry["value"] = value
            out.setdefault(kind, {}).setdefault(name, []).append(entry)
        return out

    def snapshot(self) -> dict:
        """Plain-dict view: ``{kind: {name: [{"labels": …, …}, …]}}``."""
        return self._harvest(lambda instrument: instrument.snapshot())

    def reset(self) -> dict:
        """Zero every instrument; returns the final pre-reset snapshot.

        Each instrument is *drained* — read and zeroed under its own lock
        as one critical section — so an increment racing the harvest is
        counted exactly once: either in the snapshot returned here or in
        the next one. (A snapshot-then-zero sequence would lose increments
        landing between the two steps.)
        """
        return self._harvest(lambda instrument: instrument.drain())

    # -- conveniences ---------------------------------------------------------
    def value(self, name: str, **labels: Any) -> Any:
        """Current value of a counter/gauge (0/None if never touched)."""
        for kind in ("counter", "gauge"):
            instrument = self._instruments.get((kind, name, _label_key(labels)))
            if instrument is not None:
                return instrument.snapshot()
        return None

    def total(self, name: str) -> float:
        """Sum of a counter across every label set (0.0 when absent)."""
        return sum(
            inst.snapshot()
            for (kind, n, _), inst in self._instruments.items()
            if kind == "counter" and n == name
        )

    def __len__(self) -> int:
        return len(self._instruments)
