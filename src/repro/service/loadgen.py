"""Load generator: many concurrent sessions against a running service.

Drives N client sessions from N threads (each its own TCP connection,
session and tenant), replays a deterministic per-session query schedule
drawn from the TPC-DS suite, and reports throughput (qps), latency
percentiles (p50/p95/p99, measured client-side over the full
request-to-answer round trip), the outcome mix (served vs. each rejection
reason vs. errors) and the digest of every served answer keyed by
(query, mode, rung) — the rung being the fidelity the governor actually
answered at (the mode itself, or a degradation-ladder rung such as
``quickr-coarse``). That is the hook the benchmark uses to assert that
full-fidelity answers are bit-identical to library-mode execution and that
every other rung at least agrees with itself.

Used three ways: in-process by ``benchmarks/bench_service_load.py``, from
the CLI as ``repro loadgen`` (the CI service-smoke job), and as a minimal
example of writing a client.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import AdmissionRejected, GovernanceError, ProtocolError, ServiceError
from repro.service.client import ServiceClient

__all__ = ["LoadConfig", "LoadReport", "run_load", "percentile"]


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Exact q-quantile (nearest-rank) of a sample; None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one load run."""

    sessions: int = 100
    queries_per_session: int = 3
    #: Tenant names assigned round-robin across sessions.
    tenants: Sequence[str] = ("alpha", "beta", "gamma", "delta")
    #: Queries sampled (seeded) per request; None = server's full suite.
    query_names: Optional[Sequence[str]] = None
    mode: str = "quickr"
    #: Per-query deadline forwarded to the service; None = none.
    deadline_ms: Optional[float] = None
    #: Client-side wait bound per request (covers queue + execution).
    timeout_seconds: float = 120.0
    seed: int = 1


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    sessions: int
    requests: int = 0
    served: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    #: Served answers that rode the degradation ladder (reply.degraded).
    degraded: int = 0
    #: Queries ended by the governance contract, keyed by reason code
    #: (``deadline`` / ``budget`` / ``client-disconnect`` / ...).
    cancelled: Dict[str, int] = field(default_factory=dict)
    errors: int = 0
    protocol_errors: int = 0
    wall_seconds: float = 0.0
    #: Client-observed round-trip latencies of *served* requests (seconds).
    latencies: List[float] = field(default_factory=list)
    #: (query, mode, rung) -> set of distinct served digests
    #: (1 = deterministic).
    digests: Dict[Any, set] = field(default_factory=dict)
    #: Server-side stats snapshot taken after the run.
    server_stats: Optional[Dict[str, Any]] = None

    @property
    def qps(self) -> float:
        return self.served / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_percentiles(self) -> Dict[str, Optional[float]]:
        return {
            "p50": percentile(self.latencies, 0.50),
            "p95": percentile(self.latencies, 0.95),
            "p99": percentile(self.latencies, 0.99),
            "max": max(self.latencies) if self.latencies else None,
        }

    def latency_histogram(self, num_buckets: int = 20) -> List[Dict[str, float]]:
        """Equal-width buckets over the observed latency range (for the CI
        artifact; exact percentiles above are the load-bearing numbers)."""
        if not self.latencies:
            return []
        low, high = min(self.latencies), max(self.latencies)
        width = (high - low) / num_buckets or 1e-9
        counts = [0] * num_buckets
        for value in self.latencies:
            counts[min(num_buckets - 1, int((value - low) / width))] += 1
        return [
            {"le_seconds": round(low + (i + 1) * width, 6), "count": counts[i]}
            for i in range(num_buckets)
        ]

    def summary(self) -> Dict[str, Any]:
        out = {
            "sessions": self.sessions,
            "requests": self.requests,
            "served": self.served,
            "rejected": dict(sorted(self.rejected.items())),
            "degraded": self.degraded,
            "cancelled": dict(sorted(self.cancelled.items())),
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "wall_seconds": round(self.wall_seconds, 3),
            "qps": round(self.qps, 2),
            "latency_seconds": {
                k: (round(v, 6) if v is not None else None)
                for k, v in self.latency_percentiles().items()
            },
            "distinct_digests_per_query": {
                f"{q}/{m}/{r}": len(d) for (q, m, r), d in sorted(self.digests.items())
            },
        }
        if self.server_stats is not None:
            admission = self.server_stats.get("admission", {})
            out["peak_queue_depth"] = admission.get("peak_queue_depth")
            out["max_queue_depth"] = admission.get("max_queue_depth")
        return out

    def write_json(self, path: str, **extra: Any) -> None:
        payload = {**self.summary(), **extra,
                   "latency_histogram": self.latency_histogram()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def _session_worker(host: str, port: int, config: LoadConfig, index: int,
                    start_barrier: threading.Barrier, report: LoadReport,
                    lock: threading.Lock) -> None:
    tenant = config.tenants[index % len(config.tenants)]
    rng = random.Random(config.seed * 10_007 + index)
    try:
        client = ServiceClient(host, port, timeout=config.timeout_seconds)
    except OSError:
        with lock:
            report.errors += config.queries_per_session
            report.requests += config.queries_per_session
        start_barrier.wait()
        return
    try:
        client.hello(tenant=tenant, mode=config.mode)
        names = list(config.query_names or client.queries)
        start_barrier.wait()  # all sessions fire together
        for _ in range(config.queries_per_session):
            name = rng.choice(names)
            t0 = time.perf_counter()
            try:
                reply = client.query(name, deadline_ms=config.deadline_ms)
            except AdmissionRejected as exc:
                with lock:
                    report.requests += 1
                    report.rejected[exc.reason] = report.rejected.get(exc.reason, 0) + 1
                continue
            except GovernanceError as exc:
                reason = exc.reason_code
                with lock:
                    report.requests += 1
                    report.cancelled[reason] = report.cancelled.get(reason, 0) + 1
                continue
            except ProtocolError:
                with lock:
                    report.requests += 1
                    report.protocol_errors += 1
                continue
            except (ServiceError, OSError):
                with lock:
                    report.requests += 1
                    report.errors += 1
                continue
            latency = time.perf_counter() - t0
            rung = config.mode if reply.degraded is None else reply.degraded["rung"]
            with lock:
                report.requests += 1
                report.served += 1
                if reply.degraded is not None:
                    report.degraded += 1
                report.latencies.append(latency)
                report.digests.setdefault((name, config.mode, rung), set()).add(reply.digest)
    except threading.BrokenBarrierError:
        pass
    finally:
        client.close()


def run_load(host: str, port: int, config: LoadConfig) -> LoadReport:
    """Run one load shape against a live server; returns the report."""
    report = LoadReport(sessions=config.sessions)
    lock = threading.Lock()
    barrier = threading.Barrier(config.sessions + 1, timeout=60.0)
    threads = [
        threading.Thread(
            target=_session_worker,
            args=(host, port, config, index, barrier, report, lock),
            name=f"loadgen-{index}",
            daemon=True,
        )
        for index in range(config.sessions)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()  # release every session at once
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.perf_counter() - t0
    try:
        with ServiceClient(host, port, timeout=30.0) as probe:
            report.server_stats = probe.stats()
    except (ServiceError, OSError):
        pass
    return report
