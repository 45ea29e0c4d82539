"""One-command perf ledger for the Quickr reproduction.

    python3 benchmarks/perf/run.py --workload all --seed 1

prints every end-to-end and per-layer metric of ``BENCHMARK.json`` by name
with its unit for each of the four workloads, verifies every answer, and
writes one ledger JSON plus one ``trace-<workload>.json`` under
``benchmarks/perf/out/``. With a single ``--workload`` it is the command of
``BENCHMARK.json``: one measured run whose last output line is the result
object (``--trace 0``: end-to-end metrics, ``--trace 1``: per-layer metrics
from the traced run). See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BASELINES = os.path.join(HERE, "baselines")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"perf benchmark: no program to measure ({SRC}/repro is missing)")
#: Environment the measured processes run under (this one, the server it
#: spawns, the workers it forks), pinned by :func:`supervise`.
PINNED_ENV = {
    # ASALQA names a universe sampler's family with the builtin hash() of a
    # plan key, so which subspace gets sampled, and with it every Quickr
    # count and digest, changes from one interpreter to the next unless
    # the hash seed is fixed.
    "PYTHONHASHSEED": "0",
    # glibc malloc keeps freed memory instead of returning it to the kernel.
    # The guest reports free pages back to its host, so every large numpy
    # temporary is page-faulted in again from the host, and that cost moves
    # 7x with the host's state (factfact: 59k faults a pass, 0.13-0.88 s of
    # kernel time; with these settings 0 faults and 0.01 s).
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(8 << 30),
    "MALLOC_TOP_PAD_": str(256 << 20),
}
#: Set by :func:`supervise` to its own pid; the process whose parent that is
#: does the measuring. Anything further down (``--workload all`` starts this
#: file once per workload) has another parent and supervises itself.
SUPERVISOR = "QUICKR_PERF_SUPERVISOR"
#: Seconds an orphan gets to end by itself before it is killed.
ORPHAN_GRACE_S = 10.0


def child_pids() -> List[int]:
    """Processes whose parent is this one, from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().rpartition(b")")[2].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_descendants(grace_s: float) -> None:
    """Wait until every process below this one has ended; past the grace
    period, kill what is left (a killed parent's children come up next)."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for orphan in child_pids():
                os.kill(orphan, signal.SIGKILL)
        time.sleep(0.005)


def supervise() -> int:
    """Run this command as a child under ``PINNED_ENV`` and return its exit
    code once no process it started, directly or not, is left.

    The program's shared-memory transport starts ``multiprocessing``'s
    resource tracker, which ends only some time *after* the process it serves
    (it waits for its pipe to close, then sweeps), and a killed server would
    orphan its own the same way. This process makes itself the reaper of
    orphaned descendants, so they become its children and can be waited for
    on every path out, a crash or a SIGTERM included."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: orphans cannot be adopted, direct children still are

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    env = {**os.environ, **PINNED_ENV, SUPERVISOR: str(os.getpid())}
    child = subprocess.Popen([sys.executable] + sys.argv, env=env)
    try:
        return child.wait()
    finally:
        grace_s = ORPHAN_GRACE_S
        if child.poll() is None:  # interrupted: nothing left worth waiting for
            grace_s = 0.0
            child.kill()
            child.wait()
        reap_descendants(grace_s)


if __name__ == "__main__" and os.environ.get(SUPERVISOR) != str(os.getppid()):
    sys.exit(supervise())
sys.path.insert(0, SRC)

import numpy  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import verify  # noqa: E402
from harness import KINDS, WORKLOADS  # noqa: E402
from repro.obs.trace import validate_chrome_trace  # noqa: E402
from repro.service.loadgen import percentile  # noqa: E402
from spans import Off, Recorder, self_times, to_chrome  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}

#: Metrics that must repeat exactly between two runs of one commit at one
#: seed: the cost model's counts, the optimizer's decisions and the error
#: side (samplers are seeded, so the same data gives the same answers).
EXACT_PREFIXES = (
    "cost.", "planner.alternatives", "planner.approximable", "planner.gain_qerr",
    "prune.", "op.join_rows_out", "op.aggregate_rows_in", "sampler.pass_frac",
    "accuracy.", "mh_gain_x", "agg_accuracy", "ci_cover_frac",
)


def sample(values: List[float]) -> dict:
    """A timing as its best (smallest) observation, with the median,
    quartiles and sample count beside it.

    Interference on the shared 2-core box only ever adds time, in bursts:
    over ten-second windows of one fixed numpy kernel the median moved by
    21 % and the minimum by 6 %. The minimum estimates the undisturbed time,
    so it is what the ledger reports; the rest shows how noisy the run was."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": min(values), "n": len(values), "median": median, "q1": q1, "q3": q3}


# -- one workload, one run ------------------------------------------------------

class Run:
    """One measured run of one workload (the BENCHMARK.json command)."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.scale = self.workload.scale / 10.0 if smoke else self.workload.scale
        self.rec = Recorder() if trace else Off()
        self.verifier = verify.Verifier()
        self.setups: List[float] = []
        self.reps: List[Dict[str, harness.PassRun]] = []
        self.layer_counts: Dict[str, float] = {}

    def library(self, pool: Optional[str] = None) -> harness.LibraryPath:
        return harness.LibraryPath(self.workload, self.seed, self.scale, pool)

    def both_passes(self, path, rec) -> Dict[str, harness.PassRun]:
        return {kind: path.run_pass(kind, rec) for kind in KINDS}

    def measure(self) -> None:
        if self.workload.path == "serve":
            path = harness.ServePath(self.workload, self.seed, self.scale, SRC,
                                     random.Random(self.seed))
            try:
                self.setups = [path.setup() for _ in range(5)]
                self.layer_counts["serve.spawn_s"] = path.spawn()
                path.connect()
                self.reference(path)
                self.timed_reps(path)
                self.verifier.operation(path.shutdown(), "server exit inside drain window")
                self.layer_counts["serve.peak_queue_depth"] = path.peak_queue_depth
            finally:
                path.kill(path.process)
        else:
            path = self.library(harness.THREAD_POOL if self.workload.path == "parallel" else None)
            self.reference(path)
            self.timed_reps(path)
        if isinstance(self.rec, Recorder):
            self.one_shot_layers(path)
        self.verifier.shm_audit()

    def reference(self, path) -> None:
        """The untimed first repetition: fills lazy state, and its answers
        are what every timed repetition must repeat."""
        self.ref = self.both_passes(path, Off())
        self.library_ref = self.ref
        expected: Dict[verify.Key, str] = {}
        if self.workload.path != "serial":
            # Serial library answers of the same data: what parallel and
            # served answers must equal, and the speed-up's reference.
            self.library_ref = self.both_passes(self.library(), Off())
            for run in self.library_ref.values():
                expected.update(verify.digests(run.runs))
        for kind in KINDS:
            self.verifier.check_pass(
                self.ref[kind].runs, expected, "reference",
                skip_distinct=self.workload.path == "parallel",
            )
        self.expected = {}
        for run in self.ref.values():
            self.expected.update(verify.digests(run.runs))

    def timed_reps(self, path) -> None:
        deadline = time.perf_counter() + self.seconds
        min_reps = 1 if self.smoke else 2
        while len(self.reps) < min_reps or time.perf_counter() < deadline:
            self.rec.rep = len(self.reps)
            with self.rec.span("rep"):
                rep = self.both_passes(path, self.rec)
            self.reps.append(rep)
            for kind in KINDS:
                if rep[kind].setup_s is not None:
                    self.setups.append(rep[kind].setup_s)
                self.verifier.check_pass(rep[kind].runs, self.expected, f"rep {self.rec.rep}")

    def one_shot_layers(self, path) -> None:
        serial = self.library()
        for i in range(layers.ROUNDS):
            self.rec.rep = f"layers-{i}"
            layers.warm_caches(serial, self.rec)
            if self.workload.path == "parallel":
                layers.partition_layers(path, self.rec)
            if self.workload.path == "serve":
                layers.protocol_layers(
                    [r.table for p in self.library_ref.values() for r in p.runs], self.rec)
                layers.service_layers(serial, self.rec)
        if self.workload.path == "serial":
            self.layer_counts["trace.overhead_frac"] = layers.tracer_overhead(serial)
        if self.workload.path == "parallel":
            self.fork_layers()

    def fork_layers(self) -> None:
        """One repetition on the process pool: partitions shipped through
        shared memory to forked workers. Verified like the timed passes and
        followed by the same ``/dev/shm`` audit; reported per layer only."""
        fork = self.both_passes(self.library(harness.PROCESS_POOL), Off())
        expected: Dict[verify.Key, str] = {}
        for kind in KINDS:
            expected.update(verify.digests(self.library_ref[kind].runs))
            self.verifier.check_pass(fork[kind].runs, expected, "process pool",
                                     skip_distinct=True)
            self.layer_counts[f"fork.{kind}_s"] = fork[kind].wall_s
        shipped = [r.result.parallel for r in fork["quickr"].runs
                   if r.result is not None and harness.ran_parallel(r.result)]
        self.layer_counts["transport.pipe_bytes"] = sum(m.result_bytes_on_pipe for m in shipped)
        self.layer_counts["transport.shm_bytes"] = sum(m.result_bytes_shared for m in shipped)

    # -- metrics ---------------------------------------------------------------
    def end_to_end(self) -> Dict[str, dict]:
        exact, quickr = (self.library_ref[k].runs for k in KINDS)
        gains = [
            e.result.cost.machine_hours / q.result.cost.machine_hours
            for e, q in zip(exact, quickr) if e.result is not None and q.result is not None
        ]
        plans = {r.name: r.planned.plan for r in exact if r.planned is not None}
        self.accuracy = verify.accuracy(self.ref["exact"].runs, self.ref["quickr"].runs, plans)
        who = resource.RUSAGE_CHILDREN if self.workload.path == "serve" else resource.RUSAGE_SELF
        out = {
            "setup_s": sample(self.setups),
            "exact_s": self.pass_seconds("exact"),
            "quickr_s": self.pass_seconds("quickr"),
            "mh_gain_x": sample([statistics.median(gains)]),
            "agg_accuracy": sample([1.0 - self.accuracy["agg_err_mean"]]),
            "ci_cover_frac": sample([self.accuracy["ci_cover_frac"]]),
            "peak_rss_mb": sample([resource.getrusage(who).ru_maxrss / 1024.0]),
        }
        for name, entry in out.items():
            entry["unit"] = END_TO_END[name]["unit"]
        return out

    def pass_seconds(self, kind: str) -> dict:
        """Seconds to answer every query of the workload once.

        Library paths: each query's best time over the timed repetitions,
        summed; taking the best per query, not per pass, keeps one burst of
        interference from spoiling a whole pass. ``serve``: the best pass,
        as the sum of its round trips divided by the number of analysts
        waiting at once (the seconds each spent waiting); a request's round
        trip depends on what the other connections were running, so the best
        round trip per query would be the uncontended one and hide the
        contention a closed loop is there to show. Median and quartiles are
        those of the per-repetition sums."""
        served = self.workload.path == "serve"
        share = harness.degree() if served else 1
        out = sample([sum(r.seconds for r in rep[kind].runs) / share for rep in self.reps])
        if not served:
            by_query: Dict[str, List[float]] = defaultdict(list)
            for rep in self.reps:
                for run in rep[kind].runs:
                    by_query[run.name].append(run.seconds)
            out["value"] = sum(min(v) for v in by_query.values())
        return out

    def span_seconds(self) -> Dict[str, float]:
        """Per-layer seconds: each layer's self time summed within a
        repetition, then the best repetition (see :func:`sample`)."""
        own = self.own_seconds
        by_rep: Dict[str, Dict[object, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.rec.spans:
            by_rep[span.layer][span.rep] += own[span.span_id]
            if "sampler" in span.args:
                by_rep[f"sampler.{span.args['sampler']}_s"][span.rep] += own[span.span_id]
        return {layer: min(reps.values()) for layer, reps in by_rep.items()}

    def per_layer(self) -> Dict[str, dict]:
        values: Dict[str, float] = dict(self.layer_counts)
        self.own_seconds = self_times(self.rec.spans)
        seconds = self.span_seconds()
        values.update({k: v for k, v in seconds.items() if k in PER_LAYER})
        values.update(self.reference_counts())
        values.update({f"accuracy.{k}": v for k, v in self.accuracy.items()
                       if f"accuracy.{k}" in PER_LAYER})
        if self.workload.path == "parallel":
            values.update(self.parallel_metrics())
        if self.workload.path == "serve":
            values.update(self.serve_metrics())
        values["trace.self_time_cover_frac"] = self.self_time_cover()
        drift = verify.golden_drift(
            os.path.join(BASELINES, f"golden-seed{self.seed}.json"),
            self.workload.name, self.expected,
        )
        values["verify.digest_drift"] = 0 if drift is None or self.smoke else drift
        unknown = sorted(set(values) - set(PER_LAYER))
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        # A layer the workload bypasses reports 0: the prediction for it is
        # "no change", which is part of what the ledger records.
        return {name: {"value": values.get(name, 0.0), "unit": meta["unit"]}
                for name, meta in PER_LAYER.items()}

    def reference_counts(self) -> Dict[str, float]:
        """Counts that repeat exactly: optimizer decisions, operator
        cardinalities and the cost model, from the reference repetition."""
        out: Dict[str, float] = {"op.morsels": 0}
        for kind in KINDS:
            results = [r.result for r in self.library_ref[kind].runs if r.result is not None]
            costs = [r.cost for r in results]
            out[f"cost.machine_hours.{kind}"] = sum(c.machine_hours for c in costs)
            out[f"cost.intermediate_rows.{kind}"] = sum(c.intermediate_rows for c in costs)
            out[f"cost.shuffled_rows.{kind}"] = sum(c.shuffled_rows for c in costs)
            out[f"cost.passes.{kind}"] = sum(c.effective_passes for c in costs)
            ops = [op for r in results for op in r.operators]
            by_code = defaultdict(list)
            for op in ops:
                by_code[harness.opcode(op.description)].append(op)
            out[f"op.join_rows_out.{kind}"] = sum(op.rows_out for op in by_code["join"])
            out[f"op.aggregate_rows_in.{kind}"] = sum(op.rows_in for op in by_code["aggregate"])
            out["op.morsels"] += sum(op.morsels for op in ops)
            if kind == "quickr":
                samplers = [op for op in by_code["sampler"] if op.sampler]
                rows_in = sum(op.rows_in for op in samplers)
                out["sampler.pass_frac"] = (
                    sum(op.rows_out for op in samplers) / rows_in if rows_in else 0.0
                )
        exact, quickr = (self.library_ref[k].runs for k in KINDS)
        planned = [r.planned for r in quickr if r.planned is not None]
        out["planner.alternatives"] = sum(p.alternatives_explored for p in planned)
        out["planner.approximable"] = sum(1 for p in planned if p.approximable)
        qerrs = []
        for e, q in zip(exact, quickr):
            if e.result is None or q.result is None or not q.planned.approximable:
                continue
            real = e.result.cost.machine_hours / q.result.cost.machine_hours
            estimate = q.planned.estimated_gain()
            qerrs.append(max(real / estimate, estimate / real))
        out["planner.gain_qerr_p50"] = statistics.median(qerrs) if qerrs else 0.0
        compiles = [s.args["cache_hit"] for s in self.rec.spans if "cache_hit" in s.args]
        out["compile.cache_hit_frac"] = sum(compiles) / len(compiles) if compiles else 0.0
        return out

    def self_time_cover(self) -> float:
        """Share of the timed passes that the layer spans' self times explain
        (the rest is the harness's own loop and span bookkeeping)."""
        own = self.own_seconds
        timed = [s for s in self.rec.spans if isinstance(s.rep, int)]
        passes = sum(s.seconds for s in timed if s.layer == "pass")
        if self.workload.path == "serve":
            passes *= harness.degree()  # that many analysts wait at once
        layered = sum(own[s.span_id] for s in timed if s.layer not in ("rep", "pass", "query"))
        return layered / passes

    def parallel_metrics(self) -> Dict[str, float]:
        """From ``ParallelMetrics``: per repetition sums, median over
        repetitions (counts repeat; ``speedup_x`` and ``skew_x`` are ratios);
        the unsuffixed ones describe the Quickr pass."""
        per_rep = defaultdict(list)

        def fanned_out(pass_run):
            return [r.result.parallel for r in pass_run.runs
                    if r.result is not None and harness.ran_parallel(r.result)]

        for rep in self.reps:
            for kind in KINDS:
                per_rep[f"parallel.wall_s.{kind}"].append(
                    sum(m.wall_clock_seconds for m in fanned_out(rep[kind])))
                per_rep[f"parallel.speedup_x.{kind}"].append(
                    self.library_ref[kind].wall_s / rep[kind].wall_s)
            metrics = fanned_out(rep["quickr"])
            workers = [m.worker_seconds for m in metrics]
            per_rep["parallel.task_sum_s"].append(sum(map(sum, workers)))
            per_rep["parallel.skew_x"].append(
                sum(map(max, workers)) / sum(statistics.fmean(w) for w in workers))
            per_rep["parallel.fallback_queries"].append(len(rep["quickr"].runs) - len(metrics))
            per_rep["parallel.retries"].append(sum(m.task_retries for m in metrics))
            per_rep["prune.partitions_pruned"].append(
                sum(m.pruning["partitions_pruned"] for m in metrics if m.pruning))
            per_rep["prune.partitions_total"].append(sum(m.parallelism for m in metrics))
        return {name: statistics.median(values) for name, values in per_rep.items()}

    def serve_metrics(self) -> Dict[str, float]:
        """From the Quickr requests of every timed pass: client round trips
        and the server's own ``stats`` block of each reply."""
        runs = [r for rep in self.reps for r in rep["quickr"].runs]
        served = [r for r in runs if r.error is None]
        rtt = [r.seconds * 1000.0 for r in served]
        queue = [r.stats["queue_wait_ms"] for r in served]
        execute = [r.stats["execute_ms"] for r in served]
        overhead = [t - q - e for t, q, e in zip(rtt, queue, execute)]
        out = {}
        for name, values in (("rtt", rtt), ("queue_wait", queue), ("execute", execute),
                             ("overhead", overhead)):
            out[f"serve.{name}_ms_p50"] = percentile(values, 0.50) or 0.0
            out[f"serve.{name}_ms_p95"] = percentile(values, 0.95) or 0.0
        out["serve.qps"] = len(served) / sum(rep["quickr"].wall_s for rep in self.reps)
        out["serve.plan_cache_hit_frac"] = (
            sum(bool(r.stats["plan_cache_hit"]) for r in served) / max(1, len(served)))
        out["serve.degraded_frac"] = sum(r.rung != r.kind for r in served) / max(1, len(served))
        out["serve.rejected_frac"] = (
            sum("AdmissionRejected" in (r.error or "") for r in runs) / max(1, len(runs)))
        return out

    # -- output ----------------------------------------------------------------
    def report(self) -> dict:
        end_to_end = self.end_to_end()
        per_layer = None
        if isinstance(self.rec, Recorder):
            per_layer = self.per_layer()
            events = to_chrome(self.rec.spans)
            problems = validate_chrome_trace(events)
            self.verifier.operation(not problems, f"trace.json malformed: {problems[:3]}")
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, f"trace-{self.workload.name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(events, fh)
        detail = {
            "workload": self.workload.name, "seed": self.seed, "seconds": self.seconds,
            "smoke": self.smoke, "scale": self.scale, "degree": harness.degree(),
            "repetitions": len(self.reps),
            "attempted": self.verifier.attempted, "failed": self.verifier.failed,
            "failures": self.verifier.failures[:20],
            "end_to_end": end_to_end,
            "digests": {"/".join(key): value for key, value in sorted(self.expected.items())},
        }
        if per_layer is not None:
            detail["per_layer"] = per_layer
        return detail


def run_one(args) -> int:
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    t0 = time.perf_counter()
    run.measure()
    detail = run.report()
    detail["run_wall_s"] = time.perf_counter() - t0
    os.makedirs(OUT, exist_ok=True)
    with open(detail_path(args.workload, args.trace), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    metrics = detail["per_layer"] if args.trace else detail["end_to_end"]
    print(f"# {args.workload}: seed {args.seed}, scale {run.scale:g}, "
          f"{len(run.reps)} repetitions, {detail['run_wall_s']:.1f} s")
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']}")
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {n: {"value": e["value"], "unit": e["unit"]} for n, e in metrics.items()},
    }))
    return 0


def detail_path(workload: str, trace: int) -> str:
    return os.path.join(OUT, f"run-{workload}-trace{int(trace)}.json")


# -- every workload: the ledger ---------------------------------------------------

def run_all(args, tag: str = "") -> dict:
    """Each workload in its own child process (twice: untraced for the
    end-to-end metrics, traced for the per-layer ones), so RSS, caches and
    shared-memory state do not bleed from one into the next."""
    ledger = {
        "schema": "quickr-perf-ledger/1",
        "meta": {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
                 "nproc": os.cpu_count(), "degree": harness.degree(),
                 "python": platform.python_version(), "numpy": numpy.__version__},
        "workloads": {},
    }
    for name in WORKLOADS:
        entry: dict = {}
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
            if done.returncode != 0:
                raise SystemExit(f"{name} (trace {trace}) exited with {done.returncode}")
            with open(detail_path(name, trace), "r", encoding="utf-8") as fh:
                detail = json.load(fh)
            if trace == 0:
                entry = detail
            else:
                entry["per_layer"] = detail["per_layer"]
                entry["traced"] = {k: detail["end_to_end"][k]["value"]
                                   for k in ("exact_s", "quickr_s")}
                entry["attempted"] += detail["attempted"]
                entry["failed"] += detail["failed"]
                entry["failures"] += detail["failures"]
        ledger["workloads"][name] = entry
        print_workload(name, entry)
    path = os.path.join(OUT, f"ledger-seed{args.seed}{'-smoke' if args.smoke else ''}{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    print(f"\nwrote {os.path.relpath(path)} and trace-<workload>.json beside it")
    return ledger


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}: scale {entry['scale']:g}, {entry['repetitions']} repetitions, "
          f"failed {entry['failed']}/{entry['attempted']}")
    for metric in END_TO_END:
        e = entry["end_to_end"][metric]
        spread = (f"median {e['median']:.6g} [{e['q1']:.6g} .. {e['q3']:.6g}] n={e['n']}"
                  if e["n"] > 1 else "")
        print(f"  {metric:32s} {e['value']:>14.6g} {e['unit']:6s} {spread}")
    for metric in PER_LAYER:
        e = entry["per_layer"][metric]
        if e["value"]:
            print(f"    {metric:30s} {e['value']:>14.6g} {e['unit']}")
    for failure in entry["failures"]:
        print(f"  FAILED {failure}")


def sets_agree(first: dict, second: dict) -> List[str]:
    """Why two ledgers of one commit and seed disagree (empty: they agree)."""
    problems = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric, meta in END_TO_END.items():
            va, vb = a["end_to_end"][metric]["value"], b["end_to_end"][metric]["value"]
            worse = (vb - va) / va if meta["better"] == "lower" else (va - vb) / va
            if abs(worse) > meta["bound"]:
                problems.append(f"{name} {metric}: {va:.6g} vs {vb:.6g} "
                                f"differ by more than {meta['bound']:.0%}")
        for group in ("end_to_end", "per_layer"):
            for metric in a[group]:
                va, vb = a[group][metric]["value"], b[group][metric]["value"]
                if metric.startswith(EXACT_PREFIXES) and va != vb:
                    problems.append(f"{name} {metric}: count {va!r} != {vb!r}")
    return problems


def save_baseline(ledger: dict) -> None:
    os.makedirs(BASELINES, exist_ok=True)
    seed = ledger["meta"]["seed"]
    golden = {name: entry.pop("digests") for name, entry in ledger["workloads"].items()}
    for stem, payload in ((f"{os.cpu_count()}c-seed{seed}", ledger),
                          (f"golden-seed{seed}", golden)):
        with open(os.path.join(BASELINES, stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"saved baselines/{stem}.json")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="drives data generation and the request order, nothing else")
    parser.add_argument("--seconds", type=float, default=float(MANIFEST["run_seconds"]),
                        help="how long the timed repetitions of one run go on")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: the traced run, reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="scale / 10 and one repetition: every check, no useful timing")
    parser.add_argument("--sets", type=int, default=1,
                        help="with --workload all: run the ledger this many times and "
                             "fail unless consecutive sets agree")
    parser.add_argument("--save-baseline", action="store_true",
                        help="with --workload all: commit-ready copy of the first ledger "
                             "and its golden digests under baselines/")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    if args.workload != "all":
        return run_one(args)
    ledgers = [run_all(args, f"-set{i + 1}" if args.sets > 1 else "")
               for i in range(args.sets)]
    problems = [p for a, b in zip(ledgers, ledgers[1:]) for p in sets_agree(a, b)]
    failed = sum(e["failed"] for ledger in ledgers for e in ledger["workloads"].values())
    for problem in problems:
        print(f"SETS DISAGREE {problem}")
    if args.save_baseline and not problems and not failed:
        save_baseline(ledgers[0])
    return 1 if problems or failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - a crashed run must not print a result line
        traceback.print_exc()
        sys.exit(1)
