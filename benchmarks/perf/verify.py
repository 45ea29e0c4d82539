"""Answer verification: every operation the benchmark runs is checked.

An *operation* is one query answered once, or one audit (shared-memory
leak check, server shutdown). An operation fails when it raised, was
rejected or cancelled, or returned an answer whose digest is not the one
expected; the result line carries ``failed`` over ``attempted``.

Expected digests, all computed from the same seed's data:

* within a run, the first (untimed) repetition is the reference and every
  later repetition must repeat it bit for bit, exact and Quickr alike —
  samplers are seeded, so approximation noise never comes from the run;
* parallel answers must equal a serial reference, except Quickr plans with
  a distinct sampler, whose strata depend on the partitioning;
* served answers must equal library answers, keyed by (query, mode, rung):
  a reply the governor degraded to another rung has no library twin and is
  counted as degraded, not compared.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.experiments.metrics import answer_structure, compare_answers
from repro.memory import leaked_system_segments
from repro.obs.accuracy import compare_tables

__all__ = ["Verifier", "accuracy", "golden_drift"]

Key = Tuple[str, str, str]  # (query, mode, rung)


class Verifier:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._shm_before = set(leaked_system_segments())

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check_pass(self, runs: Iterable, expected: Dict[Key, str], what: str,
                   skip_distinct: bool = False) -> None:
        """Count every run of a pass; compare digests where one is expected."""
        for run in runs:
            label = f"{what}: {run.name}/{run.kind}"
            if run.error is not None:
                self.operation(False, f"{label} raised {run.error}")
                continue
            rung = run.rung or run.kind
            if skip_distinct and "distinct" in planned_kinds(run):
                self.operation(True, label)
                continue
            want = expected.get((run.name, run.kind, rung))
            self.operation(
                want is None or want == run.digest,
                f"{label} digest {run.digest[:12]} != expected {str(want)[:12]}",
            )

    def shm_audit(self) -> None:
        def leaked():
            return sorted(set(leaked_system_segments()) - self._shm_before)

        if leaked():
            # /dev/shm is shared with whatever else runs on the box: another
            # process's live segments are gone a moment later, a leak stays.
            time.sleep(1.0)
        self.operation(not leaked(), f"shared-memory segments left behind: {leaked()}")


def planned_kinds(run) -> List[str]:
    kinds = getattr(run.planned, "sampler_kinds", None)
    return kinds() if kinds is not None else []


def digests(runs: Iterable) -> Dict[Key, str]:
    return {(r.name, r.kind, r.rung or r.kind): r.digest for r in runs if r.error is None}


def accuracy(exact_runs: Iterable, quickr_runs: Iterable, plans: Dict[str, object]) -> dict:
    """Error side of the ledger, Quickr answers against exact answers.

    ``plans`` maps a query to its baseline plan (for the group/aggregate
    columns). Queries Quickr left unsampled answer exactly and are left
    out, as are their ``__ci`` cells.
    """
    exact = {r.name: r.table for r in exact_runs if r.table is not None}
    errors: List[float] = []
    cells = covered = missed = groups = 0
    for run in quickr_runs:
        truth = exact.get(run.name)
        if truth is None or run.table is None:
            continue
        if not any(c.endswith("__ci") for c in run.table.column_names):
            continue
        group_cols, agg_cols = answer_structure(plans[run.name])
        error = compare_answers(truth, run.table, group_cols, agg_cols)
        errors.append(error.aggregation_error)
        missed += error.groups_missed
        groups += error.groups_exact
        audit = compare_tables(run.table, truth)
        cells += audit.cells_checked
        covered += audit.cells_covered
    return {
        "sampled_queries": len(errors),
        "agg_err_mean": statistics.fmean(errors) if errors else 0.0,
        "agg_err_p50": statistics.median(errors) if errors else 0.0,
        "ci_cells": cells,
        "ci_cover_frac": covered / cells if cells else 1.0,
        "groups_missed_frac": missed / groups if groups else 0.0,
    }


def golden_drift(path: str, workload: str, seen: Dict[Key, str]) -> Optional[int]:
    """Answers whose digest differs from the committed golden file (a count,
    not a failure: another numpy or CPU may round a sum differently); None
    when no golden digests exist for this workload."""
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        golden = json.load(fh).get(workload)
    if golden is None:
        return None
    return sum(1 for key, digest in seen.items() if golden.get("/".join(key)) != digest)
