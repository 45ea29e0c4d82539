"""Partition-pruning perf bar: the catalog must actually skip data.

Acceptance bars (the prune/select pass's claims, end to end — DESIGN §14):

* **Zero drift** — every one of the 24 TPC-DS queries answers
  bit-identically with pruning on and off; exact pruning is a pure
  optimization.
* **Skip rate** — on the selective-predicate subset (date/semi-join
  predicates that separate under the date clustering) at least
  ``SKIP_BAR`` of the fact partitions are pruned exactly
  (``REPRO_PRUNE_SKIP_BAR``, default 0.40 per the issue).
* **Honest selection** — weighted partition selection on the
  uniform-sampled queries executes strictly fewer partitions than
  survive exact pruning, and the reported confidence intervals still
  cover the exact (baseline) answers.

The full report — per-query prune decisions, rows skipped, machine-hours
credit, selection coverage — is written to ``BENCH_prune.json``
(``REPRO_PRUNE_BENCH_OUT``) for trend tracking.
"""

import json
import os

import numpy as np

from repro.engine.executor import Executor
from repro.engine.governance import GovernanceContext
from repro.obs.accuracy import compare_tables
from repro.optimizer.planner import QuickrPlanner
from repro.parallel import ParallelOptions
from repro.workloads.tpcds import generate_tpcds, queries, query_by_name

SCALE = float(os.environ.get("REPRO_PRUNE_SCALE", "0.08"))
SEED = int(os.environ.get("REPRO_PRUNE_SEED", "3"))
DEGREE = 8
SKIP_BAR = float(os.environ.get("REPRO_PRUNE_SKIP_BAR", "0.40"))
OUTPUT = os.environ.get("REPRO_PRUNE_BENCH_OUT", "BENCH_prune.json")

#: Queries whose predicates/semi-joins separate under the date clustering
#: at the benchmark scale — the skip-rate bar is held over these.
SELECTIVE = ("q07", "q08", "q09", "q16")

#: Uniform-sampled aggregates: the weighted-selection bars run on these.
SELECTION_QUERIES = ("q15", "q19")

SELECTION_FRACTION = 0.5


def options(**overrides):
    base = dict(pool="thread", merge="rows", min_partition_rows=1_000)
    base.update(overrides)
    return ParallelOptions(**base)


def tables_identical(a, b):
    if a.column_names != b.column_names or a.num_rows != b.num_rows:
        return False
    return all(np.array_equal(a.column(c), b.column(c)) for c in a.column_names)


def selecting(fraction):
    """A governance context that asks for weighted partition selection."""
    governance = GovernanceContext()
    governance.selection_fraction = fraction
    return governance


def test_prune_bars():
    db = generate_tpcds(scale=SCALE, seed=SEED)
    planner = QuickrPlanner(db)
    pruned_exec = Executor(db, parallelism=DEGREE, parallel_options=options())
    full_exec = Executor(db, parallelism=DEGREE, parallel_options=options(prune=False))

    report = {
        "scale": SCALE,
        "seed": SEED,
        "degree": DEGREE,
        "skip_bar": SKIP_BAR,
        "selective_subset": list(SELECTIVE),
        "queries": {},
        "selection": {},
    }

    # -- zero drift over the whole suite, skip rate over the subset ---------
    credit = 0.0
    for query in queries(db):
        plan = planner.plan(query).plan
        with_prune = pruned_exec.execute(plan)
        without = full_exec.execute(plan)
        identical = tables_identical(with_prune.table, without.table)
        info = with_prune.parallel.pruning if with_prune.parallel else None
        report["queries"][query.name] = {
            "identical": identical,
            "pruning": info,
        }
        if info:
            credit += info["machine_hours_credit"]
        assert identical, f"{query.name} drifted under exact pruning"
    report["machine_hours_credit_total"] = credit

    fired = {
        name: row["pruning"]
        for name, row in report["queries"].items()
        if row["pruning"]
    }
    missing = [name for name in SELECTIVE if name not in fired]
    assert not missing, f"pruning never fired on {missing} (fired: {sorted(fired)})"
    skipped = sum(fired[name]["partitions_pruned"] for name in SELECTIVE)
    total = sum(fired[name]["partitions_total"] for name in SELECTIVE)
    report["selective_skip_fraction"] = skipped / total
    assert skipped / total >= SKIP_BAR, (
        f"selective subset skipped {skipped}/{total} partitions "
        f"({skipped / total:.0%}), bar is {SKIP_BAR:.0%}"
    )

    # -- weighted selection: fewer partitions, CIs still cover truth --------
    for name in SELECTION_QUERIES:
        query = query_by_name(db, name)
        plan = planner.plan(query).plan
        selected = pruned_exec.execute(plan, governance=selecting(SELECTION_FRACTION))
        info = selected.parallel.pruning
        assert info is not None and info["partitions_selected"], (
            f"{name}: weighted selection did not engage"
        )
        survivors = info["partitions_total"] - info["partitions_pruned"]
        assert info["partitions_executed"] < survivors, (
            f"{name}: selection executed all {survivors} surviving partitions"
        )
        exact = Executor(db).execute(planner.plan_baseline(query).plan)
        coverage = compare_tables(selected.table, exact.table)
        checked, covered = coverage.cells_checked, coverage.cells_covered
        report["selection"][name] = {
            "fraction": SELECTION_FRACTION,
            "partitions_executed": info["partitions_executed"],
            "partitions_surviving": survivors,
            "inclusion_min": info["inclusion_min"],
            "rows_unselected": info["rows_unselected"],
            "ci_cells_checked": checked,
            "ci_cells_covered": covered,
        }
        assert checked > 0, f"{name}: no comparable CI cells"
        assert covered / checked >= 0.75, (
            f"{name}: CIs cover only {covered}/{checked} exact values"
        )

    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(
        f"\nprune bars: {report['selective_skip_fraction']:.0%} of selective-subset "
        f"partitions skipped (bar {SKIP_BAR:.0%}), zero drift on "
        f"{len(report['queries'])} queries, selection covered truth on "
        f"{', '.join(SELECTION_QUERIES)}; wrote {OUTPUT}"
    )
