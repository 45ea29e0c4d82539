"""BlinkDB-style apriori stratified sampling (the paper's Section 5.5 rival).

BlinkDB stores, ahead of time, a set of stratified samples of a popular
input table — each stratified on some Query Column Set (QCS) and capped at
``cap_per_stratum`` rows per distinct value — chosen to maximize query
coverage under a storage budget (an MILP). At query time the best matching
sample answers the query.

Following the paper's methodology exactly:

* samples are built only for ``store_sales`` — the largest table, used by
  most queries, with the highest potential to help;
* the sample-selection MILP (solved with ``scipy.optimize.milp``, with a
  greedy fallback) maximizes the number of queries whose QCS is covered by
  some chosen sample, subject to total sample rows <= budget x input rows;
* at evaluation, every query runs on *every* stored sample and gets the
  benefit of perfect matching: the best-performing sample that still meets
  the error constraint (no missed groups, aggregates within +-10%) is
  picked post-hoc.

The structural reasons BlinkDB fails on this workload (paper Table 6) all
re-appear: large QCSes make stratified samples nearly as large as the
input; diverse QCSes don't share samples; and fact-fact joins are not
helped by a sample of one side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.algebra.addressing import plan_fingerprint
from repro.algebra.analysis import query_column_set
from repro.algebra.builder import Query
from repro.algebra.logical import LogicalNode, Scan
from repro.engine.executor import Executor
from repro.engine.keys import stable_argsort
from repro.engine.table import WEIGHT_COLUMN, Database, Table
from repro.errors import WorkloadError
from repro.experiments.metrics import answer_structure, compare_answers
from repro.samplers.distinct import stratum_codes

__all__ = ["StratifiedSample", "SampleSelection", "BlinkDB", "BlinkDBReport"]


@dataclass
class StratifiedSample:
    """One stored sample: the source table stratified on ``columns``."""

    source: str
    columns: Tuple[str, ...]
    cap_per_stratum: int
    table: Table

    @property
    def rows(self) -> int:
        return self.table.num_rows

    def registered_name(self) -> str:
        return f"{self.source}__sample_on_{'_'.join(self.columns)}"


def build_stratified_sample(
    table: Table, columns: Sequence[str], cap_per_stratum: int, seed: int = 0
) -> StratifiedSample:
    """Cap each stratum at ``cap_per_stratum`` rows, weighting kept rows by
    stratum_frequency / kept so aggregates stay unbiased."""
    if table.num_rows == 0:
        raise WorkloadError(f"cannot sample empty table {table.name!r}")
    rng = np.random.default_rng(seed)
    codes = stratum_codes(table, list(columns))
    order = rng.permutation(table.num_rows)
    shuffled_codes = codes[order]
    # Rank within stratum after a random shuffle => uniform cap selection.
    sort_idx = stable_argsort(shuffled_codes)
    sorted_codes = shuffled_codes[sort_idx]
    boundary = np.empty(len(sort_idx), dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_codes[1:] != sorted_codes[:-1]
    start = np.maximum.accumulate(np.where(boundary, np.arange(len(sort_idx)), 0))
    rank_sorted = np.arange(len(sort_idx)) - start
    keep_sorted = rank_sorted < cap_per_stratum
    kept_original = order[sort_idx[keep_sorted]]

    freq = np.bincount(codes, minlength=codes.max() + 1)
    kept_per = np.minimum(freq, cap_per_stratum)
    weights = freq[codes[kept_original]] / kept_per[codes[kept_original]]

    sampled = table.take(kept_original).with_columns({WEIGHT_COLUMN: weights.astype(np.float64)})
    return StratifiedSample(table.name, tuple(columns), cap_per_stratum, sampled)


def sample_size_for(table: Table, columns: Sequence[str], cap_per_stratum: int) -> int:
    """Exact row count a stratified sample on ``columns`` would occupy."""
    codes = stratum_codes(table, list(columns))
    freq = np.bincount(codes)
    return int(np.minimum(freq, cap_per_stratum).sum())


@dataclass
class SampleSelection:
    """Outcome of the storage-constrained sample-selection problem."""

    chosen: List[Tuple[str, ...]]
    total_rows: int
    budget_rows: int
    covered_queries: List[str]
    method: str


def _query_qcs_on_table(query: Query, table: Table) -> Optional[FrozenSet[str]]:
    """The query's QCS restricted to the target table's columns, or None if
    the query does not read the table."""
    reads = any(isinstance(n, Scan) and n.table == table.name for n in query.plan.walk())
    if not reads:
        return None
    table_cols = set(table.data_column_names())
    return frozenset(c for c in query_column_set(query.plan) if c in table_cols)


def select_samples(
    table: Table,
    queries: Sequence[Query],
    budget_rows: int,
    cap_per_stratum: int,
) -> SampleSelection:
    """Choose which QCSes to stratify on: coverage-maximizing MILP.

    Decision variables: x_s per candidate sample, y_q per query.
    Maximize sum(y_q) s.t. y_q <= sum of x_s over samples covering q and
    sum(x_s * size_s) <= budget. Solved exactly with scipy's MILP when
    available, else by greedy value-density.
    """
    qcs_by_query: Dict[str, FrozenSet[str]] = {}
    for query in queries:
        qcs = _query_qcs_on_table(query, table)
        if qcs is not None and qcs:
            qcs_by_query[query.name] = qcs

    candidates = sorted({qcs for qcs in qcs_by_query.values()}, key=sorted)
    sizes = [sample_size_for(table, sorted(qcs), cap_per_stratum) for qcs in candidates]
    covers: List[List[int]] = []  # per candidate, indices of queries covered
    names = list(qcs_by_query.keys())
    for qcs in candidates:
        covers.append([i for i, name in enumerate(names) if qcs_by_query[name] <= qcs])

    chosen_idx = _solve_milp(sizes, covers, len(names), budget_rows)
    method = "milp"
    if chosen_idx is None:
        chosen_idx = _solve_greedy(sizes, covers, budget_rows)
        method = "greedy"

    covered = set()
    for i in chosen_idx:
        covered.update(covers[i])
    return SampleSelection(
        chosen=[tuple(sorted(candidates[i])) for i in chosen_idx],
        total_rows=sum(sizes[i] for i in chosen_idx),
        budget_rows=budget_rows,
        covered_queries=sorted(names[i] for i in covered),
        method=method,
    )


def _solve_milp(sizes, covers, num_queries, budget) -> Optional[List[int]]:
    try:
        from scipy.optimize import LinearConstraint, milp
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return None
    n_s = len(sizes)
    if n_s == 0:
        return []
    n = n_s + num_queries  # x variables then y variables
    c = np.zeros(n)
    c[n_s:] = -1.0  # maximize covered queries
    constraints = []
    size_row = np.zeros(n)
    size_row[:n_s] = sizes
    constraints.append(LinearConstraint(size_row, -np.inf, budget))
    for q in range(num_queries):
        row = np.zeros(n)
        row[n_s + q] = 1.0
        for s in range(n_s):
            if q in covers[s]:
                row[s] = -1.0
        constraints.append(LinearConstraint(row, -np.inf, 0.0))
    integrality = np.ones(n)
    from scipy.optimize import Bounds

    result = milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(0, 1),
    )
    if not result.success:
        return None
    x = result.x[: len(sizes)]
    return [i for i, v in enumerate(x) if v > 0.5]


def _solve_greedy(sizes, covers, budget) -> List[int]:
    chosen: List[int] = []
    covered: set = set()
    used = 0
    while True:
        best, best_value = None, 0.0
        for i, size in enumerate(sizes):
            if i in chosen or used + size > budget:
                continue
            gain = len(set(covers[i]) - covered)
            if gain == 0:
                continue
            value = gain / max(1, size)
            if value > best_value:
                best, best_value = i, value
        if best is None:
            return chosen
        chosen.append(best)
        covered.update(covers[best])
        used += sizes[best]


@dataclass
class BlinkDBReport:
    """One row of the paper's Table 6."""

    budget_multiplier: float
    coverage: int
    total_queries: int
    median_gain_all: float
    median_gain_covered: float
    median_error_covered: float
    selection: SampleSelection

    def as_row(self) -> dict:
        return {
            "budget": f"{self.budget_multiplier:g}x",
            "coverage": f"{self.coverage}/{self.total_queries}",
            "median_gain_all": f"{(self.median_gain_all - 1) * 100:.0f}%",
            "median_gain_covered": (
                f"{(self.median_gain_covered - 1) * 100:.0f}%" if self.coverage else "-"
            ),
            "median_error": f"{self.median_error_covered * 100:.0f}%" if self.coverage else "-",
        }


class BlinkDB:
    """The apriori-sampling system under the paper's evaluation protocol."""

    def __init__(
        self,
        database: Database,
        target_table: str = "store_sales",
        cap_per_stratum: int = 100_000,
        error_target: float = 0.10,
        seed: int = 99,
    ):
        self.database = database
        self.target_table = target_table
        self.cap_per_stratum = cap_per_stratum
        self.error_target = error_target
        self.seed = seed
        self.executor = Executor(database)
        # Exact answers are budget-independent; cache them across evaluate()
        # calls (the paper's protocol sweeps budgets over the same queries),
        # keyed by canonical plan fingerprint so a resubmitted or renamed
        # query with the same plan reuses the answer.
        self._exact_cache: Dict[str, object] = {}

    def evaluate(self, queries: Sequence[Query], budget_multiplier: float) -> BlinkDBReport:
        """Build samples under the budget and measure coverage and gains."""
        table = self.database.table(self.target_table)
        budget_rows = int(budget_multiplier * table.num_rows)
        selection = select_samples(table, queries, budget_rows, self.cap_per_stratum)

        samples = [
            build_stratified_sample(table, columns, self.cap_per_stratum, seed=self.seed + i)
            for i, columns in enumerate(selection.chosen)
        ]
        for sample in samples:
            self.database.register(Table(sample.registered_name(), sample.table.to_dict()))

        gains_all: List[float] = []
        gains_covered: List[float] = []
        errors_covered: List[float] = []
        coverage = 0
        for query in queries:
            if self._joins_two_large_tables(query.plan):
                # Sampling one side of a fact-fact join cannot meet the
                # error constraint (Section 3: "sampling only one of the
                # join inputs does not speed up queries where both input
                # relations require a lot of work", and sample-then-join has
                # quadratically worse variance). Structurally uncovered.
                gains_all.append(1.0)
                continue
            fingerprint = plan_fingerprint(query.plan)
            exact = self._exact_cache.get(fingerprint)
            if exact is None:
                exact = self.executor.execute(query.plan)
                self._exact_cache[fingerprint] = exact
            best_gain, best_error = None, None
            for sample in samples:
                rewritten = self._substitute_scan(query.plan, sample)
                if rewritten is None:
                    continue
                approx = self.executor.execute(rewritten)
                group_cols, agg_cols = answer_structure(query.plan)
                err = compare_answers(exact.table, approx.table, group_cols, agg_cols)
                if err.groups_missed > 0 or err.aggregation_error > self.error_target:
                    continue
                gain = (exact.cost.machine_hours + 1.0) / (approx.cost.machine_hours + 1.0)
                if best_gain is None or gain > best_gain:
                    best_gain, best_error = gain, err.aggregation_error
            if best_gain is not None and best_gain > 1.0:
                coverage += 1
                gains_all.append(best_gain)
                gains_covered.append(best_gain)
                errors_covered.append(best_error)
            else:
                gains_all.append(1.0)

        return BlinkDBReport(
            budget_multiplier=budget_multiplier,
            coverage=coverage,
            total_queries=len(queries),
            median_gain_all=float(np.median(gains_all)) if gains_all else 1.0,
            median_gain_covered=float(np.median(gains_covered)) if gains_covered else 1.0,
            median_error_covered=float(np.median(errors_covered)) if errors_covered else 0.0,
            selection=selection,
        )

    #: Tables at or above this row count are "large" for the fact-fact test.
    LARGE_TABLE_ROWS = 10_000

    def _joins_two_large_tables(self, plan: LogicalNode) -> bool:
        """True when some join has a large table on each side — the query
        shape apriori single-table samples structurally cannot cover."""
        from repro.algebra.analysis import base_tables
        from repro.algebra.logical import Join

        def is_large(subtree: LogicalNode) -> bool:
            for table in base_tables(subtree):
                if self.database.table(table).num_rows >= self.LARGE_TABLE_ROWS:
                    return True
            return False

        for node in plan.walk():
            if isinstance(node, Join) and is_large(node.left) and is_large(node.right):
                return True
        return False

    def _substitute_scan(self, plan: LogicalNode, sample: StratifiedSample) -> Optional[LogicalNode]:
        """Replace the target table's scan with the stored sample's scan."""
        found = {"hit": False}

        def visit(node: LogicalNode) -> LogicalNode:
            if isinstance(node, Scan) and node.table == sample.source:
                found["hit"] = True
                return Scan(sample.registered_name(), node.output_columns())
            if not node.children:
                return node
            return node.with_children([visit(c) for c in node.children])

        rewritten = visit(plan)
        return rewritten if found["hit"] else None
