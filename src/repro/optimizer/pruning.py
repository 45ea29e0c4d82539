"""Catalog-backed partition pruning and weighted partition selection.

This is the prune/select pass of Rong et al. ("Approximate Partition
Selection for Big-Data Workloads using Summary Statistics"), grafted onto
the Quickr executor: before the parallel executor materializes partition
tasks, it consults the partition catalog
(:class:`repro.stats.catalog.PartitionCatalog`) attached to the database
and decides, per partition of the round-robin-partitioned scan:

1. **prune (exact)** — partitions whose per-column min/max, null-count and
   value-set summaries *prove* that no row can satisfy the query's
   pushed-down predicates are dropped. This never changes the answer: the
   dropped rows would have been filtered anyway. Two predicate sources
   feed the proof:

   * direct conjuncts of every ``Select`` in the precursor whose columns
     trace (through joins/projections) to the partitioned scan, rewritten
     into scan-column names;
   * **semi-join keys**: for a join between the partitioned scan and a
     sampler-free, broadcast-only dimension subtree, the dimension side is
     executed once (it is small by construction — that is why it was
     broadcast) and a fact partition is pruned when its key summary cannot
     intersect the qualifying key set.

2. **select (weighted)** — under an error budget, a weighted subset of the
   surviving partitions is chosen: inclusion probability
   ``pi_p ∝ rows_p * (1 + frequent values of the group-by columns)``
   (occurrence-weighted, clipped to 1, the heaviest partition always
   included). Each executed partition's rows have their Horvitz-Thompson
   weights multiplied by ``1/pi_p``, so aggregates stay unbiased and the
   CI algebra widens honestly. Selection is only offered when the plan
   already carries uniform/universe samplers (the weighted estimator path
   must be live) and merges by rows.

A partition whose live row count disagrees with its catalog summary is
**conservatively retained** (stale/corrupt catalog entries can only cost
performance, never correctness).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algebra.addressing import NodeAddress, format_address, trace_to_scan, walk_with_addresses
from repro.algebra.logical import Join, SamplerNode, Select
from repro.core.pushdown import partition_feasible, prune_conjuncts
from repro.engine.keys import value_counts
from repro.engine.partitions import Partitioner
from repro.parallel.plan import PlanAnalysis, ScanPartitioning

__all__ = ["ScanPrunePlan", "plan_partition_pruning", "PRUNE_INVARIANT_KINDS"]

#: Sampler kinds whose per-row decisions are lineage/value-hash based, so
#: any disjoint repartitioning of the input yields the same merged output
#: (partition-invariance; verified by tests/parallel/test_equivalence.py).
#: Pruning swaps the round-robin split for the catalog's clustered layout,
#: which is only sound under this invariance (or with no samplers at all).
PRUNE_INVARIANT_KINDS = frozenset({"uniform", "universe", "passthrough"})

#: Sampler kinds that make weighted *selection* available: the plan's
#: estimators already run the Horvitz-Thompson weighted path, so the
#: ``1/pi`` partition weights fold in without biasing anything.
SELECTION_KINDS = frozenset({"uniform", "universe"})

#: Inclusion probabilities are clipped below at this value so one unlucky
#: draw cannot blow a row's weight up by more than 100x.
MIN_INCLUSION_PROBABILITY = 0.01


@dataclass
class ScanPrunePlan:
    """The prune/select decision for one partitioned scan occurrence."""

    table: str
    #: Absolute address of the scan in the submitted plan.
    scan_address: NodeAddress
    num_partitions: int
    layout_kind: str
    cluster_column: Optional[str]
    #: Partition ordinals to actually execute (post-selection), ascending.
    keep: Tuple[int, ...]
    #: Ordinals proved infeasible and skipped exactly.
    pruned: Tuple[int, ...]
    #: Survivors skipped by weighted selection (reweighting covers them).
    unselected: Tuple[int, ...]
    #: Ordinals whose summaries failed the row-count cross-check and were
    #: conservatively retained.
    stale: Tuple[int, ...]
    #: Ordinal -> inclusion probability (1.0 unless selection fired).
    inclusion: Dict[int, float]
    rows_total: int
    #: Rows skipped by exact pruning, per the catalog summaries.
    rows_pruned_est: int
    #: Rows skipped by exact pruning, per the live split (equal unless the
    #: catalog went stale between build and use).
    rows_pruned_actual: int
    rows_unselected: int
    bytes_pruned: int
    selection_fraction: Optional[float]
    #: Human-readable prune predicates (for explain-analyze).
    predicates: Tuple[str, ...] = ()
    #: Human-readable semi-join prune sources (for explain-analyze).
    semijoins: Tuple[str, ...] = ()
    #: The catalog layout's partitioner: the executor places the scan on
    #: its resident partitions, so summaries and data line up.
    partitioner: Optional[Partitioner] = None

    @property
    def selection_active(self) -> bool:
        return bool(self.unselected) or any(p < 1.0 for p in self.inclusion.values())

    @property
    def executed(self) -> int:
        return len(self.keep)

    def token(self) -> str:
        """Stable short token of the decision, mixed into trace metadata so
        two runs of the same plan with different prune outcomes are
        distinguishable (the plan cache itself is unaffected: it caches
        compiled structure, while partitions arrive as runtime tables)."""
        payload = (
            f"{self.table}|{self.num_partitions}|{self.keep}|{self.pruned}|"
            f"{sorted(self.inclusion.items())}"
        )
        return f"{zlib.crc32(payload.encode()):08x}"

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "table": self.table,
            "address": format_address(self.scan_address),
            "layout": self.layout_kind,
            "partitions_total": self.num_partitions,
            "partitions_pruned": len(self.pruned),
            "partitions_selected": len(self.keep) if self.selection_active else 0,
            "partitions_executed": len(self.keep),
            "partitions_stale_retained": len(self.stale),
            "rows_total": self.rows_total,
            "rows_pruned_est": self.rows_pruned_est,
            "rows_pruned_actual": self.rows_pruned_actual,
            "rows_unselected": self.rows_unselected,
            "bytes_pruned": self.bytes_pruned,
            "token": self.token(),
        }
        if self.cluster_column:
            out["cluster_column"] = self.cluster_column
        if self.selection_fraction is not None:
            out["selection_fraction"] = self.selection_fraction
        if self.selection_active:
            out["inclusion_min"] = min(self.inclusion.values())
        if self.predicates:
            out["predicates"] = list(self.predicates)
        if self.semijoins:
            out["semijoins"] = list(self.semijoins)
        return out


def _collect_direct_predicates(
    analysis: PlanAnalysis, entry: ScanPartitioning
) -> List:
    """Conjuncts of precursor Selects, rewritten into scan-column names.

    A conjunct applies to the partitioned scan when all its columns trace
    (pass-through only) to that scan occurrence: under the precursor's
    inner-join/select/project algebra, any output row descends from a scan
    row satisfying the conjunct, so a partition where no row can satisfy
    it contributes nothing to the answer.
    """
    predicates = []
    for address, node in walk_with_addresses(analysis.split, analysis.split_address):
        if not isinstance(node, Select):
            continue
        for conjunct in prune_conjuncts(node.predicate):
            cols = tuple(sorted(conjunct.columns()))
            if not cols:
                continue
            traced = trace_to_scan(node.child, address + (0,), cols)
            if traced is None or traced[0] != entry.address:
                continue
            mapping = dict(zip(cols, traced[2]))
            predicates.append(conjunct.rename(mapping))
    return predicates


def _collect_semijoin_keys(
    analysis: PlanAnalysis,
    entry: ScanPartitioning,
    run_subtree: Callable,
) -> List[Tuple[str, np.ndarray, str]]:
    """(fact-key column, qualifying values, label) per prunable join.

    A join side qualifies as a pruning *source* when it is sampler-free and
    every scan under it is broadcast (small by the partitioner's own
    sizing): executing it once costs about one worker's share of the work
    it can save, and its exact output keys bound which fact keys survive
    the (inner) join. ``run_subtree(plan, required)`` executes a probe and
    returns its output, of which only the ``required`` columns (the join
    key) are read.
    """
    modes = {scan.address: scan.mode for scan in analysis.scans}
    selects = [
        (address, node)
        for address, node in walk_with_addresses(analysis.split, analysis.split_address)
        if isinstance(node, Select)
    ]
    checks: List[Tuple[str, np.ndarray, str]] = []
    for address, node in walk_with_addresses(analysis.split, analysis.split_address):
        if not isinstance(node, Join) or node.how != "inner":
            continue
        sides = (
            (node.left, node.left_keys, node.right, node.right_keys, 0),
            (node.right, node.right_keys, node.left, node.left_keys, 1),
        )
        for fact_side, fact_keys, dim_side, dim_keys, child in sides:
            if len(fact_keys) != 1 or len(dim_keys) != 1:
                continue
            traced = trace_to_scan(fact_side, address + (child,), tuple(fact_keys))
            if traced is None or traced[0] != entry.address:
                continue
            if any(isinstance(n, SamplerNode) for n in dim_side.walk()):
                continue
            dim_addr = address + (1 - child,)
            dim_scans = [
                a for a, n in walk_with_addresses(dim_side, dim_addr) if a in modes
            ]
            if not dim_scans or any(modes[a] != "broadcast" for a in dim_scans):
                continue
            # Dimension filters frequently sit *above* the join (builders
            # filter the joined rows); any ancestor-Select conjunct whose
            # columns pass through to a scan under the dimension side holds
            # row-for-row on the dimension, so it is pushed into the probe.
            probe = dim_side
            pushed = 0
            for sel_addr, sel in selects:
                if sel_addr != address[: len(sel_addr)]:
                    continue  # not an ancestor of this join
                for conjunct in prune_conjuncts(sel.predicate):
                    cols = tuple(sorted(conjunct.columns()))
                    if not cols:
                        continue
                    dim_traced = trace_to_scan(dim_side, dim_addr, cols)
                    if dim_traced is None or dim_traced[0] not in dim_scans:
                        continue
                    try:
                        probe = Select(probe, conjunct)
                        pushed += 1
                    except Exception:  # noqa: BLE001 - schema mismatch: skip
                        continue
            try:
                qualifying = run_subtree(probe, (dim_keys[0],))
                # The sorted distinct keys: ``value_counts`` counts or sorts,
                # where a bare ``np.unique`` may take NumPy's slower hash path.
                keys = value_counts(qualifying.column(dim_keys[0]))[0]
            except Exception:  # noqa: BLE001 - pruning must never fail a query
                continue
            checks.append(
                (
                    traced[2][0],
                    keys,
                    f"{traced[2][0]} ⋉ {dim_keys[0]} "
                    f"({keys.size} keys, {pushed} pushed filter(s))",
                )
            )
    return checks


def _keys_may_intersect(summary, keys: np.ndarray) -> bool:
    """Can the partition's column contain any of the qualifying keys?"""
    if summary.min_value is None:
        return False  # no non-null values: nothing joins
    if summary.values is not None:
        try:
            return bool(np.isin(np.asarray(summary.values), keys).any())
        except (TypeError, ValueError):
            return True
    try:
        window = keys[(keys >= summary.min_value) & (keys <= summary.max_value)]
    except TypeError:
        return True
    return bool(window.size)


def _selection_probabilities(
    weights: np.ndarray, fraction: float
) -> np.ndarray:
    """Clipped weight-proportional inclusion probabilities targeting an
    expected ``fraction`` of the partitions; the heaviest partition is
    always included (a deterministic anchor keeps the sample non-empty
    and, like any fixed ``pi`` vector, costs no unbiasedness)."""
    n = len(weights)
    target = max(1, int(round(fraction * n)))
    pi = np.minimum(1.0, target * weights / weights.sum())
    for _ in range(n):  # redistribute mass clipped at 1.0
        fixed = pi >= 1.0
        free = ~fixed
        spare = target - int(fixed.sum())
        if spare <= 0 or not free.any():
            break
        scaled = np.minimum(1.0, spare * weights[free] / weights[free].sum())
        if np.allclose(scaled, pi[free]):
            break
        pi[free] = scaled
    pi = np.maximum(pi, MIN_INCLUSION_PROBABILITY)
    pi[int(np.argmax(weights))] = 1.0
    return pi


def plan_partition_pruning(
    analysis: PlanAnalysis,
    database,
    degree: int,
    *,
    selection_fraction: Optional[float] = None,
    run_subtree: Optional[Callable] = None,
    task_seed: int = 0,
) -> Optional[ScanPrunePlan]:
    """Decide which partitions of the round-robin scan to run.

    Returns None when pruning does not apply: no catalog on the database,
    no round-robin-partitioned scan (hash strategies redistribute rows, so
    partition summaries do not describe the executed partitions), or a
    plan whose samplers are not partition-invariant (their output would
    change under the catalog's clustered layout).
    """
    catalog = getattr(database, "partition_stats", None)
    if catalog is None or degree < 2:
        return None
    if any(s.mode == "partition-hash" for s in analysis.scans):
        # Hash-partitioned siblings are co-partitioned by pid with each
        # other; compacting the round-robin scan's task list would break
        # that alignment.
        return None
    entries = [s for s in analysis.scans if s.mode == "partition-rr"]
    if len(entries) != 1:
        return None
    entry = entries[0]
    if not analysis.sampler_kinds <= PRUNE_INVARIANT_KINDS:
        return None

    table = database.table(entry.table)
    layout = catalog.layout(entry.table, degree)
    summaries = catalog.summaries(entry.table, degree)
    split_indices = catalog.live_indices(entry.table, degree)

    predicates = _collect_direct_predicates(analysis, entry)
    semijoins = (
        _collect_semijoin_keys(analysis, entry, run_subtree)
        if run_subtree is not None
        else []
    )

    keep: List[int] = []
    pruned: List[int] = []
    stale: List[int] = []
    rows_pruned_est = rows_pruned_actual = bytes_pruned = 0
    for pid in range(degree):
        summary = summaries[pid]
        live_rows = int(len(split_indices[pid]))
        if summary.rows != live_rows:
            # Stale/corrupt catalog entry: retain conservatively. Its
            # column summaries may describe rows that no longer exist (or
            # miss rows that do), so no proof built on them is trusted.
            stale.append(pid)
            keep.append(pid)
            continue
        if summary.rows == 0:
            pruned.append(pid)
            continue
        columns = summary.columns
        infeasible = any(not partition_feasible(p, columns) for p in predicates)
        if not infeasible:
            for fact_col, qualifying, _label in semijoins:
                col_summary = columns.get(fact_col)
                if col_summary is not None and not _keys_may_intersect(
                    col_summary, qualifying
                ):
                    infeasible = True
                    break
        if infeasible:
            pruned.append(pid)
            rows_pruned_est += summary.rows
            rows_pruned_actual += live_rows
            bytes_pruned += summary.bytes
        else:
            keep.append(pid)

    if not keep:
        # Every partition proved infeasible: the scan contributes no rows,
        # but the executor still needs one task to carry the schema through
        # the merge. Take back the smallest pruned partition — its rows are
        # all filtered out downstream anyway.
        smallest = min(pruned, key=lambda pid: summaries[pid].rows)
        pruned.remove(smallest)
        rows_pruned_est -= summaries[smallest].rows
        rows_pruned_actual -= int(len(split_indices[smallest]))
        bytes_pruned -= summaries[smallest].bytes
        keep = [smallest]

    # -- weighted selection over the survivors ------------------------------
    inclusion = {pid: 1.0 for pid in keep}
    unselected: List[int] = []
    rows_unselected = 0
    kinds = analysis.sampler_kinds
    can_select = (
        selection_fraction is not None
        and 0.0 < selection_fraction < 1.0
        and len(keep) > 1
        and analysis.aggregate is not None
        and bool(kinds & SELECTION_KINDS)
    )
    if can_select:
        group_columns = tuple(analysis.aggregate.group_by)
        weights = np.empty(len(keep), dtype=np.float64)
        for i, pid in enumerate(keep):
            summary = summaries[pid]
            overlap = sum(
                summary.columns[name].frequent
                for name in group_columns
                if name in summary.columns
            )
            # Occurrence-weighted: bigger partitions and partitions whose
            # frequent values cover more of the query's group-by space are
            # likelier to carry answer mass (Rong et al. §4.2).
            weights[i] = max(1.0, float(summary.rows)) * (1.0 + float(overlap))
        pi = _selection_probabilities(weights, float(selection_fraction))
        seed_tail = zlib.crc32(
            f"{entry.table}|{degree}|{tuple(keep)}".encode()
        )
        rng = np.random.default_rng([int(task_seed) & 0xFFFFFFFF, seed_tail])
        drawn = rng.random(len(keep)) < pi
        selected_pids = [pid for pid, take in zip(keep, drawn) if take]
        unselected = [pid for pid, take in zip(keep, drawn) if not take]
        rows_unselected = sum(summaries[pid].rows for pid in unselected)
        inclusion = {
            pid: float(p) for pid, p, take in zip(keep, pi, drawn) if take
        }
        keep = selected_pids

    return ScanPrunePlan(
        table=entry.table,
        scan_address=entry.address,
        num_partitions=degree,
        layout_kind=layout.strategy,
        cluster_column=next(iter(layout.columns), None),
        keep=tuple(keep),
        pruned=tuple(pruned),
        unselected=tuple(unselected),
        stale=tuple(stale),
        inclusion=inclusion,
        rows_total=int(table.num_rows),
        rows_pruned_est=rows_pruned_est,
        rows_pruned_actual=rows_pruned_actual,
        rows_unselected=rows_unselected,
        bytes_pruned=bytes_pruned,
        selection_fraction=(
            float(selection_fraction) if can_select else None
        ),
        predicates=tuple(repr(p) for p in predicates),
        semijoins=tuple(label for _, _, label in semijoins),
        partitioner=layout,
    )
