"""Plan analysis and surgery for partition-parallel execution.

The parallel executor splits a plan into:

* a **precursor** — the largest aggregate-free subtree of scans, selects,
  projects, inner joins and (physical) samplers. This is the data-heavy,
  single-pass part of the plan the paper parallelizes across partitions;
* a **successor** — the aggregation and everything above it, which runs
  once over the merged partition outputs.

``analyze_plan`` finds the split point, decides which scans to partition and
how (see :class:`repro.engine.partitions.Partitioner`), and reports *why* a plan cannot
be parallelized when it can't — the executor then falls back to serial
execution, mirroring the paper's "default option" philosophy (an
inapplicable optimization degrades to the baseline, never to an error).

Everything is identified by stable structural addresses
(:mod:`repro.algebra.addressing`), never by object identity: a Scan object
shared between both sides of a self-join is two distinct *occurrences* with
two addresses, two lineage columns and two worker catalog entries, and the
analysis stays valid across process boundaries.

``build_worker_plan`` rewrites the precursor for one worker: every scan is
pointed at that worker's partition (or broadcast copy) of its input, and
every stateful sampler is replaced by its partition-local spec
(:meth:`SamplerSpec.for_partition`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.algebra.addressing import NodeAddress, scan_ordinals, walk_with_addresses
from repro.algebra.builder import Query
from repro.algebra.logical import (
    Aggregate,
    Join,
    LogicalNode,
    Project,
    SamplerNode,
    Scan,
    Select,
)
from repro.engine.table import Database
from repro.samplers.distinct import DistinctSpec

__all__ = [
    "ScanPartitioning",
    "PlanAnalysis",
    "analyze_plan",
    "build_worker_plan",
    "worker_table_name",
]

#: Scans this small are always broadcast rather than partitioned.
DEFAULT_MIN_PARTITION_ROWS = 4_096

#: Seed for partition-routing hashes (distinct from sampler seeds so the
#: partition layout is independent of sampler decisions).
PARTITION_HASH_SEED = 0x9A77


def worker_table_name(scan_index: int) -> str:
    """Catalog name a worker registers the ``scan_index``-th scan's input
    under. One name per scan occurrence (not per base table), so self-joins
    and repeated dimension scans never collide."""
    return f"__scan{scan_index:03d}__"


@dataclass(frozen=True)
class ScanPartitioning:
    """How one scan occurrence's base table is distributed across workers."""

    #: Absolute address of this scan occurrence in the submitted plan.
    address: NodeAddress
    #: Pre-order scan ordinal (lineage column / worker catalog slot).
    scan_index: int
    table: str
    mode: str  # "partition-rr" | "partition-hash" | "broadcast"
    hash_columns: Tuple[str, ...] = ()


@dataclass
class PlanAnalysis:
    """Outcome of :func:`analyze_plan`."""

    ok: bool
    reason: str
    strategy: str = "serial-fallback"
    split: Optional[LogicalNode] = None
    #: Absolute address of the precursor root in the submitted plan.
    split_address: NodeAddress = ()
    aggregate: Optional[Aggregate] = None
    #: Absolute address of the aggregate directly above the precursor.
    aggregate_address: Optional[NodeAddress] = None
    scans: List[ScanPartitioning] = field(default_factory=list)
    #: Precursor-relative addresses of SamplerNodes whose per-value state is
    #: partition-aligned (the input is hash-partitioned on their own columns).
    aligned_sampler_addresses: frozenset = frozenset()
    #: Precursor-relative scan address -> pre-order scan ordinal of the
    #: submitted plan (what names lineage columns and worker tables).
    split_scan_ordinals: Dict[NodeAddress, int] = field(default_factory=dict)

    @property
    def partitioned_tables(self) -> Tuple[str, ...]:
        return tuple(s.table for s in self.scans if s.mode != "broadcast")

    @property
    def sampler_kinds(self) -> frozenset:
        """Kinds of the samplers inside the precursor."""
        return frozenset(
            node.spec.kind for node in self.split.walk() if isinstance(node, SamplerNode)
        )

    def partition_local(self, num_partitions: int) -> bool:
        """Whether some sampler's spec changes with the partition id
        (:meth:`SamplerSpec.for_partition`); if none does, one worker plan
        serves every task."""
        return any(
            node.spec.for_partition(pid, num_partitions, aligned=False) is not node.spec
            for node in self.split.walk()
            if isinstance(node, SamplerNode)
            for pid in range(num_partitions)
        )


_CLEAN_NODES = (Scan, Select, Project, SamplerNode, Join)


def _clean(node: LogicalNode) -> Optional[str]:
    """None if the subtree is partitionable; else the reason it isn't."""
    for sub in node.walk():
        if not isinstance(sub, _CLEAN_NODES):
            return f"operator {type(sub).__name__} is not partition-pure"
        if isinstance(sub, Join) and sub.how != "inner":
            return f"{sub.how}-outer join needs a global view of unmatched rows"
        if isinstance(sub, SamplerNode) and not hasattr(sub.spec, "apply"):
            return "plan still carries logical sampler state (run ASALQA costing first)"
    return None


def _find_split(
    plan: LogicalNode,
) -> Tuple[Optional[LogicalNode], NodeAddress, Optional[Aggregate], Optional[NodeAddress], str]:
    """Locate the precursor subtree (with address) and the aggregate above it."""
    aggregates = [
        (address, node)
        for address, node in walk_with_addresses(plan)
        if isinstance(node, Aggregate)
    ]
    if not aggregates:
        why = _clean(plan)
        if why is None:
            return plan, (), None, None, ""
        return None, (), None, None, why
    # Bottom-most aggregate: one whose subtree contains no other aggregate.
    for address, agg in aggregates:
        inner = [n for n in agg.child.walk() if isinstance(n, Aggregate)]
        if inner:
            continue
        why = _clean(agg.child)
        if why is None:
            return agg.child, address + (0,), agg, address, ""
        return None, (), None, None, why
    return None, (), None, None, "nested aggregates with no partitionable precursor"


def _trace_to_scan(
    node: LogicalNode, address: NodeAddress, columns: Tuple[str, ...]
) -> Optional[Tuple[NodeAddress, Scan, Tuple[str, ...]]]:
    """Follow pass-through columns down to a single scan occurrence.

    Returns the scan's address, the scan, and the column names *at the scan*
    that carry the given output columns — or None when the columns are
    computed, split across inputs, or renamed through a non-identity
    projection.
    """
    if isinstance(node, Scan):
        if set(columns) <= set(node.output_columns()):
            return address, node, columns
        return None
    if isinstance(node, (Select, SamplerNode)):
        return _trace_to_scan(node.children[0], address + (0,), columns)
    if isinstance(node, Project):
        passthrough = node.identity_passthrough()
        if not all(c in passthrough for c in columns):
            return None
        return _trace_to_scan(
            node.child, address + (0,), tuple(passthrough[c] for c in columns)
        )
    if isinstance(node, Join):
        left_cols = set(node.left.output_columns())
        if set(columns) <= left_cols:
            return _trace_to_scan(node.left, address + (0,), columns)
        right_cols = set(node.right.output_columns())
        if set(columns) <= right_cols:
            return _trace_to_scan(node.right, address + (1,), columns)
        return None
    return None


def analyze_plan(
    plan,
    database: Database,
    min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS,
) -> PlanAnalysis:
    """Decide whether and how to run ``plan`` partition-parallel.

    Strategy preference, mirroring what a cluster optimizer would pick:

    1. **hash on stratification columns** when the precursor carries a
       distinct sampler whose (plain-column) strata trace to one scan — the
       sampler then runs with exact per-stratum state in every worker;
    2. **hash co-partitioning on join keys** when the topmost join's keys
       trace to a scan occurrence on both sides and both are large
       (fact-fact);
    3. **round-robin on the largest scan**, broadcasting everything else
       (the fact/dimension star-join layout).
    """
    plan = plan.plan if isinstance(plan, Query) else plan
    ordinals = scan_ordinals(plan)

    split, split_address, aggregate, aggregate_address, why = _find_split(plan)
    if split is None:
        return PlanAnalysis(ok=False, reason=why)

    occurrences = [
        (address, node)
        for address, node in walk_with_addresses(split, split_address)
        if isinstance(node, Scan)
    ]
    if not occurrences:
        return PlanAnalysis(ok=False, reason="no scans under the aggregate")
    rows = {address: database.table(s.table).num_rows for address, s in occurrences}
    largest_address, largest = max(occurrences, key=lambda pair: rows[pair[0]])
    if rows[largest_address] < min_partition_rows:
        return PlanAnalysis(
            ok=False,
            reason=f"largest input ({largest.table}, {rows[largest_address]} rows) below "
            f"the {min_partition_rows}-row parallel threshold",
        )

    relative = len(split_address)
    split_scan_ordinals = {
        address[relative:]: ordinals[address] for address, _ in occurrences
    }

    def scan_entry(
        address: NodeAddress, scan: Scan, mode: str, cols: Tuple[str, ...] = ()
    ) -> ScanPartitioning:
        return ScanPartitioning(address, ordinals[address], scan.table, mode, cols)

    def analysis(strategy: str, entries, aligned=frozenset()) -> PlanAnalysis:
        return PlanAnalysis(
            ok=True,
            reason="",
            strategy=strategy,
            split=split,
            split_address=split_address,
            aggregate=aggregate,
            aggregate_address=aggregate_address,
            scans=entries,
            aligned_sampler_addresses=aligned,
            split_scan_ordinals=split_scan_ordinals,
        )

    # 1. Stratification-aligned hash partitioning for a distinct sampler.
    for address, node in walk_with_addresses(split, split_address):
        if isinstance(node, SamplerNode) and isinstance(node.spec, DistinctSpec):
            plain = node.spec.plain_column_names()
            if not plain:
                continue
            traced = _trace_to_scan(node.child, address + (0,), plain)
            if traced is None:
                continue
            scan_address, _, source_cols = traced
            if rows[scan_address] < min_partition_rows:
                continue
            entries = [
                scan_entry(
                    a,
                    s,
                    "partition-hash" if a == scan_address else "broadcast",
                    source_cols if a == scan_address else (),
                )
                for a, s in occurrences
            ]
            return analysis(
                f"hash[distinct:{','.join(source_cols)}]",
                entries,
                aligned=frozenset({address[relative:]}),
            )

    # 2. Co-partitioned fact-fact join (self-joins included: each occurrence
    # is hash-partitioned on its own key columns, so matching keys meet).
    for address, node in walk_with_addresses(split, split_address):
        if not isinstance(node, Join):
            continue
        left_traced = _trace_to_scan(node.left, address + (0,), node.left_keys)
        right_traced = _trace_to_scan(node.right, address + (1,), node.right_keys)
        if left_traced is None or right_traced is None:
            continue
        (laddr, _, lcols), (raddr, _, rcols) = left_traced, right_traced
        if min(rows[laddr], rows[raddr]) < min_partition_rows:
            continue
        entries = []
        for a, s in occurrences:
            if a == laddr:
                entries.append(scan_entry(a, s, "partition-hash", lcols))
            elif a == raddr:
                entries.append(scan_entry(a, s, "partition-hash", rcols))
            else:
                entries.append(scan_entry(a, s, "broadcast"))
        return analysis(f"hash[join:{','.join(lcols)}={','.join(rcols)}]", entries)

    # 3. Round-robin the largest scan occurrence, broadcast the rest.
    entries = [
        scan_entry(a, s, "partition-rr" if a == largest_address else "broadcast")
        for a, s in occurrences
    ]
    return analysis(f"round-robin[{largest.table}]", entries)


def build_worker_plan(
    split: LogicalNode,
    split_scan_ordinals: Dict[NodeAddress, int],
    partition_index: int,
    num_partitions: int,
    aligned_sampler_addresses: frozenset,
) -> LogicalNode:
    """The precursor as one worker runs it.

    ``split_scan_ordinals`` and ``aligned_sampler_addresses`` are keyed by
    precursor-relative addresses (as produced by :func:`analyze_plan`).
    Scans are retargeted at the worker's catalog (one entry per scan
    occurrence, see :func:`worker_table_name`); samplers are swapped for
    their partition-local specs. Structure is preserved node-for-node, so
    the worker plan's addresses line up with the parent's precursor — that
    is what lets the parent merge per-node cardinalities back in.
    """

    def rebuild(node: LogicalNode, address: NodeAddress) -> LogicalNode:
        if isinstance(node, Scan):
            return Scan(
                worker_table_name(split_scan_ordinals[address]), node.output_columns()
            )
        children = [rebuild(child, address + (i,)) for i, child in enumerate(node.children)]
        if isinstance(node, SamplerNode):
            spec = node.spec.for_partition(
                partition_index, num_partitions, aligned=address in aligned_sampler_addresses
            )
            return SamplerNode(children[0], spec)
        return node.with_children(children)

    return rebuild(split, ())
