"""Merging partition outputs back into one answer.

Two merge modes, trading exactness of *reproduction* against shuffle size:

* **row merge** (:func:`merge_rows`) — concatenate the partition outputs of
  the precursor and restore the exact serial row order by merging the
  payloads (sorted runs) on their packed lineage key. The serial
  aggregation then runs over a byte-identical input, so estimates match a
  serial run bit-for-bit (including floating-point summation order). This
  mirrors shipping sampled rows to a single downstream vertex, which is
  cheap precisely because the samplers already shrank the data (the
  paper's argument for why sampled plans keep their wins through the
  shuffle).

  When the split's root is an inner join the aggregate above reads
  unbuilt, partitions ship the join's matches instead of its output
  (:class:`~repro.engine.operators.JoinParts`) and :func:`merge_matches`
  orders the probe rows, each carrying its segment of build rows: the
  same order, from P probe rows instead of N output rows.

* **partial-aggregate merge** — each worker reduces its partition to the
  mergeable state of :mod:`repro.engine.aggregate`; the parent merges the
  states by group value and finalizes. This is the classic two-phase
  aggregation a cluster would run, and the same code the serial operator
  runs over one input; nothing of it lives here.

What weighted partition selection adds on top of that per-partition state —
the between-partition variance term — is :func:`inflate_selection_cis`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.algebra.logical import Aggregate
from repro.engine.aggregate import (
    CI_SUFFIX,
    Z_95,
    PartialAggregate,
    merged_groups,
    partial_aggregate,
)
from repro.engine.keys import pack_keys
from repro.engine.operators import MATCH_COLUMN, JoinedRows, JoinParts, segment_rows
from repro.engine.table import WEIGHT_COLUMN, Table
from repro.errors import PlanError

__all__ = ["merge_rows", "merge_matches", "inflate_selection_cis"]


def merge_rows(
    tables: Sequence[Table],
    name: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
) -> Table:
    """Union partition outputs, restoring exact serial row order.

    Lineage column names sort into pre-order scan order (significance
    order), and every plan operator below the aggregate emits rows in
    lexicographic lineage order, so ordering the concatenation by its
    lineage tuples reproduces the serial stream exactly. The tuples are
    packed into one order-preserving int64
    (:func:`repro.engine.keys.pack_keys`) and each payload is already a
    sorted run of it, which a stable timsort merges in O(n log D); input
    that is not (outer-join ``-1`` fills) is still sorted correctly, ties
    staying in concatenation order.

    ``columns`` names what the consumer reads (default: every column): the
    rows are ordered by all the lineage, but only the named columns and
    the weight column are gathered into that order. Rows of two or more
    partitions without lineage have no serial order to restore: that is a
    :class:`PlanError`, not a concatenation.
    """
    if not tables:
        raise PlanError("merge_rows needs at least one partition output")
    if sum(t.num_rows > 0 for t in tables) > 1 and not tables[0].has_lineage():
        raise PlanError("merge_rows got several partitions' rows but no lineage to order them")
    if len(tables) == 1:
        # Single survivor: its rows are already the whole stream (modulo the
        # ordering below) — skip the concat copy. With the shm transport
        # this keeps the answer a zero-copy view until materialization.
        merged = tables[0] if name is None else tables[0].rename_columns({}, name=name)
    else:
        merged = Table.concat(tables, name=name or tables[0].name)
    lineage = merged.lineage_columns()
    if columns is not None:
        kept = {*columns, WEIGHT_COLUMN}
        merged = merged.drop_columns([c for c in merged.column_names if c not in kept])
    if not lineage:
        return merged
    key = pack_keys(lineage)[0]
    if (key[1:] >= key[:-1]).all():
        return merged  # already one sorted run
    return merged.take(np.argsort(key, kind="stable"))


def merge_matches(parts: Sequence[JoinParts], columns: Sequence[str]) -> JoinedRows:
    """Union partition matches of one inner join, restoring exact serial
    row order, as the join's output left unbuilt carrying ``columns``.

    Each probe row and all its matches sit in one partition, the matches
    in build-row order, so the output :func:`merge_rows` would give is
    the probe rows ordered by their lineage, each followed by its segment
    of build rows. Only the P probe rows are ordered; the segments follow
    with one gather per build column.
    """
    if not parts:
        raise PlanError("merge_matches needs at least one partition's matches")
    probe = _union([part.probe for part in parts])
    build = None if parts[0].build is None else _union([part.build for part in parts])
    lineage = probe.lineage_columns()
    probe = probe.drop_lineage()
    key = pack_keys(lineage)[0] if lineage else None
    if key is not None and not (key[1:] >= key[:-1]).all():
        order = np.argsort(key, kind="stable")
        if build is not None:
            counts = probe.key_column(MATCH_COLUMN)
            starts = np.cumsum(counts) - counts
            build = build.take(segment_rows(starts[order], counts[order]))
        probe = probe.take(order)
    return JoinedRows.from_parts(JoinParts(probe, build), columns)


def _union(tables: Sequence[Table]) -> Table:
    return tables[0] if len(tables) == 1 else Table.concat(tables)


# -- weighted-selection CI inflation --------------------------------------------


def inflate_selection_cis(
    table: Table,
    aggregate: Aggregate,
    payloads: Sequence[Table],
    inclusions: Sequence[float],
) -> Table:
    """Widen CI columns by the between-partition selection variance.

    The row-level HT variance Σ (w² − w)·y² assumes independent per-row
    inclusion, but weighted partition selection includes or excludes whole
    partitions at once. With folded weights (w₀/π) the unbiased extra term
    for a SUM-like aggregate is Σ_{p∈S, π_p<1} (1 − π_p)·T̂²_{p,g}, where
    T̂_{p,g} is partition p's folded total for group g — the ``est``
    component of the partition's partial-aggregate state. CIs widen to
    sqrt(ci² + z²·var_extra).

    Best-effort by design: only SUM/COUNT (and IF forms) have an additive
    per-partition total, and alignment needs the group-by keys to survive
    into the answer — anything else is returned untouched.
    """
    group_by = aggregate.group_by
    targets = [
        agg
        for agg in aggregate.aggs
        if table.has_column(agg.alias) and table.has_column(agg.alias + CI_SUFFIX)
    ]
    if not targets or any(not table.has_column(k) for k in group_by):
        return table
    states = [
        (partial_aggregate(payload, group_by, targets), pi)
        for payload, pi in zip(payloads, inclusions)
        if pi < 1.0 and payload.num_rows
    ]
    if not states:
        return table
    # The answer's rows are the first "state", so every partition's groups
    # are coded against them (groups the answer dropped get later codes).
    answer = PartialAggregate(
        group_by,
        weighted=False,
        rows=0,
        num_groups=table.num_rows,
        keys={k: table.column(k) for k in group_by},
    )
    _, (rows, *codes_per_part), num_groups = merged_groups(
        [answer] + [state for state, _ in states]
    )
    widened = {}
    for alias, tag in states[0][0].comps:
        if tag != "est":
            continue
        extra = np.zeros(num_groups)
        for (state, pi), codes in zip(states, codes_per_part):
            totals = state.comps[(alias, tag)]
            extra[codes] += (1.0 - pi) * totals * totals
        old = np.asarray(table.column(alias + CI_SUFFIX), dtype=np.float64)
        widened[alias + CI_SUFFIX] = np.sqrt(old * old + Z_95 * Z_95 * extra[rows])
    return table.with_columns(widened)
