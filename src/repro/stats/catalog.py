"""Input-table statistics (paper Table 2) and the partition-level catalog.

For each input table Quickr records: row count; per interesting column the
number of distinct values, average/variance (numerical columns), and heavy
hitter values with frequencies. "If not already available, the statistics
are computed by the first query that reads the table" — we mirror that
per column and per statistic: the row count is the table's own, a column's
moments are computed when a value skew or a range selectivity first asks,
its distinct count and heavy hitters in one pass when either is first
asked for, and a column nobody asks about is never read. All are exact.

Distinct counts over *column sets* (needed by the C1 support check and the
join push-down rules' NumDV calls) are computed exactly on demand and
cached per set.

The second half of this module is the **partition catalog** (Rong et al.,
"Approximate Partition Selection for Big-Data Workloads using Summary
Statistics"): per-(table, partition), per-column summaries — min/max, null
count, exact distinct plus a KMV sketch, lossy-counting heavy hitters, row
and byte counts — over a declared :class:`PartitionLayout`. Summaries are
mergeable (sketch merges compose), so catalogs roll up across
repartitioning, and JSON-serializable so a built catalog can be inspected
and validated offline (``repro stats-catalog``). The prune/select pass
(:mod:`repro.optimizer.pruning`) consumes these summaries to skip
partitions that provably cannot satisfy a query's predicates and to pick
weighted partition subsets under an error budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from repro.engine.keys import value_counts
from repro.engine.partitions import RANGE_CLUSTER, Partitioner
from repro.engine.table import Database, Table
from repro.errors import CatalogError
from repro.obs.trace import maybe_span
from repro.sketches.distinct_count import KMVCounter, exact_distinct_multi
from repro.sketches.heavy_hitters import LossyCounter

__all__ = [
    "ColumnStats",
    "TableStats",
    "Catalog",
    "ColumnSummary",
    "PartitionSummary",
    "PartitionLayout",
    "PartitionCatalog",
]

#: A value is a heavy hitter if it covers at least this fraction of rows
#: (paper Section 4.1.2 uses s = 1e-2 for the sketch; the catalog keeps the
#: same threshold for its exact top values).
HEAVY_HITTER_FRACTION = 0.01

#: Keep at most this many heavy hitters per column.
MAX_HEAVY_HITTERS = 64


def _scalar(value: Any) -> Any:
    return value.item() if hasattr(value, "item") else value


def _collecting(table: Table, column: str, statistic: str):
    """The span every statistic is built under, so a traced plan shows
    statistics time as its own child."""
    return maybe_span(
        "catalog.collect",
        table=table.name,
        column=column,
        statistic=statistic,
        rows=table.num_rows,
    )


class ColumnStats:
    """Statistics of one column, each built from the data when first asked
    for and kept: the moments (mean, variance, min, max — numeric columns
    only) in one pass, the distinct count with the heavy hitters in another.
    """

    def __init__(self, table: Table, name: str):
        self._table = table
        self._name = name

    @cached_property
    def _moments(self) -> Tuple[Optional[float], ...]:
        values = self._table.column(self._name)
        if values.dtype.kind not in "iuf" or len(values) == 0:
            return None, None, None, None
        with _collecting(self._table, self._name, "moments"):
            as_float = values.astype(np.float64, copy=False)
            return (
                float(np.mean(as_float)),
                float(np.var(as_float)),
                float(np.min(as_float)),
                float(np.max(as_float)),
            )

    @cached_property
    def _counts(self) -> Tuple[int, Dict]:
        values = self._table.column(self._name)
        if len(values) == 0:
            return 0, {}
        with _collecting(self._table, self._name, "counts"):
            uniques, counts = value_counts(values)
            heavy = counts >= max(1, int(HEAVY_HITTER_FRACTION * len(values)))
            order = np.argsort(counts[heavy])[::-1][:MAX_HEAVY_HITTERS]
            hitters = zip(uniques[heavy][order], counts[heavy][order])
            return len(uniques), {_scalar(value): int(count) for value, count in hitters}

    @property
    def mean(self) -> Optional[float]:
        return self._moments[0]

    @property
    def variance(self) -> Optional[float]:
        return self._moments[1]

    @property
    def min_value(self) -> Optional[float]:
        return self._moments[2]

    @property
    def max_value(self) -> Optional[float]:
        return self._moments[3]

    @property
    def distinct(self) -> int:
        return self._counts[0]

    @property
    def heavy_hitters(self) -> Dict:
        return self._counts[1]

    def heavy_hitter_mass(self) -> float:
        return float(sum(self.heavy_hitters.values()))

    def built(self) -> Tuple[str, ...]:
        """Which statistics have been computed so far."""
        return tuple(
            name for name in ("moments", "counts") if f"_{name}" in self.__dict__
        )


class TableStats:
    """Statistics of one base table: the row count is the table's own; a
    column's statistics and a column set's distinct count exist once asked
    for."""

    def __init__(self, table: Table):
        self._table = table
        self.name = table.name
        self.rows = table.num_rows
        self.columns: Dict[str, ColumnStats] = {}
        self._set_distinct_cache: Dict[FrozenSet[str], int] = {}

    def column(self, name: str) -> ColumnStats:
        stats = self.columns.get(name)
        if stats is None:
            if name not in self._table.data_column_names():
                raise CatalogError(f"no statistics for column {name!r} of {self.name!r}")
            stats = self.columns[name] = ColumnStats(self._table, name)
        return stats

    def distinct(self, colset: FrozenSet[str]) -> int:
        """Exact distinct count of a set of two or more columns."""
        cached = self._set_distinct_cache.get(colset)
        if cached is None:
            names = sorted(colset)
            with _collecting(self._table, ",".join(names), "set_distinct"):
                cached = exact_distinct_multi([self._table.column(c) for c in names])
            self._set_distinct_cache[colset] = cached
        return cached


class Catalog:
    """Lazy statistics store over a :class:`Database`."""

    def __init__(self, database: Database):
        self.database = database
        self._stats: Dict[str, TableStats] = {}

    def stats(self, table_name: str) -> TableStats:
        """The table's statistics; nothing is computed until a statistic
        is read."""
        stats = self._stats.get(table_name)
        if stats is None:
            stats = self._stats[table_name] = TableStats(self.database.table(table_name))
        return stats

    # -- queries -------------------------------------------------------------------
    def row_count(self, table_name: str) -> int:
        return self.stats(table_name).rows

    def distinct(self, table_name: str, columns) -> int:
        """Exact distinct count of a column set, cached per set."""
        colset = frozenset(columns)
        if not colset:
            return 1
        stats = self.stats(table_name)
        if len(colset) == 1:
            (only,) = colset
            return stats.column(only).distinct
        return stats.distinct(colset)

    def value_skew(self, table_name: str, column: str) -> float:
        """Coefficient-of-variation proxy for aggregate-value skew, used to
        decide whether a SUM needs stratification on the value column."""
        col = self.stats(table_name).column(column)
        if col.mean is None or col.variance is None or col.mean == 0:
            return 0.0
        return float(np.sqrt(col.variance) / abs(col.mean))

    def collected_tables(self) -> Tuple[str, ...]:
        return tuple(self._stats.keys())


# ---------------------------------------------------------------------------
# Partition-level catalog
# ---------------------------------------------------------------------------

#: KMV sketch size for per-partition distinct counts (small partitions need
#: fewer minima than the table-level default).
PARTITION_KMV_K = 256

#: Lossy-counting parameters for per-partition heavy hitters. tau is larger
#: than the paper's streaming 1e-4 because partition builds feed *exact*
#: counts (one ``np.unique`` pass), so tau only bounds which entries are
#: worth keeping.
PARTITION_HH_TAU = 1e-3
PARTITION_HH_SUPPORT = 1e-2

#: Keep the exact value set of a partition column when it has at most this
#: many distinct values — membership tests then prune exactly.
MAX_EXACT_VALUES = 64


@dataclass
class ColumnSummary:
    """Summary statistics of one column within one partition."""

    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    null_count: int = 0
    distinct: int = 0
    kmv: Optional[KMVCounter] = None
    heavy: Optional[LossyCounter] = None
    #: Exact distinct values when there are at most MAX_EXACT_VALUES of
    #: them; None means "too many to enumerate", never "empty".
    values: Optional[Tuple[Any, ...]] = None

    @classmethod
    def from_array(cls, column: np.ndarray) -> "ColumnSummary":
        n = len(column)
        if n == 0:
            return cls(values=())
        if column.dtype.kind == "f":
            nulls = np.isnan(column)
            null_count = int(nulls.sum())
            nonnull = column[~nulls] if null_count else column
        else:
            null_count = 0
            nonnull = column
        summary = cls(null_count=null_count)
        if len(nonnull) == 0:
            summary.values = ()
            return summary
        uniques, counts = np.unique(nonnull, return_counts=True)
        summary.min_value = _scalar(uniques[0])
        summary.max_value = _scalar(uniques[-1])
        summary.distinct = int(len(uniques))
        summary.kmv = KMVCounter.from_values(uniques, k=PARTITION_KMV_K)
        summary.heavy = LossyCounter.from_exact_counts(
            uniques, counts, tau=PARTITION_HH_TAU, support=PARTITION_HH_SUPPORT
        )
        if summary.distinct <= MAX_EXACT_VALUES:
            summary.values = tuple(_scalar(u) for u in uniques)
        return summary

    def merge(self, other: "ColumnSummary") -> "ColumnSummary":
        merged = ColumnSummary(null_count=self.null_count + other.null_count)
        mins = [v for v in (self.min_value, other.min_value) if v is not None]
        maxs = [v for v in (self.max_value, other.max_value) if v is not None]
        merged.min_value = min(mins) if mins else None
        merged.max_value = max(maxs) if maxs else None
        if self.kmv is not None and other.kmv is not None:
            merged.kmv = self.kmv.merge(other.kmv)
        else:
            merged.kmv = self.kmv or other.kmv
        if self.heavy is not None and other.heavy is not None:
            merged.heavy = self.heavy.merge(other.heavy)
        else:
            merged.heavy = self.heavy or other.heavy
        if self.values is not None and other.values is not None:
            union = sorted(set(self.values) | set(other.values))
            merged.values = tuple(union) if len(union) <= MAX_EXACT_VALUES else None
        if merged.values is not None:
            merged.distinct = len(merged.values)
        elif merged.kmv is not None:
            # Rolled-up distinct is estimated from the merged KMV sketch;
            # exact counts do not compose across partitions.
            merged.distinct = merged.kmv.estimate()
        else:
            merged.distinct = max(self.distinct, other.distinct)
        return merged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "min": self.min_value,
            "max": self.max_value,
            "nulls": self.null_count,
            "distinct": self.distinct,
            "kmv": self.kmv.to_dict() if self.kmv is not None else None,
            "heavy": self.heavy.to_dict() if self.heavy is not None else None,
            "values": list(self.values) if self.values is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ColumnSummary":
        return cls(
            min_value=payload["min"],
            max_value=payload["max"],
            null_count=int(payload["nulls"]),
            distinct=int(payload["distinct"]),
            kmv=KMVCounter.from_dict(payload["kmv"]) if payload["kmv"] else None,
            heavy=LossyCounter.from_dict(payload["heavy"]) if payload["heavy"] else None,
            values=tuple(payload["values"]) if payload["values"] is not None else None,
        )


@dataclass
class PartitionSummary:
    """Summary of one partition of one table."""

    table: str
    partition: int
    rows: int
    bytes: int
    columns: Dict[str, ColumnSummary] = field(default_factory=dict)

    def column(self, name: str) -> ColumnSummary:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"no partition statistics for column {name!r} of "
                f"{self.table!r}[{self.partition}]"
            ) from None

    def merge(self, other: "PartitionSummary") -> "PartitionSummary":
        """Roll two partition summaries up into one (the merged partition
        keeps the smaller ordinal); composes across repartitioning."""
        if other.table != self.table:
            raise CatalogError(
                f"cannot merge partition summaries of {self.table!r} and {other.table!r}"
            )
        names = set(self.columns) | set(other.columns)
        merged_columns = {}
        for name in names:
            mine = self.columns.get(name)
            theirs = other.columns.get(name)
            if mine is not None and theirs is not None:
                merged_columns[name] = mine.merge(theirs)
            else:
                merged_columns[name] = mine or theirs
        return PartitionSummary(
            table=self.table,
            partition=min(self.partition, other.partition),
            rows=self.rows + other.rows,
            bytes=self.bytes + other.bytes,
            columns=merged_columns,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "partition": self.partition,
            "rows": self.rows,
            "bytes": self.bytes,
            "columns": {name: col.to_dict() for name, col in self.columns.items()},
        }

    @classmethod
    def from_dict(cls, table: str, payload: Dict[str, Any]) -> "PartitionSummary":
        return cls(
            table=table,
            partition=int(payload["partition"]),
            rows=int(payload["rows"]),
            bytes=int(payload["bytes"]),
            columns={
                name: ColumnSummary.from_dict(col)
                for name, col in payload["columns"].items()
            },
        )


@dataclass(frozen=True)
class PartitionLayout:
    """How a table's rows map to partitions.

    ``range-cluster`` layouts assign each row by binary search of its
    cluster-column value against ``boundaries`` (equal-frequency quantile
    cut points) — physically this models data clustered on ingest time or
    date, the layout that makes min/max pruning effective. ``round-robin``
    is the unclustered fallback: positions modulo the partition count,
    matching :class:`repro.parallel.partitioner.Partitioner`'s default, so
    summaries stay valid for the executor's default split.
    """

    table: str
    num_partitions: int
    kind: str = "round-robin"
    cluster_column: Optional[str] = None
    boundaries: Tuple[float, ...] = ()

    @classmethod
    def range_cluster(
        cls, table: Table, column: str, num_partitions: int
    ) -> "PartitionLayout":
        values = table.column(column)
        if values.dtype.kind not in ("i", "u", "f") or table.num_rows == 0:
            return cls(table=table.name, num_partitions=num_partitions)
        quantiles = np.linspace(0.0, 1.0, num_partitions + 1)[1:-1]
        boundaries = np.quantile(values.astype(np.float64), quantiles)
        return cls(
            table=table.name,
            num_partitions=num_partitions,
            kind=RANGE_CLUSTER,
            cluster_column=column,
            boundaries=tuple(float(b) for b in boundaries),
        )

    @property
    def partitioner(self) -> Partitioner:
        """The :class:`Partitioner` that cuts this layout (what the
        database's partition store keys its entries by)."""
        if self.kind == RANGE_CLUSTER:
            return Partitioner(
                self.num_partitions, RANGE_CLUSTER, (self.cluster_column,),
                boundaries=self.boundaries,
            )
        return Partitioner(self.num_partitions)

    def split_indices(self, table: Table) -> List[np.ndarray]:
        """Row-index arrays per partition, in ascending row order."""
        return self.partitioner.indices(table)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "table": self.table,
            "num_partitions": self.num_partitions,
            "kind": self.kind,
            "cluster_column": self.cluster_column,
            "boundaries": list(self.boundaries),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PartitionLayout":
        return cls(
            table=payload["table"],
            num_partitions=int(payload["num_partitions"]),
            kind=payload["kind"],
            cluster_column=payload["cluster_column"],
            boundaries=tuple(float(b) for b in payload["boundaries"]),
        )


class PartitionCatalog:
    """Lazy per-(table, partition) statistics over a :class:`Database`.

    Built at datagen/load time (cheaply: the object is just a recipe; the
    summaries of each (table, partition-count) pair are computed on first
    access and cached). ``cluster_columns`` names the column a table is
    physically clustered on — those tables get ``range-cluster`` layouts,
    everything else round-robin.
    """

    def __init__(
        self,
        database: Database,
        cluster_columns: Optional[Mapping[str, str]] = None,
    ):
        # The live table mapping, not the database: the database owns its
        # catalog (``Database.partition_stats``), and a back-pointer would
        # close a cycle that keeps a dropped database and its arrays alive
        # until the cycle collector's oldest generation runs.
        self._tables = database.tables()
        #: The database's resident partitions: summaries describe exactly
        #: the rows a query is later placed on.
        self._store = database.partitions
        self.cluster_columns: Dict[str, str] = dict(cluster_columns or {})
        self._layouts: Dict[Tuple[str, int], PartitionLayout] = {}
        self._summaries: Dict[Tuple[str, int], List[PartitionSummary]] = {}

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r} in database") from None

    # -- layouts -----------------------------------------------------------------
    def layout(self, table_name: str, num_partitions: int) -> PartitionLayout:
        key = (table_name, int(num_partitions))
        if key not in self._layouts:
            table = self._table(table_name)
            cluster = self.cluster_columns.get(table_name)
            if cluster is not None and table.has_column(cluster):
                self._layouts[key] = PartitionLayout.range_cluster(
                    table, cluster, num_partitions
                )
            else:
                self._layouts[key] = PartitionLayout(
                    table=table_name, num_partitions=num_partitions
                )
        return self._layouts[key]

    # -- summaries ---------------------------------------------------------------
    def summaries(self, table_name: str, num_partitions: int) -> List[PartitionSummary]:
        """Per-partition summaries under :meth:`layout`, built on first use."""
        key = (table_name, int(num_partitions))
        if key not in self._summaries:
            table = self._table(table_name)
            self._summaries[key] = [
                self._summarize(table, pid, idx)
                for pid, idx in enumerate(self.live_indices(table_name, num_partitions))
            ]
        return self._summaries[key]

    def live_indices(self, table_name: str, num_partitions: int) -> List[np.ndarray]:
        """Row indices of the live table's partitions under :meth:`layout`,
        from the database's partition store (cut once per table version)."""
        partitioner = self.layout(table_name, num_partitions).partitioner
        return self._store.partitions(self._table(table_name), partitioner).indices

    @staticmethod
    def _summarize(table: Table, partition: int, idx: np.ndarray) -> PartitionSummary:
        columns: Dict[str, ColumnSummary] = {}
        nbytes = 0
        for name in table.data_column_names():
            values = table.column(name, idx)
            nbytes += int(values.nbytes)
            columns[name] = ColumnSummary.from_array(values)
        return PartitionSummary(
            table=table.name,
            partition=partition,
            rows=int(len(idx)),
            bytes=nbytes,
            columns=columns,
        )

    def table_rollup(self, table_name: str, num_partitions: int) -> PartitionSummary:
        """All partition summaries merged back to table level."""
        summaries = self.summaries(table_name, num_partitions)
        merged = summaries[0]
        for other in summaries[1:]:
            merged = merged.merge(other)
        return merged

    def built(self) -> Tuple[Tuple[str, int], ...]:
        """(table, partition-count) pairs with summaries materialized."""
        return tuple(sorted(self._summaries.keys()))

    # -- validation --------------------------------------------------------------
    def validate(self, table_name: Optional[str] = None) -> List[str]:
        """Cross-check built summaries against the current data.

        Returns a list of human-readable problems (empty = consistent).
        The same row-count cross-check guards the executor's prune pass:
        a partition whose live row count disagrees with its summary is
        conservatively retained, never pruned.
        """
        problems: List[str] = []
        for (name, parts), summaries in sorted(self._summaries.items()):
            if table_name is not None and name != table_name:
                continue
            table = self._table(name)
            for pid, idx in enumerate(self.live_indices(name, parts)):
                summary = summaries[pid]
                if summary.rows != len(idx):
                    problems.append(
                        f"{name}[{pid}] of {parts}: summary says {summary.rows} "
                        f"rows, data has {len(idx)}"
                    )
            total = sum(s.rows for s in summaries)
            if total != table.num_rows:
                problems.append(
                    f"{name} ({parts} partitions): summaries cover {total} rows, "
                    f"table has {table.num_rows}"
                )
        return problems

    # -- serialization -----------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of everything built so far."""
        entries = []
        for (name, parts), summaries in sorted(self._summaries.items()):
            entries.append(
                {
                    "layout": self.layout(name, parts).to_dict(),
                    "partitions": [s.to_dict() for s in summaries],
                }
            )
        return {"cluster_columns": dict(self.cluster_columns), "tables": entries}

    @classmethod
    def from_payload(
        cls, database: Database, payload: Dict[str, Any]
    ) -> "PartitionCatalog":
        catalog = cls(database, cluster_columns=payload.get("cluster_columns"))
        for entry in payload["tables"]:
            layout = PartitionLayout.from_dict(entry["layout"])
            key = (layout.table, layout.num_partitions)
            catalog._layouts[key] = layout
            catalog._summaries[key] = [
                PartitionSummary.from_dict(layout.table, s)
                for s in entry["partitions"]
            ]
        return catalog
