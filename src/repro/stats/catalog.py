"""Input-table statistics (paper Table 2) and the partition-level catalog.

For each input table Quickr records: row count; per interesting column the
number of distinct values, average/variance (numerical columns), and heavy
hitter values with frequencies. "If not already available, the statistics
are computed by the first query that reads the table" — we mirror that
per column and per statistic. All are exact.

Every per-column count comes from one function, :func:`column_summaries`:
a column's exact :class:`ColumnSummary` over each of a list of row sets.
A dictionary-coded column is counted on its codes (one ``np.bincount``
against the dictionary's length: no decode, no sort); any other column
through :func:`repro.engine.keys.value_counts`. Two lazy indexes read it:

* :class:`Catalog` (the planner's) — per table column on first ask, over
  all rows. A column's moments (mean, variance, min, max) are the one
  statistic beside it, computed when a value skew or a range selectivity
  first asks; distinct counts over *column sets* (the C1 support check,
  the join push-down rules' NumDV calls) are computed on demand and cached
  per set, a column the database declares decimal keyed by its whole units
  (an integer, not a float sort; DESIGN §17).
* :class:`PartitionCatalog` (the pruner's; Rong et al., "Approximate
  Partition Selection for Big-Data Workloads using Summary Statistics") —
  per (table, partition count) on first ask, one summary per partition of
  the :class:`~repro.engine.partitions.Partitioner` the database's
  partition store cuts the table by. The prune/select pass
  (:mod:`repro.optimizer.pruning`) reads these to skip partitions that
  provably cannot satisfy a query's predicates and to pick weighted
  partition subsets under an error budget.

Summaries are exact, so nothing merges them or stores them: a table's
summary is recounted, never rolled up from its partitions'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.keys import count_distinct, pack_keys, value_counts
from repro.engine.partitions import RANGE_CLUSTER, Partitioner
from repro.engine.table import Database, Table
from repro.errors import CatalogError
from repro.obs.trace import maybe_span

__all__ = [
    "ColumnSummary",
    "column_summaries",
    "ColumnStats",
    "TableStats",
    "Catalog",
    "PartitionSummary",
    "PartitionCatalog",
]

#: A value is a heavy hitter if it covers at least this fraction of rows
#: (paper Section 4.1.2 uses s = 1e-2 for the sketch; the catalog keeps the
#: same threshold for its exact top values).
HEAVY_HITTER_FRACTION = 0.01

#: Keep at most this many heavy hitters per column.
MAX_HEAVY_HITTERS = 64

#: Keep the exact value set of a partition column when it has at most this
#: many distinct values — membership tests then prune exactly.
MAX_EXACT_VALUES = 64

#: A non-null value is *frequent* when it covers more than this fraction of
#: the non-null rows; a partition's frequent group-by values weight its
#: selection probability.
FREQUENT_VALUE_FRACTION = 1e-3


def _collecting(table: Table, column: str, statistic: str, partitions: int = 1):
    """The span every statistic is built under, so a traced plan shows
    statistics time as its own child."""
    return maybe_span(
        "catalog.collect",
        table=table.name,
        column=column,
        statistic=statistic,
        rows=table.num_rows,
        partitions=partitions,
    )


@dataclass
class ColumnSummary:
    """Exact statistics of one column over some rows, all read off the
    rows' value counts. NaN is the column's null: it is counted apart from
    the values, and is never a heavy hitter (no lookup of it could hit)."""

    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    null_count: int = 0
    #: Distinct non-null values.
    distinct: int = 0
    #: Exact distinct values when there are at most MAX_EXACT_VALUES of
    #: them; None means "too many to enumerate", never "empty".
    values: Optional[Tuple[Any, ...]] = None
    #: Value -> count of the non-null values covering at least
    #: HEAVY_HITTER_FRACTION of the rows, most frequent first, at most
    #: MAX_HEAVY_HITTERS of them.
    heavy_hitters: Dict[Any, int] = field(default_factory=dict)
    #: How many non-null values are frequent (FREQUENT_VALUE_FRACTION).
    frequent: int = 0

    @classmethod
    def from_counts(cls, uniques: np.ndarray, counts: np.ndarray) -> "ColumnSummary":
        """The summary of rows whose distinct values, ascending with all
        NaNs as one last value, occur ``counts`` times."""
        rows = int(counts.sum())
        summary = cls()
        if len(uniques) and uniques.dtype.kind == "f" and np.isnan(uniques[-1]):
            summary.null_count = int(counts[-1])
            uniques, counts = uniques[:-1], counts[:-1]
        heavy = counts >= max(1, int(HEAVY_HITTER_FRACTION * rows))
        order = np.argsort(counts[heavy])[::-1][:MAX_HEAVY_HITTERS]
        summary.heavy_hitters = dict(
            zip(uniques[heavy][order].tolist(), counts[heavy][order].tolist())
        )
        if len(uniques) == 0:
            summary.values = ()
            return summary
        summary.min_value, summary.max_value = uniques[[0, -1]].tolist()
        summary.distinct = len(uniques)
        floor = int(FREQUENT_VALUE_FRACTION * (rows - summary.null_count))
        summary.frequent = int(np.count_nonzero(counts > floor))
        if summary.distinct <= MAX_EXACT_VALUES:
            summary.values = tuple(uniques.tolist())
        return summary

    @classmethod
    def from_array(cls, column: np.ndarray) -> "ColumnSummary":
        return cls.from_counts(*value_counts(np.asarray(column)))


def _value_counts(stored: np.ndarray, dictionary: Optional[np.ndarray]):
    if dictionary is None:
        return value_counts(stored)
    counts = np.bincount(stored, minlength=len(dictionary))
    present = np.flatnonzero(counts)
    return dictionary[present], counts[present]


def column_summaries(
    table: Table, name: str, rows: Sequence[Optional[np.ndarray]]
) -> List[ColumnSummary]:
    """Column ``name``'s summary over each row-index array of ``rows``
    (``None``: every row) — the one place statistics are counted. A coded
    column decodes only the dictionary entries its summaries name."""
    stored, dictionary = table.key_column(name), table.dictionary(name)
    with _collecting(table, name, "counts", partitions=len(rows)):
        return [
            ColumnSummary.from_counts(
                *_value_counts(stored if idx is None else stored[idx], dictionary)
            )
            for idx in rows
        ]


def exact_distinct_multi(
    columns: Sequence[np.ndarray], scales: Optional[Sequence[Optional[int]]] = None
) -> int:
    """Exact distinct count over a tuple of columns (a column set).

    ``scales`` gives each column's declared decimal scale (``None``: not a
    decimal). A float decimal column of scale ``s`` is keyed by its whole
    units ``rint(10^s * y)``: values that are whole numbers of ``10^-s``
    are equal iff their units are, so the count is the same, and the key
    is an integer (a span, no float sort). A NaN still equals nothing."""
    if not columns:
        return 0
    nan_rows = None
    keyed = []
    for column, scale in zip(columns, scales or [None] * len(columns)):
        if scale is not None and column.dtype.kind == "f":
            isnan = np.isnan(column)
            units = np.multiply(column, 10.0**scale, dtype=np.float64)
            if isnan.any():
                nan_rows = isnan if nan_rows is None else nan_rows | isnan
                units[isnan] = 0.0
            column = np.rint(units, out=units).astype(np.int64)
        keyed.append(column)
    key, span, packed_nan = pack_keys(keyed)
    if packed_nan is not None:
        nan_rows = packed_nan if nan_rows is None else nan_rows | packed_nan
    if nan_rows is None:
        return count_distinct(key, span)
    # A NaN equals nothing: every row holding one is a value of its own.
    return count_distinct(key[~nan_rows], span) + int(nan_rows.sum())


class ColumnStats:
    """The planner's statistics of one column, each built from the data
    when first asked for and kept: the moments (mean, variance, min, max —
    numeric columns only, NaN-propagating) in one pass, the
    :class:`ColumnSummary` behind the distinct count and the heavy hitters
    in another."""

    def __init__(self, table: Table, name: str):
        self._table = table
        self._name = name

    @cached_property
    def _moments(self) -> Tuple[Optional[float], ...]:
        values = self._table.key_column(self._name)
        coded = self._table.dictionary(self._name) is not None
        if coded or values.dtype.kind not in "iuf" or len(values) == 0:
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
    def summary(self) -> ColumnSummary:
        (summary,) = column_summaries(self._table, self._name, (None,))
        return summary

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
        """Distinct values, each NaN a value of its own: a NaN equals
        nothing, and the aggregate groups and counts it so
        (:func:`exact_distinct_multi` agrees)."""
        return self.summary.distinct + self.summary.null_count

    @property
    def heavy_hitters(self) -> Dict:
        return self.summary.heavy_hitters

    def built(self) -> Tuple[str, ...]:
        """Which statistics have been computed so far."""
        built = {"moments": "_moments", "counts": "summary"}
        return tuple(name for name, attr in built.items() if attr in self.__dict__)


class TableStats:
    """Statistics of one base table: the row count is the table's own; a
    column's statistics and a column set's distinct count exist once asked
    for."""

    def __init__(self, table: Table, database: Database):
        self._table = table
        #: Declares the table's decimal columns.
        self._database = database
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
        """Exact distinct count of a set of two or more columns, a declared
        decimal column counted in whole units (:func:`exact_distinct_multi`)."""
        cached = self._set_distinct_cache.get(colset)
        if cached is None:
            names = sorted(colset)
            with _collecting(self._table, ",".join(names), "set_distinct"):
                scales = [self._database.decimal_scale(self.name, c) for c in names]
                cached = exact_distinct_multi([self._table.key_column(c) for c in names], scales)
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
            stats = TableStats(self.database.table(table_name), self.database)
            self._stats[table_name] = stats
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


@dataclass
class PartitionSummary:
    """One partition of one table: its row count, the bytes of its values
    and a summary per column."""

    partition: int
    rows: int
    bytes: int
    columns: Dict[str, ColumnSummary]


def _range_cluster(table: Table, column: Optional[str], num_partitions: int) -> Partitioner:
    """Range-cluster on ``column`` at equal-frequency cut points — data
    clustered on ingest time or date, the layout that makes min/max pruning
    effective — or round-robin, the executor's default split, when there is
    no numeric cluster column to cut."""
    if column is None or not table.has_column(column) or table.num_rows == 0:
        return Partitioner(num_partitions)
    values = table.key_column(column)
    if table.dictionary(column) is not None or values.dtype.kind not in "iuf":
        return Partitioner(num_partitions)
    quantiles = np.linspace(0.0, 1.0, num_partitions + 1)[1:-1]
    boundaries = np.quantile(values.astype(np.float64), quantiles)
    return Partitioner(
        num_partitions, RANGE_CLUSTER, (column,), boundaries=tuple(float(b) for b in boundaries)
    )


def _value_width(table: Table, name: str) -> int:
    """Bytes per row of the column's values (a coded column's decoded)."""
    dictionary = table.dictionary(name)
    return (table.key_column(name) if dictionary is None else dictionary).dtype.itemsize


class PartitionCatalog:
    """Lazy per-(table, partition) statistics over a :class:`Database`.

    Built at datagen/load time (cheaply: the object is just a recipe; the
    summaries of each (table, partition-count) pair are computed on first
    access and cached). ``cluster_columns`` names the column a table is
    physically clustered on — those tables are laid out ``range-cluster``,
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
        self._layouts: Dict[Tuple[str, int], Partitioner] = {}
        self._summaries: Dict[Tuple[str, int], List[PartitionSummary]] = {}

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r} in database") from None

    def layout(self, table_name: str, num_partitions: int) -> Partitioner:
        """The partitioner the table's summaries and its resident
        partitions are cut by."""
        key = (table_name, int(num_partitions))
        if key not in self._layouts:
            cluster = self.cluster_columns.get(table_name)
            self._layouts[key] = _range_cluster(self._table(table_name), cluster, key[1])
        return self._layouts[key]

    def summaries(self, table_name: str, num_partitions: int) -> List[PartitionSummary]:
        """Per-partition summaries under :meth:`layout`, built on first use."""
        key = (table_name, int(num_partitions))
        if key not in self._summaries:
            table = self._table(table_name)
            indices = self.live_indices(table_name, num_partitions)
            names = table.data_column_names()
            per_column = {name: column_summaries(table, name, indices) for name in names}
            width = sum(_value_width(table, name) for name in names)
            self._summaries[key] = [
                PartitionSummary(
                    partition=pid,
                    rows=len(idx),
                    bytes=len(idx) * width,
                    columns={name: per_column[name][pid] for name in names},
                )
                for pid, idx in enumerate(indices)
            ]
        return self._summaries[key]

    def live_indices(self, table_name: str, num_partitions: int) -> List[np.ndarray]:
        """Row indices of the live table's partitions under :meth:`layout`,
        from the database's partition store (cut once per table version)."""
        partitioner = self.layout(table_name, num_partitions)
        return self._store.partitions(self._table(table_name), partitioner).indices

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
