"""Input statistics and derivation through plans (paper Table 2, §4.2.6)."""

from repro.stats.catalog import (
    Catalog,
    ColumnStats,
    ColumnSummary,
    PartitionCatalog,
    PartitionSummary,
    TableStats,
    column_summaries,
)
from repro.stats.derivation import NodeStats, StatsDeriver, estimate_selectivity

__all__ = [
    "Catalog",
    "ColumnStats",
    "ColumnSummary",
    "PartitionCatalog",
    "PartitionSummary",
    "TableStats",
    "column_summaries",
    "NodeStats",
    "StatsDeriver",
    "estimate_selectivity",
]
