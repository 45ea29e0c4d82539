"""Which row goes to which partition, decided once and kept.

Quickr's samplers are partitionable (Section 4.1) so that a sampled plan
runs as ordinary tasks over data that is *already resident* in cluster
partitions. Two things live here:

* :class:`Partitioner` — the only definition of "row ``i`` goes to
  partition ``p``" (:meth:`Table.partition` and the partition catalog's
  layouts are spelled with it). Three strategies: **round-robin** deals
  rows by position (balanced; right whenever per-row decisions don't need
  related rows together — uniform and universe samplers, filters,
  broadcast joins); **hash** routes by a keyed hash of a column set, so
  equal keys always share a partition (co-partitioned fact-fact joins, the
  distinct sampler's exact per-stratum state); **range-cluster** places a
  row by binary search of one column's value in fixed boundaries (data
  clustered on ingest date — the layout that makes min/max pruning work).
* :class:`PartitionStore`, owned by a :class:`~repro.engine.table.Database`
  — what a partitioner decided, kept per table: the ascending row-index
  array of every partition, which *is* that partition's lineage column,
  and, per column on first read, the column's per-partition arrays. A
  query is placed by lookup; pruning and the catalog read the same indices.

Partitions keep every column they are given — Horvitz-Thompson weights
(``__w__``) and row lineage (``__rid*``) ride along with their rows, so the
weighted sum over any union of partitions equals that over the input. The
store holds tables and arrays, never its database or a catalog, so
dropping the database frees it by reference count alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import PlanError

__all__ = [
    "ROUND_ROBIN",
    "HASH",
    "RANGE_CLUSTER",
    "Partitioner",
    "ResidentPartitions",
    "PartitionStore",
]

ROUND_ROBIN = "round-robin"
HASH = "hash"
RANGE_CLUSTER = "range-cluster"


@dataclass(frozen=True)
class Partitioner:
    """Maps a table's rows to a fixed number of partitions.

    Parameters
    ----------
    num_partitions:
        Number of partitions (always exactly this many, some empty when
        the input is small).
    strategy:
        ``"round-robin"``, ``"hash"`` or ``"range-cluster"``.
    columns:
        Key column set for hash, the one cluster column for range-cluster
        (ignored for round-robin).
    seed:
        Hash seed; co-partitioned inputs must share it (and the partition
        count) so equal keys land in the same partition on both sides.
    boundaries:
        Range-cluster cut points, ascending (``num_partitions - 1`` of them).
    """

    num_partitions: int
    strategy: str = ROUND_ROBIN
    columns: Tuple[str, ...] = ()
    seed: int = 0
    boundaries: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.num_partitions < 1:
            raise PlanError(f"need at least one partition, got {self.num_partitions}")
        if self.strategy not in (ROUND_ROBIN, HASH, RANGE_CLUSTER):
            raise PlanError(f"unknown partition strategy {self.strategy!r}")
        if self.strategy != ROUND_ROBIN and not self.columns:
            raise PlanError(f"{self.strategy} partitioning requires a key column set")

    def assignments(self, table) -> np.ndarray:
        """Per-row partition ordinal in ``[0, num_partitions)``."""
        if self.strategy == HASH:
            # Local import: repro.samplers.hashing is a leaf module, but its
            # package __init__ imports repro.engine.table, which imports this.
            from repro.samplers.hashing import hash_rows

            hashes = hash_rows(table, self.columns, self.seed)
            return (hashes % np.uint64(self.num_partitions)).astype(np.int64)
        if self.strategy == RANGE_CLUSTER:
            values = table.column(self.columns[0]).astype(np.float64)
            cuts = np.asarray(self.boundaries, dtype=np.float64)
            return np.searchsorted(cuts, values, side="right").astype(np.int64)
        return np.arange(table.num_rows, dtype=np.int64) % self.num_partitions

    def indices(self, table) -> List[np.ndarray]:
        """Exactly ``num_partitions`` ascending int64 row-index arrays;
        disjoint, and their union is every row of ``table``."""
        degree = self.num_partitions
        if self.strategy == ROUND_ROBIN:
            return [np.arange(p, table.num_rows, degree, dtype=np.int64) for p in range(degree)]
        assigned = self.assignments(table)
        return [np.flatnonzero(assigned == p) for p in range(degree)]

    def split(self, table) -> list:
        """Partition ``table`` into exactly ``num_partitions`` tables: every
        row appears in exactly one, with all its columns unchanged."""
        if self.num_partitions == 1:
            return [table]
        return [table.take(idx) for idx in self.indices(table)]

    def describe(self) -> str:
        if self.strategy == ROUND_ROBIN:
            return f"round-robin x{self.num_partitions}"
        return f"{self.strategy}({','.join(self.columns)})x{self.num_partitions}"


class ResidentPartitions:
    """One table under one partitioner: its partitions' row indices and
    whichever of its columns have been read so far."""

    __slots__ = ("table", "indices", "nbytes", "_columns", "_lock")

    def __init__(self, table, indices: List[np.ndarray]):
        self.table = table
        self.indices = indices
        #: Bytes this entry owns (a lone partition's columns are the table's).
        self.nbytes = sum(idx.nbytes for idx in indices)
        self._columns: Dict[str, List[np.ndarray]] = {}
        self._lock = threading.Lock()

    def columns(self, names: Sequence[str]) -> Tuple[Dict[str, List[np.ndarray]], int]:
        """Per-partition arrays of each named column as stored (codes under
        the table's dictionary, for a coded one), and how many of them this
        call had to materialise (the rest were resident)."""
        materialised = 0
        with self._lock:
            for name in names:
                if name in self._columns:
                    continue
                source = self.table.key_column(name)
                if len(self.indices) == 1:
                    parts = [source]
                else:
                    parts = [source[idx] for idx in self.indices]
                    self.nbytes += source.nbytes
                self._columns[name] = parts
                materialised += 1
            return {name: self._columns[name] for name in names}, materialised

    def resident_columns(self) -> Tuple[str, ...]:
        return tuple(self._columns)


class PartitionStore:
    """Resident partitions of one database's tables.

    Entries are keyed by table name and partitioner and remember the table
    object they were cut from: a lookup with a different object under the
    same name (a re-registered table) rebuilds the entry, so a table never
    serves partitions of its predecessor.
    """

    def __init__(self):
        self._entries: Dict[Tuple[str, Partitioner], ResidentPartitions] = {}
        self._lock = threading.Lock()

    def partitions(self, table, partitioner: Partitioner) -> ResidentPartitions:
        key = (table.name, partitioner)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.table is not table:
                entry = self._entries[key] = ResidentPartitions(table, partitioner.indices(table))
            return entry

    def drop(self, table_name: str) -> None:
        """Forget every entry of ``table_name`` (its table was replaced)."""
        with self._lock:
            for key in [key for key in self._entries if key[0] == table_name]:
                del self._entries[key]

    def nbytes(self) -> int:
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())
