"""Columnar in-memory tables and the database they live in.

A :class:`Table` is a named, ordered collection of equal-length NumPy
columns. It is the unit of data flowing through the executor: base tables,
intermediate relations and query answers are all Tables. The reserved
column ``WEIGHT_COLUMN`` carries Horvitz-Thompson inverse inclusion
probabilities once a sampler has run; it is never part of the logical
schema.

:class:`Database` is the catalog of base tables plus their statistics
(collected lazily, mirroring the paper's "computed by the first query that
touches the dataset").
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.keys import encode_dictionary, same_dictionary
from repro.engine.partitions import PartitionStore
from repro.errors import CatalogError, SchemaError

__all__ = ["WEIGHT_COLUMN", "ROWID_PREFIX", "rowid_column_name", "Table", "Database"]

#: Reserved name for the sampler weight column (paper Section 4.1: "each
#: sampler appends a metadata column representing the weight of the row").
WEIGHT_COLUMN = "__w__"

#: Prefix of the reserved row-lineage columns attached by the executor at
#: each scan. Lineage gives every intermediate row a stable identity (the
#: positions of its contributing base rows), which is what lets the parallel
#: executor (:mod:`repro.parallel`) (a) drive counter-based samplers that
#: make identical per-row decisions no matter how the input is partitioned
#: and (b) restore the exact serial row order when merging partition outputs.
ROWID_PREFIX = "__rid"


def rowid_column_name(scan_index: int) -> str:
    """Lineage column name for the ``scan_index``-th scan (pre-order).

    Names are zero-padded so that lexicographically sorting the lineage
    column names of any intermediate table yields pre-order scan order —
    which is exactly the significance order for reconstructing serial row
    order (a join emits rows in (left position, right position) order, and
    pre-order visits left scans before right scans).
    """
    return f"{ROWID_PREFIX}{scan_index:03d}__"


class Table:
    """An immutable-by-convention columnar table.

    Ownership/pinning contract for buffer-backed tables: a table built by
    :meth:`from_ref` holds zero-copy views into a shared-memory segment.
    The views themselves pin the underlying mapping (NumPy keeps the
    exported buffer alive), and ``_pin`` records the :class:`TableRef` the
    table came from so callers can tell a borrowed table from an owning
    one. Releasing the segment while such a table is alive is safe — the
    mapping survives until the last view dies — but the *name* is gone, so
    the ref must not be re-shared after release.

    A column may be *dictionary-coded*: its array holds int32 codes into a
    sorted array of the distinct values (``dictionaries[name]``), so codes
    compare and sort as the values do. :meth:`column` decodes;
    :meth:`key_column` hands keyed kernels the codes. Tables derived from
    this one share its dictionaries by reference, and codes are only ever
    compared under one dictionary (DESIGN §16).
    """

    __slots__ = ("name", "_columns", "num_rows", "_pin", "_dicts")

    def __init__(
        self,
        name: str,
        columns: Mapping[str, np.ndarray],
        dictionaries: Optional[Mapping[str, np.ndarray]] = None,
    ):
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self.name = name
        self._pin = None
        # Entries for absent columns are dropped: movers pass theirs whole.
        self._dicts = {c: d for c, d in (dictionaries or {}).items() if c in columns}
        self._columns: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for col_name, values in columns.items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise SchemaError(f"column {col_name!r} of {name!r} must be 1-D")
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise SchemaError(
                    f"column {col_name!r} of {name!r} has {arr.shape[0]} rows, expected {length}"
                )
            self._columns[col_name] = arr
        self.num_rows = int(length or 0)

    # -- schema ----------------------------------------------------------------
    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(self._columns.keys())

    def data_column_names(self) -> Tuple[str, ...]:
        """Column names excluding the reserved weight and lineage columns."""
        return tuple(
            c for c in self._columns if c != WEIGHT_COLUMN and not c.startswith(ROWID_PREFIX)
        )

    def lineage_column_names(self) -> Tuple[str, ...]:
        """Reserved lineage columns in significance order (see
        :func:`rowid_column_name`)."""
        return tuple(sorted(c for c in self._columns if c.startswith(ROWID_PREFIX)))

    def has_lineage(self) -> bool:
        return any(c.startswith(ROWID_PREFIX) for c in self._columns)

    def lineage_columns(self) -> Tuple[np.ndarray, ...]:
        """Lineage value arrays in significance order."""
        return tuple(self._columns[c] for c in self.lineage_column_names())

    def reserved_column_names(self) -> Tuple[str, ...]:
        """What rides along with every row: the weight column (if any),
        then the lineage columns in significance order."""
        weights = (WEIGHT_COLUMN,) if self.has_weights() else ()
        return weights + self.lineage_column_names()

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def has_weights(self) -> bool:
        return WEIGHT_COLUMN in self._columns

    def key_column(self, name: str) -> np.ndarray:
        """An array with the column's equality and order: the stored one,
        which for a coded column is its codes (comparable with another
        table's only when both hold the same :meth:`dictionary`)."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def dictionary(self, name: str) -> Optional[np.ndarray]:
        """The sorted distinct values a coded column indexes; None if plain."""
        return self._dicts.get(name)

    def dictionaries(self) -> Mapping[str, np.ndarray]:
        return self._dicts

    def column(self, name: str, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """The column's values, of the given rows only when ``rows`` (an
        index array or mask) is passed. The one place a code is decoded."""
        values = self.key_column(name)
        if rows is not None:
            values = values[rows]
        dictionary = self._dicts.get(name)
        return values if dictionary is None else dictionary[values]

    def weights(self) -> np.ndarray:
        """Per-row HT weights; all-ones if no sampler has run."""
        if self.has_weights():
            return self._columns[WEIGHT_COLUMN]
        return np.ones(self.num_rows)

    # -- construction helpers ----------------------------------------------------
    def with_columns(self, new_columns: Mapping[str, np.ndarray], name: Optional[str] = None) -> "Table":
        merged = dict(self._columns)
        merged.update(new_columns)
        kept = {c: d for c, d in self._dicts.items() if c not in new_columns}
        return Table(name or self.name, merged, kept)

    def rename_columns(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "Table":
        renamed = {mapping.get(col, col): arr for col, arr in self._columns.items()}
        dicts = {mapping.get(col, col): d for col, d in self._dicts.items()}
        return Table(name or self.name, renamed, dicts)

    def project(self, names: Sequence[str], name: Optional[str] = None) -> "Table":
        """Keep only the given columns, preserving weight/lineage columns."""
        out = {n: self.key_column(n) for n in names}
        for reserved in self.reserved_column_names():
            out.setdefault(reserved, self._columns[reserved])
        return Table(name or self.name, out, self._dicts)

    def drop_columns(self, names: Sequence[str], name: Optional[str] = None) -> "Table":
        """Remove the given columns (missing names are ignored)."""
        doomed = set(names)
        kept = {c: arr for c, arr in self._columns.items() if c not in doomed}
        return Table(name or self.name, kept, self._dicts)

    def drop_lineage(self) -> "Table":
        """Remove all reserved lineage columns (no-op if none present)."""
        if not self.has_lineage():
            return self
        return self.drop_columns(self.lineage_column_names())

    def built(self) -> "Table":
        """This table: what a reader that needs rows gets of an operator's
        output, a join left lazy (:class:`~repro.engine.operators.JoinedRows`)
        included."""
        return self

    def take(self, selector: np.ndarray, name: Optional[str] = None) -> "Table":
        """Row subset by boolean mask or index array. A mask is turned into
        row indices once: NumPy gathers by index several times faster than
        by mask, and every column would pay the mask scan again."""
        selector = np.asarray(selector)
        if selector.dtype == bool:
            selector = np.flatnonzero(selector)
        taken = {c: arr[selector] for c, arr in self._columns.items()}
        return Table(name or self.name, taken, self._dicts)

    def slice(self, start: int, stop: int, name: Optional[str] = None) -> "Table":
        """Zero-copy contiguous row range ``[start, stop)``.

        Basic slicing never copies, so the result's columns are views into
        this table's buffers.
        """
        out = Table.__new__(Table)
        out.name = name or self.name
        out._pin = self._pin
        out._dicts = self._dicts
        out._columns = {c: arr[start:stop] for c, arr in self._columns.items()}
        out.num_rows = int(next(iter(out._columns.values())).shape[0])
        return out

    def head(self, n: int) -> "Table":
        return self.slice(0, min(n, self.num_rows))

    def sort_by(self, keys: Sequence[str], descending: bool = False) -> "Table":
        order = np.lexsort([self.key_column(k) for k in reversed(keys)])
        if descending:
            order = order[::-1]
        return self.take(order)

    @staticmethod
    def concat(tables: Sequence["Table"], name: Optional[str] = None) -> "Table":
        """Vertical concatenation of tables with identical schemas. A
        column stays coded when every input codes it under one dictionary
        (the same object, or equal content: a process-pool result brings
        back a copy); under different ones it is decoded."""
        if not tables:
            raise SchemaError("cannot concatenate zero tables")
        first = tables[0]
        schema = first.column_names
        for other in tables[1:]:
            if set(other.column_names) != set(schema):
                raise SchemaError(f"schema mismatch in concat: {schema} vs {other.column_names}")
        shared = {
            c: d
            for c, d in first._dicts.items()
            if all(same_dictionary(d, t._dicts.get(c)) for t in tables[1:])
        }
        columns = {
            c: np.concatenate([t.key_column(c) if c in shared else t.column(c) for t in tables])
            for c in schema
        }
        return Table(name or first.name, columns, shared)

    # -- shared-memory transport ---------------------------------------------
    def to_ref(self, segment_name: Optional[str] = None, keep_open: bool = True):
        """Write this table into a shared-memory segment; returns a
        :class:`repro.memory.TableRef`.

        The caller owns the segment and must eventually
        :func:`repro.memory.release` it (or hand the ref — and with it the
        release obligation — to another process). ``keep_open=False``
        detaches the local mapping immediately after the copy, the right
        mode for a worker shipping a result it will never read back.
        """
        # Local import: repro.memory is a leaf layer, but keeping the engine
        # importable without it on exotic platforms costs nothing.
        from repro.memory import arena

        name = segment_name or arena.new_segment_name("tbl")
        return arena.create_table_segment(
            name, self.name, self._columns, self.num_rows, keep_open, self._dicts
        )

    @classmethod
    def from_ref(cls, ref, name: Optional[str] = None) -> "Table":
        """Rebuild a table from a :class:`repro.memory.TableRef`.

        Numeric columns (a coded column's codes among them) are zero-copy
        read-only views into the segment; the views pin the mapping for the
        table's lifetime (see the class docstring). The segment itself
        stays live until someone calls :func:`repro.memory.release` on the
        ref. Dictionaries arrive in the ref itself.
        """
        from repro.memory import arena

        table = cls(name or ref.table_name, arena.map_ref(ref), ref.dictionaries)
        table._pin = ref
        return table

    @property
    def backing_ref(self):
        """The :class:`TableRef` this table was mapped from, or ``None``."""
        return self._pin

    def iter_rows(self) -> Iterable[tuple]:
        """Yield rows as tuples in column order (decoded values)."""
        arrays = list(self.to_dict().values())
        for i in range(self.num_rows):
            yield tuple(arr[i] for arr in arrays)

    def to_dict(self) -> Dict[str, np.ndarray]:
        return {c: self.column(c) for c in self._columns}

    def encoded(self) -> "Table":
        """This table with every string column (dtype kind ``U``/``S``, or
        objects that are all ``str``) dictionary-coded; itself when there
        is nothing left to code."""
        fresh = {
            c: encode_dictionary(arr)
            for c, arr in self._columns.items()
            if c not in self._dicts
            and (arr.dtype.kind in "US" or (arr.dtype == object and all(map(_is_str, arr))))
        }
        if not fresh:
            return self
        out = self.with_columns({c: codes for c, (codes, _) in fresh.items()})
        out._dicts = {**self._dicts, **{c: d for c, (_, d) in fresh.items()}}
        out._pin = self._pin
        return out

    def estimated_bytes(self) -> int:
        """Approximate in-memory footprint of the rows as stored (a coded
        column counts its 4-byte codes), used as the 'data size' metric."""
        return int(sum(arr.nbytes for arr in self._columns.values()))

    def __repr__(self):
        return f"Table({self.name!r}, rows={self.num_rows}, cols={list(self._columns)})"


def _is_str(value) -> bool:
    return isinstance(value, str)


class Database:
    """Catalog of named base tables. What :meth:`register` stores is the
    table's :meth:`~Table.encoded` form: string columns are coded once per
    table version, and every query reads the same dictionaries.

    A table may declare decimal columns, as SQL's ``decimal(p, s)`` does:
    every value is a whole number of ``10^-s`` units. The declaration is
    schema, not something checked or inferred: compiled aggregates that sum
    such a column sum its units exactly (DESIGN §18)."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._scales: Dict[str, Dict[str, int]] = {}
        #: Optional :class:`repro.stats.catalog.PartitionCatalog` attached
        #: by datagen/load; the prune/select pass is a no-op without it.
        self.partition_stats = None
        #: Resident partitions of the registered tables: what the parallel
        #: executor places queries on and the catalog summarises. The store
        #: never points back here.
        self.partitions = PartitionStore()

    def register(self, table: Table, decimals: Mapping[str, int] = MappingProxyType({})) -> None:
        """Store ``table``; ``decimals`` maps each of its decimal columns
        to its scale (digits after the point)."""
        undeclared = set(decimals) - set(table.data_column_names())
        if undeclared:
            raise SchemaError(f"table {table.name!r} has no columns {sorted(undeclared)}")
        self._tables[table.name] = table.encoded()
        self._scales[table.name] = dict(decimals)
        self.partitions.drop(table.name)

    def decimal_scale(self, table: str, column: str) -> Optional[int]:
        """The declared scale of a decimal column; ``None`` for any other
        column, and for a table this catalog does not hold."""
        return self._scales.get(table, {}).get(column)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r} in database") from None

    def tables(self) -> Mapping[str, Table]:
        """Read-only live view of the registered tables. Holding it keeps
        the tables alive but not this object, so what the database owns
        (its partition catalog) can read tables without a reference cycle."""
        return MappingProxyType(self._tables)

    def columns(self, name: str) -> Tuple[str, ...]:
        return self.table(name).data_column_names()

    def table_names(self) -> Tuple[str, ...]:
        return tuple(self._tables.keys())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def total_rows(self) -> int:
        return sum(t.num_rows for t in self._tables.values())

    def __repr__(self):
        return f"Database({list(self._tables)})"
