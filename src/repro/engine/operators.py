"""Vectorized physical operator implementations.

These functions execute one logical operator over columnar tables. They are
deliberately stand-alone (table in, table out) so both the executor and the
tests can drive them directly.

Aggregation is :mod:`repro.engine.aggregate`'s partial -> finalize over one
input: when it carries a weight column, every aggregate becomes its
Horvitz-Thompson estimator (the paper's Table 8) and, optionally, gains a
confidence-interval column computed in the same pass.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algebra.aggregates import AggSpec
from repro.algebra.expressions import Col, Expr
from repro.engine.aggregate import (
    CI_SUFFIX,
    Z_95,
    Estimation,
    finalize_partial,
    key_columns,
    partial_aggregate,
    repeated,
)
from repro.engine.keys import MAX_SPAN, dense_span, pack_keys, same_dictionary, stable_argsort
from repro.engine.table import ROWID_PREFIX, WEIGHT_COLUMN, Table
from repro.errors import PlanError, SchemaError

__all__ = [
    "execute_select",
    "execute_project",
    "execute_join",
    "JoinedRows",
    "JoinParts",
    "MATCH_COLUMN",
    "segment_rows",
    "segment_sums",
    "execute_aggregate",
    "execute_orderby",
    "execute_limit",
    "execute_union_all",
    "CI_SUFFIX",
    "Z_95",
]


def execute_select(table: Table, predicate: Expr, drop: Sequence[str] = ()) -> Table:
    """Filter rows; ``drop`` names input columns only the predicate read,
    shed (zero-copy) before the gather instead of carried through it."""
    rows = np.flatnonzero(np.asarray(predicate.evaluate(table), dtype=bool))
    if drop:
        table = table.drop_columns(drop)
    if len(rows) == table.num_rows:
        # Nothing filtered: the input passes through untouched instead of
        # being gathered into a same-sized copy.
        return table
    return table.take(rows)


def execute_project(table: Table, mapping: Dict[str, Expr]) -> Table:
    """A bare column reference moves the stored column (codes and their
    dictionary, for a coded one); anything computed is evaluated on values.
    The weight and lineage columns ride along."""
    out, dictionaries = {}, {}
    for name, expr in mapping.items():
        if isinstance(expr, Col):
            out[name] = table.key_column(expr.name)
            if table.dictionary(expr.name) is not None:
                dictionaries[name] = table.dictionary(expr.name)
        else:
            out[name] = np.asarray(expr.evaluate(table))
    if table.has_weights():
        out[WEIGHT_COLUMN] = table.column(WEIGHT_COLUMN)
    out.update(zip(table.lineage_column_names(), table.lineage_columns()))
    return Table(table.name, out, dictionaries)


def _join_keys(
    left: Table, right: Table, left_keys: Sequence[str], right_keys: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Packed keys of both join inputs in one code space ``[0, span)``. A
    key pair is read as stored when both sides are plain or coded under one
    dictionary; codes of two dictionaries are never compared: decoded."""
    n_left = left.num_rows
    pairs = []
    for l_name, r_name in zip(left_keys, right_keys):
        shared = same_dictionary(left.dictionary(l_name), right.dictionary(r_name))
        read = Table.key_column if shared else Table.column
        pairs.append((read(left, l_name), read(right, r_name)))
    if len(pairs) == 1:
        offset = _integer_offset(*pairs[0])
        if offset is not None:
            lo, span = offset
            return tuple(np.subtract(c, lo, dtype=np.int64) for c in pairs[0]) + (span,)
    combined = []
    for l_col, r_col in pairs:
        common = np.result_type(l_col.dtype, r_col.dtype)
        combined.append(
            np.concatenate([l_col.astype(common, copy=False), r_col.astype(common, copy=False)])
        )
    key, span, nan_rows = pack_keys(combined)
    if nan_rows is not None:
        # A NaN key joins nothing: park each side's on a code the other lacks.
        key[nan_rows] = span + (np.flatnonzero(nan_rows) >= n_left)
        span += 2
    return key[:n_left], key[n_left:], span


def _integer_offset(l_col: np.ndarray, r_col: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(lo, span)`` when one key column pair holds integers on both sides
    whose codes are ``value - lo`` in ``[0, span)``: the codes
    :func:`~repro.engine.keys.pack_keys` gives their concatenation, made
    without concatenating. ``None`` for any other pair."""
    if not (len(l_col) and len(r_col)) or not all(
        c.dtype.kind in "iu" and np.can_cast(c.dtype, np.int64) for c in (l_col, r_col)
    ):
        return None
    lo = min(int(l_col.min()), int(r_col.min()))
    span = max(int(l_col.max()), int(r_col.max())) - lo + 1
    return (lo, span) if span <= MAX_SPAN else None


def segment_sums(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Σ ``values[starts[i] : starts[i] + counts[i]]`` for each ``i``, any
    two segments being equal or disjoint: one ``reduceat`` over the pieces
    their ends cut ``values`` into, each value added once and only to its
    own segment's sum (a NaN stays in its segment)."""
    n = len(values)
    cut = np.zeros(n + 1, dtype=bool)
    cut[starts] = True
    cut[starts + counts] = True
    cut = cut[:n]
    pieces = np.add.reduceat(values, np.flatnonzero(cut))
    return pieces[np.cumsum(cut)[starts] - 1]


def segment_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Rows ``starts[i]`` to ``starts[i] + counts[i] - 1`` for each ``i``,
    one segment after another."""
    # Row j of segment i is starts[i] + (j - first output row of i), the
    # first output row of i being ends[i] - counts[i].
    ends = np.cumsum(counts)
    within = np.repeat(starts - ends + counts, counts)
    within += np.arange(len(within))
    return within


class _KeyMatches:
    """A join's matches: the one probe kernel every join runs.

    A build (right) side whose keys are unique, as a dimension's are, is
    probed without counting: on a dense span through a span-sized table of
    build positions, on a sparse one by one ``searchsorted`` into its
    sorted keys. A probe (left) row that matches then has one build row,
    its slot. Duplicate build keys are counted per key, and a probe row's
    slot is its key on a dense span, the key's rank among the ``distinct``
    build keys on a sparse one: its match count is a gather from the
    per-key counts, and a build-side sum one ``bincount`` per key gathered
    the same way (:meth:`sums`). The build rows sorted by key, which say
    *which* build rows a probe row matches, are sorted when first asked
    for (:meth:`build_index`), except on a sparse span, whose one sort
    told unique keys from duplicates and counted them. ``copies`` is, per
    probe row that matches, how many times over its matches repeat
    (``None``: once): the multiplicity a lower join left lazy gives the
    row."""

    def __init__(
        self,
        right_key: np.ndarray,
        slots: np.ndarray,
        copies: Optional[np.ndarray],
        per_key: Optional[np.ndarray] = None,
        distinct: Optional[np.ndarray] = None,
        order: Optional[np.ndarray] = None,
    ):
        self._right_key, self._slots, self._copies = right_key, slots, copies
        #: ``None`` when the build keys are unique: a slot is a build row.
        self._per_key, self._distinct, self._order = per_key, distinct, order

    @classmethod
    def probe(
        cls, left_key: np.ndarray, right_key: np.ndarray, span: int,
        copies: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], "_KeyMatches"]:
        """``(rows, counts, matches)``: the probe rows that match,
        ascending, how many output rows each is (``None``: one each), and
        the matches. ``copies`` is each probe row's multiplicity, if it has
        one: a row is then its matches times its copies."""
        distinct = order = None
        if dense_span(span, len(left_key) + len(right_key)):
            per_key = np.bincount(right_key, minlength=span)
            if per_key.max(initial=0) <= 1:
                at = np.full(span, -1, dtype=np.intp)
                at[right_key] = np.arange(len(right_key))
                at = at[left_key]
                rows = np.flatnonzero(at >= 0)
                return cls._unique(rows, at[rows], right_key, copies)
            counts, slots = per_key[left_key], left_key
        else:
            order = stable_argsort(right_key)
            ordered = right_key[order]
            first = np.ones(len(ordered), dtype=bool)
            first[1:] = ordered[1:] != ordered[:-1]
            if len(ordered) and first.all():
                at = np.minimum(np.searchsorted(ordered, left_key), len(ordered) - 1)
                rows = np.flatnonzero(ordered[at] == left_key)
                return cls._unique(rows, order[at[rows]], right_key, copies)
            starts = np.flatnonzero(first)
            distinct, per_key = ordered[starts], np.diff(starts, append=len(ordered))
            slots = np.searchsorted(distinct, left_key)
            counts = np.zeros(len(left_key), dtype=np.intp)
            if len(distinct):
                np.minimum(slots, len(distinct) - 1, out=slots)
                hit = distinct[slots] == left_key
                counts[hit] = per_key[slots[hit]]
        rows = np.flatnonzero(counts)
        counts = counts[rows]
        if copies is not None:
            copies = copies[rows]
            counts = counts * copies
        return rows, counts, cls(right_key, slots[rows], copies, per_key, distinct, order)

    @classmethod
    def _unique(cls, rows, build_rows, right_key, copies):
        """:meth:`probe`'s answer over unique build keys: the probe rows
        that match and the build row of each."""
        if copies is not None:
            copies = copies[rows]
        return rows, copies, cls(right_key, build_rows, copies)

    def _build_slots(self) -> np.ndarray:
        """The key slot of each build row."""
        if self._distinct is None:
            return self._right_key
        return np.searchsorted(self._distinct, self._right_key)

    def single_rows(self) -> np.ndarray:
        """The build row of each probe row that matches, when each matches
        exactly one: the last build row of its key, the only one."""
        if self._per_key is None:
            return self._slots
        last = np.zeros(len(self._per_key), dtype=np.intp)
        last[self._build_slots()] = np.arange(len(self._right_key))
        return last[self._slots]

    def sums(self, per_build: np.ndarray) -> np.ndarray:
        """Per probe row that matches, the sum of ``per_build`` over its
        output rows: its key's sum, times its copies. Each key's sum adds
        the key's build rows in row order, as a sorted segment would."""
        if self._per_key is None:
            sums = per_build[self._slots]
        else:
            per_key = np.bincount(
                self._build_slots(), weights=per_build, minlength=len(self._per_key)
            )
            sums = per_key[self._slots]
        return sums if self._copies is None else sums * self._copies

    def build_index(self) -> np.ndarray:
        """The build row of each output row, in output order: per probe
        row, its matches in build-row order, ``copies`` times over."""
        if self._per_key is None:
            return repeated(self._slots, self._copies)
        counts = self._per_key[self._slots]
        starts = (np.cumsum(self._per_key) - self._per_key)[self._slots]
        if self._copies is not None:
            starts, counts = np.repeat(starts, self._copies), np.repeat(counts, self._copies)
        order = self._order if self._order is not None else stable_argsort(self._right_key)
        return order[segment_rows(starts, counts)]


def _padded(values: np.ndarray, fill_rows: int, fill=None) -> np.ndarray:
    """``values`` followed by ``fill_rows`` outer-join fill rows: ``fill``
    when given, else NaN for numeric columns (which turn float64, as an
    outer join's nullable side always has) and ``""`` for string kinds."""
    if not fill_rows:
        return values
    if fill is None:
        if values.dtype.kind in "US":
            fill = ""
        else:
            values, fill = values.astype(np.float64), np.nan
    return np.concatenate([values, np.full(fill_rows, fill, dtype=values.dtype)])


def _lineage_names(left: Table, right: Table) -> Tuple[str, ...]:
    """The lineage columns a join's output carries: an output row's
    identity is the pair of its input rows' identities. Names are disjoint
    by construction (one per scan)."""
    left_lineage, right_lineage = left.lineage_column_names(), right.lineage_column_names()
    clash = set(left_lineage) & set(right_lineage)
    if clash:
        raise SchemaError(
            f"join inputs share lineage columns {sorted(clash)}; a scan node "
            "appears on both sides of the join"
        )
    return left_lineage + right_lineage


def execute_join(
    left: Union[Table, "JoinedRows"],
    right: Table,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
    columns: Optional[Sequence[str]] = None,
) -> Union[Table, "JoinedRows"]:
    """Hash equi-join. Weights multiply; a side without weights counts as 1.

    ``columns`` names the data columns the output carries (default: every
    data column of both inputs, left then right). The keys are read from
    the inputs either way and copied only when listed; lineage and weight
    columns always ride along.

    An inner join where some probe (left) row matches more than once is
    left lazy: it returns a :class:`JoinedRows`, which its reader reads as
    it needs, or builds (DESIGN §18). Every other join returns its table.
    ``left`` may itself be a lazy join. An inner join probes its probe rows
    when it carries only probe columns (:meth:`JoinedRows.probe_side`),
    each standing for the product of its two match counts, ``a·b`` output
    rows, in the order the built joins would give them; any other join
    builds it first.
    """
    if how not in ("inner", "left", "right"):
        raise PlanError(f"unsupported join type {how!r}")
    if columns is None:
        left = left.built()
        columns = left.data_column_names() + right.data_column_names()
    name, rows, copies = f"{left.name}_join_{right.name}", None, None
    if isinstance(left, JoinedRows):
        stacked = left.probe_side() if how == "inner" else None
        if stacked is None:
            left = left.built()
        else:
            left, rows, copies = stacked
    keyed = left
    if rows is not None:
        probed = {key: left.key_column(key)[rows] for key in left_keys}
        keyed = Table(left.name, probed, left.dictionaries())
    matched, counts, matches = _KeyMatches.probe(
        *_join_keys(keyed, right, left_keys, right_keys), copies
    )
    fans_out = counts is not None and (copies is not None or counts.max(initial=0) > 1)
    if fans_out and how == "inner":
        if rows is not None:
            matched = rows[matched]
        return JoinedRows(
            name,
            _Picked(left, lambda: matched),
            counts,
            _Picked(right, matches.build_index),
            tuple(columns) + _lineage_names(left, right),
            matches.sums,
            _aliases(left, right, left_keys, right_keys, columns),
        )
    if fans_out:  # an outer join
        pairs = np.repeat(matched, counts), matches.build_index()
    else:
        pairs = matched, matches.single_rows()
    del counts, matches  # a probe row long each: not live through the gathers
    return _joined_table(left, right, *pairs, how, columns)


def _joined_table(
    left: Table,
    right: Table,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    how: str,
    columns: Optional[Sequence[str]],
) -> Table:
    """:func:`execute_join`'s output from its matched (left, right) pairs."""
    # Outer joins append the outer side's unmatched rows; the inner side's
    # columns are padded with fill values for them.
    left_fill = right_fill = 0
    if how != "inner":
        outer, outer_idx = (left, left_idx) if how == "left" else (right, right_idx)
        matched = np.zeros(outer.num_rows, dtype=bool)
        matched[outer_idx] = True
        missing = np.flatnonzero(~matched)
        if how == "left":
            left_idx, right_fill = np.concatenate([left_idx, missing]), len(missing)
        else:
            right_idx, left_fill = np.concatenate([right_idx, missing]), len(missing)

    dictionaries: Dict[str, np.ndarray] = {}

    def gather(name: str, fill=None) -> np.ndarray:
        """The named column's matched rows plus fill rows; codes stay
        codes unless fill rows are due (``""`` may have no code)."""
        side, idx, fill_rows = (
            (left, left_idx, left_fill) if left.has_column(name) else (right, right_idx, right_fill)
        )
        if fill_rows or side.dictionary(name) is None:
            return _padded(side.column(name, idx), fill_rows, fill)
        dictionaries[name] = side.dictionary(name)
        return side.key_column(name)[idx]

    if columns is None:
        columns = left.data_column_names() + right.data_column_names()
    out: Dict[str, np.ndarray] = {name: gather(name) for name in columns}

    for name in _lineage_names(left, right):
        # Unmatched rows have no partner; -1 marks the absent lineage.
        out[name] = gather(name, fill=-1)

    if left.has_weights() or right.has_weights():
        # Outer-join fill rows keep the outer row's weight (partner weight 1).
        lw = _padded(left.weights()[left_idx], left_fill, 1.0) if left.has_weights() else 1.0
        rw = _padded(right.weights()[right_idx], right_fill, 1.0) if right.has_weights() else 1.0
        out[WEIGHT_COLUMN] = np.asarray(lw * rw, dtype=np.float64)
    return Table(f"{left.name}_join_{right.name}", out, dictionaries)


def _self_equal(values: np.ndarray) -> bool:
    """Whether every value equals itself: no float NaN, and not an object
    column, whose values cannot be told apart from NaN cheaply."""
    kind = values.dtype.kind
    return kind in "biuUS" or (kind == "f" and not np.isnan(values).any())


#: Reserved column of a :class:`JoinParts` probe table: how many output
#: rows each probe row is.
MATCH_COLUMN = "__matches__"


class JoinParts(NamedTuple):
    """An unbuilt inner join's output as two plain tables, for a partition
    to ship and the parallel merge to order (DESIGN §7).

    ``probe`` holds the probe rows that match: the probe columns the join
    carries, lineage included, their weight and each one's match count
    (:data:`MATCH_COLUMN`). ``build`` holds one row per match, in output
    order: the build columns the join carries bar lineage, and the build
    weight; ``None`` when it would hold no column."""

    probe: Table
    build: Optional[Table]


class _Picked:
    """The rows of ``table`` at ``pick()`` (no ``pick``: all of them, as
    they are), a column at a time as read; ``pick`` runs on the first read."""

    def __init__(self, table: Table, pick: Optional[Callable[[], np.ndarray]] = None):
        self.table = table
        self._pick = pick
        self._rows: Optional[np.ndarray] = None
        self._made: Dict[str, np.ndarray] = {}

    def rows(self) -> Optional[np.ndarray]:
        """The rows picked (``None``: all of them)."""
        if self._rows is None and self._pick is not None:
            self._rows = self._pick()
        return self._rows

    def _take(self, values: np.ndarray) -> np.ndarray:
        rows = self.rows()
        return values if rows is None else values[rows]

    def key_column(self, name: str) -> np.ndarray:
        if name not in self._made:
            self._made[name] = self._take(self.table.key_column(name))
        return self._made[name]

    def weights(self) -> np.ndarray:
        return self._take(self.table.weights())


class JoinedRows:
    """An inner join's output left lazy because it fans out (DESIGN §18).
    Three readers take it as it is: the aggregate above it, the join whose
    probe input it is, and a partition task, which ships :meth:`parts`;
    every other reader gets :meth:`built`.

    Its rows are the join's, in the join's order: the probe (left) rows
    that match, each repeated by its match count, beside their matches'
    build (right) rows. A column is made when first read, with the bits
    the built join would have gathered: a probe column by repeating
    its matched rows, a build column by a gather whose build indices are
    computed on the first such read. A build key column the join carries
    may be read off its probe partner (``aliases``: build name -> probe
    name), which holds the same bits on every output row. Row count,
    dictionaries and :meth:`estimated_bytes` are those of the table the
    join would have built, so a run records and charges it as that table.

    :func:`execute_join` makes one over the join's inputs;
    :meth:`from_parts` over matches already picked (:class:`JoinParts`).
    ``build_sums`` maps a value per build row to its sum over each probe
    row's output rows.
    """

    def __init__(
        self,
        name: str,
        probe: _Picked,
        counts: np.ndarray,
        build: Optional[_Picked],
        carried: Sequence[str],
        build_sums: Callable[[np.ndarray], np.ndarray],
        aliases: Optional[Dict[str, str]] = None,
    ):
        self.name = name
        self.num_rows = int(counts.sum())
        self.num_probe_rows = len(counts)
        self._probe, self._counts, self._build = probe, counts, build
        self._build_sums = build_sums
        self._aliases = aliases or {}
        self._carried = tuple(carried)
        #: Columns made so far, per output row.
        self._made: Dict[str, np.ndarray] = {}

    @classmethod
    def from_parts(cls, parts: JoinParts, columns: Sequence[str]) -> "JoinedRows":
        """The join whose matches ``parts`` holds, carrying ``columns``."""
        probe, build = parts
        counts = probe.key_column(MATCH_COLUMN)
        starts = np.cumsum(counts) - counts
        return cls(
            probe.name,
            _Picked(probe),
            counts,
            None if build is None else _Picked(build),
            columns,
            lambda per_build: segment_sums(per_build, starts, counts),
        )

    def _sides(self) -> Tuple[_Picked, ...]:
        return (self._probe,) if self._build is None else (self._probe, self._build)

    def _source(self, name: str) -> Tuple[_Picked, str]:
        """The side a column is read from, and its name there."""
        if name in self._aliases:
            return self._probe, self._aliases[name]
        return (self._probe if self._probe.table.has_column(name) else self._build), name

    def _on_probe(self, name: str) -> bool:
        return self._source(name)[0] is self._probe

    def has_column(self, name: str) -> bool:
        return name in self._carried

    def has_weights(self) -> bool:
        return any(side.table.has_weights() for side in self._sides())

    def dictionary(self, name: str) -> Optional[np.ndarray]:
        if name not in self._carried:
            return None
        side, stored = self._source(name)
        return side.table.dictionary(stored)

    def dictionaries(self) -> Dict[str, np.ndarray]:
        coded = {name: self.dictionary(name) for name in self._carried}
        return {name: values for name, values in coded.items() if values is not None}

    def key_column(self, name: str) -> np.ndarray:
        if name not in self._made:
            if name not in self._carried:
                raise SchemaError(f"table {self.name!r} has no column {name!r}")
            side, stored = self._source(name)
            values = side.key_column(stored)
            self._made[name] = repeated(values, self._counts) if side is self._probe else values
        return self._made[name]

    def column(self, name: str, rows: Optional[np.ndarray] = None) -> np.ndarray:
        values = self.key_column(name)
        if rows is not None:
            values = values[rows]
        dictionary = self.dictionary(name)
        return values if dictionary is None else dictionary[values]

    def weights(self) -> np.ndarray:
        """The join's weight column: the two sides' weights multiplied, a
        side without weights counting as 1."""
        if not self.has_weights():
            return np.ones(self.num_rows)
        lw = rw = 1.0
        if self._probe.table.has_weights():
            lw = repeated(self._probe.weights(), self._counts)
        if self._build is not None and self._build.table.has_weights():
            rw = self._build.weights()
        return np.asarray(lw * rw, dtype=np.float64)

    def estimated_bytes(self) -> int:
        """What the built table's :meth:`Table.estimated_bytes` would be."""
        width = sum(
            side.table.key_column(stored).dtype.itemsize
            for side, stored in map(self._source, self._carried)
        )
        return self.num_rows * (width + (8 if self.has_weights() else 0))

    def parts_bytes(self) -> int:
        """Bytes of the tables this picks its rows from: for one made
        :meth:`from_parts`, what was built instead of the output."""
        return sum(side.table.estimated_bytes() for side in self._sides())

    def probe_side(self) -> Optional[Tuple[Table, Optional[np.ndarray], np.ndarray]]:
        """``(table, rows, counts)`` for a join above to probe: the table
        the probe rows are picked from, which rows (``None``: all), and how
        many output rows each one is. ``None`` when this carries a build
        column or weight, which a join above would have to read per output
        row."""
        if any(not self._probe.table.has_column(name) for name in self._carried):
            return None
        if self._build is not None and self._build.table.has_weights():
            return None
        return self._probe.table, self._probe.rows(), self._counts

    def _probe_table(self, names: Sequence[str]) -> Table:
        """The named columns over the probe rows that match."""
        stored = {name: self._source(name)[1] for name in names}
        columns = {name: self._probe.key_column(source) for name, source in stored.items()}
        coded = {name: self._probe.table.dictionary(source) for name, source in stored.items()}
        return Table(self.name, columns, {k: v for k, v in coded.items() if v is not None})

    def probe_rows(self, names: Sequence[str]):
        """``(rows, counts)`` for :func:`~repro.engine.aggregate.partial_aggregate`:
        a table of the named columns this carries over the probe rows that
        match, and each one's match count. ``None`` when there is nothing
        to key on, or a named column is a build column or holds a value
        unequal to itself: each repeat of a NaN is a group of its own."""
        names = [name for name in names if name in self._carried]
        if not names or not all(map(self._on_probe, names)):
            return None
        keyed = self._probe_table(names)
        if not all(_self_equal(keyed.key_column(name)) for name in names):
            return None
        return keyed, self._counts

    def side_sums(
        self, names: Iterable[str], values: Callable[[Table], np.ndarray]
    ) -> Optional[np.ndarray]:
        """Per probe row that matches, the sum over its output rows of
        ``values``, read off a table of one side holding the columns
        ``names``: the probe row's value times its match count, or the sum
        of its matches' build values (``build_sums``). ``None`` unless one
        side holds every one of ``names``. The sums reassociate, so they
        are exact only over whole numbers (DESIGN §18)."""
        names = list(names)
        if not names:
            return None
        if all(map(self._on_probe, names)):
            return values(self._probe_table(names)) * self._counts
        if self._build is not None and all(self._build.table.has_column(n) for n in names):
            return self._build_sums(values(self._build.table))
        return None

    def parts(self) -> JoinParts:
        """The matches as two plain tables, for a partition to ship. The
        build side's lineage stays behind: ordering the probe rows orders
        the output (:func:`~repro.parallel.merge.merge_matches`)."""
        probe = self._picked_columns(self._probe)
        probe[MATCH_COLUMN] = self._counts
        build = {} if self._build is None else self._picked_columns(self._build, lineage=False)
        coded = self.dictionaries()
        return JoinParts(
            Table(self.name, probe, coded), Table(self.name, build, coded) if build else None
        )

    def _picked_columns(self, side: _Picked, lineage: bool = True) -> Dict[str, np.ndarray]:
        """What this carries of ``side``, its weight included, per picked row."""
        columns = {
            name: side.key_column(stored)
            for name, (source, stored) in zip(self._carried, map(self._source, self._carried))
            if source is side and (lineage or not name.startswith(ROWID_PREFIX))
        }
        if side.table.has_weights():
            columns[WEIGHT_COLUMN] = side.weights()
        return columns

    def built(self) -> Table:
        """The table the join would have built."""
        columns = {name: self.key_column(name) for name in self._carried}
        if self.has_weights():
            columns[WEIGHT_COLUMN] = self.weights()
        return Table(self.name, columns, self.dictionaries())


def _aliases(
    left: Table, right: Table, left_keys: Sequence[str], right_keys: Sequence[str],
    columns: Sequence[str],
) -> Dict[str, str]:
    """The build key columns a join carries that read the same off their
    probe partners: on every output row the two hold one value, and under
    one integer dtype and one dictionary (or none) the same bits. Float
    keys are left out, as ``-0.0`` joins ``0.0``, and so are plain
    strings, whose equal values may be stored unequally."""
    aliases = {}
    for l_name, r_name in zip(left_keys, right_keys):
        l_col, r_col = left.key_column(l_name), right.key_column(r_name)
        if (
            r_name in columns
            and l_col.dtype == r_col.dtype
            and l_col.dtype.kind in "biu"
            and same_dictionary(left.dictionary(l_name), right.dictionary(r_name))
        ):
            aliases[r_name] = l_name
    return aliases


def execute_aggregate(
    table: Table,
    group_by: Sequence[str],
    aggs: Sequence[AggSpec],
    compute_ci: bool = False,
    universe_rescale: Optional[Dict[str, float]] = None,
    universe_variance: Optional[Tuple[Tuple[str, ...], float]] = None,
    decimals: Optional[Dict[str, int]] = None,
) -> Table:
    """Grouped aggregation with Horvitz-Thompson estimation: the one-input
    case of :mod:`repro.engine.aggregate`, which documents the estimators
    and the four annotations (:class:`~repro.engine.aggregate.Estimation`).
    ``table`` may be a :class:`JoinedRows`: groups and pairs are then
    found on its probe rows, and sums of whole numbers read them too."""
    how = Estimation(compute_ci, universe_rescale, universe_variance, decimals)
    probe, names = None, key_columns(group_by, aggs, how)
    if isinstance(table, JoinedRows) and names is not None:
        probe = table.probe_rows(names)
    state = partial_aggregate(table, group_by, aggs, how, probe)
    return finalize_partial(state, aggs, how, name=f"{table.name}_agg")


def execute_orderby(table: Table, keys: Sequence[str], descending: bool) -> Table:
    return table.sort_by(keys, descending)


def execute_limit(table: Table, n: int) -> Table:
    return table.head(n)


def execute_union_all(tables: Sequence[Table]) -> Table:
    aligned = []
    any_weights = any(t.has_weights() for t in tables)
    for t in tables:
        # Lineage does not survive a union: children carry lineage from
        # different scans, so there is no common identity space. Samplers
        # above a union fall back to positional randomness.
        t = t.drop_lineage()
        if any_weights and not t.has_weights():
            t = t.with_columns({WEIGHT_COLUMN: np.ones(t.num_rows)})
        aligned.append(t)
    if len(aligned) == 1:
        # Degenerate union: concat would copy every column of the single
        # input just to glue it to nothing.
        return aligned[0]
    return Table.concat(aligned, name=aligned[0].name)
