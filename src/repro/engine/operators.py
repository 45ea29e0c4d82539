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
from repro.engine.keys import dense_span, pack_keys, same_dictionary, stable_argsort
from repro.engine.table import ROWID_PREFIX, WEIGHT_COLUMN, Table
from repro.errors import PlanError, SchemaError

__all__ = [
    "execute_select",
    "execute_project",
    "execute_join",
    "execute_join_unbuilt",
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
    combined = []
    for l_name, r_name in zip(left_keys, right_keys):
        shared = same_dictionary(left.dictionary(l_name), right.dictionary(r_name))
        read = Table.key_column if shared else Table.column
        l_col, r_col = read(left, l_name), read(right, r_name)
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


class _Matches(NamedTuple):
    """Which build (right) rows each probe (left) row matches.

    ``rows`` are the probe rows with a match, ascending; ``counts`` how
    many each has (``None``: exactly one); ``starts`` where each one's
    matches begin in ``order``, the build rows sorted by key (``None``: the
    build rows as they are)."""

    rows: np.ndarray
    counts: Optional[np.ndarray]
    starts: np.ndarray
    order: Optional[np.ndarray]

    def num_pairs(self) -> int:
        return len(self.rows) if self.counts is None else int(self.counts.sum())

    def probe_index(self) -> np.ndarray:
        """The probe row of each match, in output order."""
        return self.rows if self.counts is None else np.repeat(self.rows, self.counts)

    def build_index(self) -> np.ndarray:
        """The build row of each match, in output order: per probe row, in
        build-row order."""
        if self.counts is None:
            return self.starts if self.order is None else self.order[self.starts]
        return self.order[segment_rows(self.starts, self.counts)]


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


def _probe(left_key: np.ndarray, right_key: np.ndarray, span: int) -> _Matches:
    """The matches of every left key among the right keys (many-to-many).

    A right (build) side whose keys are unique, as a dimension's are, is
    probed without expanding runs: on a dense span through a span-sized
    table of right positions, on a sparse one by one ``searchsorted`` into
    its sorted keys. Only duplicate build keys pay for the stable sort."""
    if dense_span(span, len(left_key) + len(right_key)):
        per_key = np.bincount(right_key, minlength=span)
        if per_key.max(initial=0) <= 1:
            hit = np.full(span, -1, dtype=np.intp)
            hit[right_key] = np.arange(len(right_key))
            hit = hit[left_key]
            rows = np.flatnonzero(hit >= 0)
            return _Matches(rows, None, hit[rows], None)
        order = stable_argsort(right_key)
        lo = (np.cumsum(per_key) - per_key)[left_key]
        counts = per_key[left_key]
    else:
        order = stable_argsort(right_key)
        sorted_right = right_key[order]
        if len(sorted_right) and not (sorted_right[1:] == sorted_right[:-1]).any():
            at = np.searchsorted(sorted_right, left_key)
            rows = np.flatnonzero(sorted_right[np.minimum(at, len(order) - 1)] == left_key)
            return _Matches(rows, None, at[rows], order)
        lo = np.searchsorted(sorted_right, left_key, side="left")
        counts = np.searchsorted(sorted_right, left_key, side="right") - lo
    rows = np.flatnonzero(counts)
    return _Matches(rows, counts[rows], lo[rows], order)


def _match_pairs(
    left_key: np.ndarray, right_key: np.ndarray, span: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All (left_index, right_index) pairs with equal keys, in left-row
    order and, per left row, right-row order."""
    matches = _probe(left_key, right_key, span)
    return matches.probe_index(), matches.build_index()


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
    left: Table,
    right: Table,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str = "inner",
    columns: Optional[Sequence[str]] = None,
) -> Table:
    """Hash equi-join. Weights multiply; a side without weights counts as 1.

    ``columns`` names the data columns the output carries (default: every
    data column of both inputs, left then right). The keys are read from
    the inputs either way and copied only when listed; lineage and weight
    columns always ride along.
    """
    if how not in ("inner", "left", "right"):
        raise PlanError(f"unsupported join type {how!r}")
    pairs = _match_pairs(*_join_keys(left, right, left_keys, right_keys))
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

    def _take(self, values: np.ndarray) -> np.ndarray:
        if self._pick is None:
            return values
        if self._rows is None:
            self._rows = self._pick()
        return values[self._rows]

    def key_column(self, name: str) -> np.ndarray:
        if name not in self._made:
            self._made[name] = self._take(self.table.key_column(name))
        return self._made[name]

    def weights(self) -> np.ndarray:
        return self._take(self.table.weights())


class JoinedRows:
    """An inner join's output left unbuilt, for the aggregate right above
    the join to read (DESIGN §18).

    Its rows are the join's, in the join's order: the probe (left) rows
    that match, each repeated by its match count, beside their matches'
    build (right) rows. A column is made when first read, with the bits
    :func:`execute_join` would have gathered: a probe column by repeating
    its matched rows, a build column by a gather whose build indices are
    computed on the first such read. Row count, dictionaries and
    :meth:`estimated_bytes` are those of the table the join would have
    built, so a run records and charges it as that table.

    :func:`execute_join_unbuilt` makes one over the join's inputs;
    :meth:`from_parts` over matches already picked (:class:`JoinParts`).
    ``starts`` and ``order`` say where each probe row's matches are in the
    build table: rows ``order[starts[i] : starts[i] + counts[i]]``
    (``order`` ``None``: the build rows as they are).
    """

    def __init__(
        self,
        name: str,
        probe: _Picked,
        counts: np.ndarray,
        build: Optional[_Picked],
        carried: Sequence[str],
        starts: np.ndarray,
        order: Optional[np.ndarray] = None,
    ):
        self.name = name
        self.num_rows = int(counts.sum())
        self.num_probe_rows = len(counts)
        self._probe, self._counts, self._build = probe, counts, build
        self._starts, self._order = starts, order
        self._carried = tuple(carried)
        #: Columns made so far, per output row.
        self._made: Dict[str, np.ndarray] = {}

    @classmethod
    def from_parts(cls, parts: JoinParts, columns: Sequence[str]) -> "JoinedRows":
        """The join whose matches ``parts`` holds, carrying ``columns``."""
        probe, build = parts
        counts = probe.key_column(MATCH_COLUMN)
        return cls(
            probe.name,
            _Picked(probe),
            counts,
            None if build is None else _Picked(build),
            columns,
            np.cumsum(counts) - counts,
        )

    def _sides(self) -> Tuple[_Picked, ...]:
        return (self._probe,) if self._build is None else (self._probe, self._build)

    def _side(self, name: str) -> _Picked:
        return self._probe if self._probe.table.has_column(name) else self._build

    def has_column(self, name: str) -> bool:
        return name in self._carried

    def has_weights(self) -> bool:
        return any(side.table.has_weights() for side in self._sides())

    def dictionary(self, name: str) -> Optional[np.ndarray]:
        return self._side(name).table.dictionary(name) if name in self._carried else None

    def dictionaries(self) -> Dict[str, np.ndarray]:
        coded = {name: self.dictionary(name) for name in self._carried}
        return {name: values for name, values in coded.items() if values is not None}

    def key_column(self, name: str) -> np.ndarray:
        if name not in self._made:
            if name not in self._carried:
                raise SchemaError(f"table {self.name!r} has no column {name!r}")
            side = self._side(name)
            values = side.key_column(name)
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
            self._side(name).table.key_column(name).dtype.itemsize for name in self._carried
        )
        return self.num_rows * (width + (8 if self.has_weights() else 0))

    def parts_bytes(self) -> int:
        """Bytes of the tables this picks its rows from: for one made
        :meth:`from_parts`, what was built instead of the output."""
        return sum(side.table.estimated_bytes() for side in self._sides())

    def probe_rows(self, names: Sequence[str]):
        """``(rows, counts)`` for :func:`~repro.engine.aggregate.partial_aggregate`:
        a table of the named columns this carries over the probe rows that
        match, and each one's match count. ``None`` when there is nothing
        to key on, or a named column is a build column or holds a value
        unequal to itself: each repeat of a NaN is a group of its own."""
        names = [name for name in names if name in self._carried]
        if not names or not all(self._probe.table.has_column(name) for name in names):
            return None
        columns = {name: self._probe.key_column(name) for name in names}
        if not all(map(_self_equal, columns.values())):
            return None
        return Table(self.name, columns, self._probe.table.dictionaries()), self._counts

    def side_sums(
        self, names: Iterable[str], values: Callable[[Table], np.ndarray]
    ) -> Optional[np.ndarray]:
        """Per probe row that matches, the sum over its output rows of
        ``values``, read off a table of one side holding the columns
        ``names``: the probe row's value times its match count, or the sum
        of its matches' build values. ``None`` unless one side holds every
        one of ``names``. The sums reassociate, so they are exact only over
        whole numbers (DESIGN §18)."""
        names = list(names)
        if not names:
            return None
        if all(self._probe.table.has_column(name) for name in names):
            columns = {name: self._probe.key_column(name) for name in names}
            side = Table(self.name, columns, self._probe.table.dictionaries())
            return values(side) * self._counts
        if self._build is not None and all(self._build.table.has_column(n) for n in names):
            per_build = values(self._build.table)
            if self._order is not None:
                per_build = per_build[self._order]
            return segment_sums(per_build, self._starts, self._counts)
        return None

    def parts(self) -> JoinParts:
        """The matches as two plain tables, for a partition to ship. The
        build side's lineage stays behind: ordering the probe rows orders
        the output (:func:`~repro.parallel.merge.merge_matches`)."""
        probe = self._picked_columns(self._probe)
        probe[MATCH_COLUMN] = self._counts
        build = {} if self._build is None else self._picked_columns(self._build, lineage=False)
        return JoinParts(
            Table(self.name, probe, self._probe.table.dictionaries()),
            Table(self.name, build, self._build.table.dictionaries()) if build else None,
        )

    def _picked_columns(self, side: _Picked, lineage: bool = True) -> Dict[str, np.ndarray]:
        """What this carries of ``side``, its weight included, per picked row."""
        names = [
            name
            for name in self._carried
            if self._side(name) is side and (lineage or not name.startswith(ROWID_PREFIX))
        ]
        columns = {name: side.key_column(name) for name in names}
        if side.table.has_weights():
            columns[WEIGHT_COLUMN] = side.weights()
        return columns

    def built(self) -> Table:
        """The table the join would have built."""
        columns = {name: self.key_column(name) for name in self._carried}
        if self.has_weights():
            columns[WEIGHT_COLUMN] = self.weights()
        return Table(self.name, columns, self.dictionaries())


def execute_join_unbuilt(
    left: Table,
    right: Table,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    columns: Sequence[str],
) -> Union[Table, JoinedRows]:
    """:func:`execute_join` (inner) for an aggregate to read. When some
    probe row matches more than once, the output is left unbuilt. When none
    does, there is no fan-out to save: the output is the matched probe
    rows, and the aggregate reads every column of it, so it is built."""
    matches = _probe(*_join_keys(left, right, left_keys, right_keys))
    if matches.num_pairs() == len(matches.rows):
        pairs = matches.probe_index(), matches.build_index()
        return _joined_table(left, right, *pairs, "inner", columns)
    return JoinedRows(
        f"{left.name}_join_{right.name}",
        _Picked(left, lambda: matches.rows),
        matches.counts,
        _Picked(right, matches.build_index),
        tuple(columns) + _lineage_names(left, right),
        matches.starts,
        matches.order,
    )


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
