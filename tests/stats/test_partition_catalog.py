"""Partition-statistics catalog: summaries, layouts, validation.

The prune pass (DESIGN §14) trusts exactly three things about the
catalog: a partition's column summary is the exact summary of the values
that partition holds (checked against a reference that counts the decoded,
NaN-stripped values with ``np.unique``, on random tables under every
partitioner), a layout is a disjoint cover of the table, and ``validate``
catches a summary that no longer matches the data. The planner reads the
same summaries; its view must equal the eager reference of
``test_catalog.py``. Each is pinned here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.partitions import HASH, Partitioner
from repro.engine.table import Database, Table
from repro.stats import Catalog, ColumnSummary, PartitionCatalog, column_summaries
from repro.stats.catalog import MAX_EXACT_VALUES
from tests.stats.test_catalog import _comparable, _eager_collect


def make_db(n=5_000, seed=11):
    gen = np.random.default_rng(seed)
    db = Database()
    db.register(
        Table(
            "fact",
            {
                "f_date": np.sort(gen.integers(0, 365, n)),
                "f_key": gen.integers(0, 1_000, n),
                "f_amount": np.round(gen.exponential(20.0, n), 2),
            },
        )
    )
    db.register(Table("dim", {"d_key": np.arange(50), "d_flag": np.arange(50) % 3}))
    return db


class TestColumnSummary:
    def test_min_max_nulls_distinct(self):
        column = np.array([3.0, np.nan, 1.0, 4.0, 1.0, np.nan])
        summary = ColumnSummary.from_array(column)
        assert summary.min_value == 1.0
        assert summary.max_value == 4.0
        assert summary.null_count == 2
        assert summary.distinct == 3
        assert summary.values == (1.0, 3.0, 4.0)

    def test_empty_and_all_null(self):
        empty = ColumnSummary.from_array(np.array([], dtype=np.int64))
        assert empty.min_value is None and empty.values == ()
        nulls = ColumnSummary.from_array(np.array([np.nan, np.nan]))
        assert nulls.min_value is None
        assert nulls.null_count == 2

    def test_wide_column_drops_exact_values(self):
        column = np.arange(MAX_EXACT_VALUES + 10)
        summary = ColumnSummary.from_array(column)
        assert summary.values is None
        assert summary.distinct == MAX_EXACT_VALUES + 10


class TestLayouts:
    def test_round_robin_matches_executor_split(self):
        db = make_db()
        layout = PartitionCatalog(db).layout("fact", 4)
        assert layout == Partitioner(4)
        for p, idx in enumerate(layout.indices(db.table("fact"))):
            np.testing.assert_array_equal(idx % 4, p)

    def test_range_cluster_is_a_disjoint_cover_ordered_by_value(self):
        db = make_db()
        table = db.table("fact")
        layout = PartitionCatalog(db, cluster_columns={"fact": "f_date"}).layout("fact", 6)
        assert (layout.strategy, layout.columns) == ("range-cluster", ("f_date",))
        splits = layout.indices(table)
        assert sum(len(s) for s in splits) == table.num_rows
        assert len(np.unique(np.concatenate(splits))) == table.num_rows
        highs = [table.column("f_date")[s].max() for s in splits if len(s)]
        lows = [table.column("f_date")[s].min() for s in splits if len(s)]
        for hi, lo in zip(highs, lows[1:]):
            assert hi <= lo

    def test_non_numeric_cluster_falls_back_to_round_robin(self):
        db = Database()
        db.register(Table("t", {"name": np.array(["a", "b", "c", "d"])}))
        layout = PartitionCatalog(db, cluster_columns={"t": "name"}).layout("t", 2)
        assert layout.strategy == "round-robin"


class TestCatalog:
    def test_lazy_build_tracking(self):
        catalog = PartitionCatalog(make_db())
        assert catalog.built() == ()
        catalog.summaries("dim", 4)
        assert catalog.built() == (("dim", 4),)

    def test_validate_clean_then_corrupted(self):
        db = make_db()
        catalog = PartitionCatalog(db, cluster_columns={"fact": "f_date"})
        catalog.summaries("fact", 4)
        assert catalog.validate() == []
        catalog.summaries("fact", 4)[2].rows += 7
        problems = catalog.validate("fact")
        assert len(problems) == 2  # the partition and the table total
        assert "fact[2]" in problems[0]


# ---------------------------------------------------------------------------
# The invariant: one exact summary, whoever reads it
# ---------------------------------------------------------------------------

WORDS = np.array(["", "a", "ab", "b", "Zed", "zz"])


class PlainDatabase(Database):
    """Stores tables as given, so string columns stay uncoded."""

    def register(self, table):
        self._tables[table.name] = table


@st.composite
def tables(draw):
    """Random columns of every kind a summary counts: dense and sparse
    ints, a skewed int (heavy and frequent values), bools, uint64 past
    int64, floats with NaN (sometimes all NaN) and strings; empty and
    one-row tables included."""
    n = draw(st.one_of(st.integers(0, 2), st.integers(0, 3_000)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([1, 40, 2**40]))
    nan_frac = draw(st.sampled_from([0.0, 0.2, 1.0]))
    floats = np.round(gen.normal(0.0, 3.0, n), 1) + 0.0  # + 0.0: no -0.0
    return Table("t", {
        "i": gen.integers(-span, span, n),
        "skewed": np.minimum(gen.zipf(1.6, n), 500),
        "flag": gen.random(n) < 0.3,
        "big": gen.integers(2**63, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
        "f": np.where(gen.random(n) < nan_frac, np.nan, floats),
        "s": gen.choice(WORDS, n),
    })


def _reference(values):
    """A partition column's summary as ``ColumnSummary.from_array`` built it
    before counting went through one function: ``np.unique`` over the
    decoded, NaN-stripped values; frequent values are the entries the
    lossy-counting table kept from those counts (count > 0.1 % of them)."""
    nulls = int(np.isnan(values).sum()) if values.dtype.kind == "f" else 0
    nonnull = values[~np.isnan(values)] if nulls else values
    want = {"min_value": None, "max_value": None, "null_count": nulls, "distinct": 0,
            "values": (), "frequent": 0}
    if len(nonnull):
        uniques, counts = np.unique(nonnull, return_counts=True)
        want.update(
            min_value=uniques[0].item(),
            max_value=uniques[-1].item(),
            distinct=len(uniques),
            values=tuple(u.item() for u in uniques) if len(uniques) <= MAX_EXACT_VALUES else None,
            frequent=int(np.count_nonzero(counts > int(1e-3 * len(nonnull)))),
        )
    return {name: _comparable(value) for name, value in want.items()}


def _fields(summary):
    return {name: _comparable(getattr(summary, name)) for name in
            ("min_value", "max_value", "null_count", "distinct", "values", "frequent")}


def _assert_matches_reference(table, indices, summaries_of):
    for name in table.data_column_names():
        want = [_reference(table.column(name, idx)) for idx in indices]
        assert [_fields(s) for s in summaries_of(name)] == want, name


class TestOneExactSummary:
    @settings(max_examples=40, deadline=None)
    @given(tables(), st.integers(1, 5))
    def test_every_partition_summary_equals_the_reference(self, table, degree):
        for db in (Database(), PlainDatabase()):
            db.register(table)
            stored = db.table("t")
            for partitioner in (Partitioner(degree), Partitioner(degree, HASH, ("s",), seed=3)):
                indices = partitioner.indices(stored)
                _assert_matches_reference(
                    stored, indices, lambda name: column_summaries(stored, name, indices)
                )
            # The catalog's own layout: range-cluster on "i" (round-robin
            # when the table is empty).
            catalog = PartitionCatalog(db, cluster_columns={"t": "i"})
            summaries = catalog.summaries("t", degree)
            indices = catalog.live_indices("t", degree)
            assert [s.rows for s in summaries] == [len(idx) for idx in indices]
            _assert_matches_reference(
                stored, indices, lambda name: [s.columns[name] for s in summaries]
            )

    @settings(max_examples=40, deadline=None)
    @given(tables())
    def test_planner_view_equals_the_eager_reference(self, table):
        for db in (Database(), PlainDatabase()):
            db.register(table)
            stats = Catalog(db).stats("t")
            for name, want in _eager_collect(db.table("t")).items():
                got = stats.column(name)
                for field, value in want.items():
                    assert _comparable(getattr(got, field)) == _comparable(value), (name, field)
