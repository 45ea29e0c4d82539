"""Unit tests for the statistics catalog (paper Table 2)."""

import numpy as np
import pytest

from repro.algebra.aggregates import count
from repro.engine.operators import execute_aggregate
from repro.engine.table import Database, Table
from repro.errors import CatalogError
from repro.stats.catalog import Catalog, PartitionCatalog


@pytest.fixture()
def db(rng):
    database = Database()
    n = 10_000
    values = np.concatenate([np.zeros(2_000, dtype=int), rng.integers(1, 100, 8_000)])
    rng.shuffle(values)
    database.register(
        Table(
            "t",
            {
                "k": values,
                "g": rng.integers(0, 10, n),
                "x": rng.normal(50.0, 10.0, n),
                "label": np.array(["a", "b"] * (n // 2)),
            },
        )
    )
    return database


class TestCollection:
    def test_row_count(self, db):
        assert Catalog(db).row_count("t") == 10_000

    def test_distinct_single_column(self, db):
        catalog = Catalog(db)
        assert catalog.distinct("t", ["g"]) == 10
        assert catalog.distinct("t", ["k"]) == 100

    def test_distinct_column_set_exact(self, db):
        catalog = Catalog(db)
        table = db.table("t")
        truth = len({(a, b) for a, b in zip(table.column("g"), table.column("k"))})
        assert catalog.distinct("t", ["g", "k"]) == truth

    def test_distinct_empty_set_is_one(self, db):
        assert Catalog(db).distinct("t", []) == 1

    def test_numeric_stats(self, db):
        stats = Catalog(db).stats("t").column("x")
        assert stats.mean == pytest.approx(50.0, abs=1.0)
        assert stats.variance == pytest.approx(100.0, rel=0.2)
        assert stats.min_value is not None and stats.max_value is not None

    def test_string_column_has_no_numeric_stats(self, db):
        stats = Catalog(db).stats("t").column("label")
        assert stats.mean is None
        assert stats.distinct == 2

    def test_heavy_hitters_found(self, db):
        stats = Catalog(db).stats("t").column("k")
        assert 0 in stats.heavy_hitters
        assert stats.heavy_hitters[0] == 2_000

    def test_value_skew(self, db):
        skew = Catalog(db).value_skew("t", "x")
        assert skew == pytest.approx(10.0 / 50.0, rel=0.2)


class TestLaziness:
    def test_collected_on_first_access(self, db):
        catalog = Catalog(db)
        assert catalog.collected_tables() == ()
        catalog.stats("t")
        assert catalog.collected_tables() == ("t",)

    def test_set_distinct_cached(self, db):
        catalog = Catalog(db)
        first = catalog.distinct("t", ["g", "k"])
        assert catalog.distinct("t", ["g", "k"]) == first
        assert frozenset({"g", "k"}) in catalog.stats("t")._set_distinct_cache

    def test_missing_table_raises(self, db):
        with pytest.raises(CatalogError):
            Catalog(db).stats("missing")

    def test_missing_column_raises(self, db):
        with pytest.raises(CatalogError):
            Catalog(db).stats("t").column("missing")


def _eager_collect(table):
    """Every statistic of every column, as the catalog computed them before
    it became lazy (one ``np.unique`` per column, moments on top): the
    reference the per-column, per-statistic path must reproduce exactly."""
    from repro.stats.catalog import HEAVY_HITTER_FRACTION, MAX_HEAVY_HITTERS

    columns = {}
    n = table.num_rows
    threshold = max(1, int(HEAVY_HITTER_FRACTION * n))
    for name in table.data_column_names():
        values = table.column(name)
        stats = {"distinct": 0, "mean": None, "variance": None, "min_value": None,
                 "max_value": None, "heavy_hitters": {}}
        if values.dtype.kind in ("i", "u", "f") and n > 0:
            as_float = values.astype(np.float64)
            stats["mean"] = float(np.mean(as_float))
            stats["variance"] = float(np.var(as_float))
            stats["min_value"] = float(np.min(as_float))
            stats["max_value"] = float(np.max(as_float))
        if n > 0:
            uniques, counts = np.unique(values, return_counts=True)
            # A NaN equals nothing: each one is a distinct value.
            stats["distinct"] = len(np.unique(values, equal_nan=False))
            # ...and it is the column's null, never a heavy hitter.
            if uniques.dtype.kind == "f":
                uniques, counts = uniques[~np.isnan(uniques)], counts[~np.isnan(uniques)]
            heavy = counts >= threshold
            if heavy.any():
                order = np.argsort(counts[heavy])[::-1][:MAX_HEAVY_HITTERS]
                stats["heavy_hitters"] = {
                    value.item(): int(cnt)
                    for value, cnt in zip(uniques[heavy][order], counts[heavy][order])
                }
        columns[name] = stats
    return columns


def _comparable(value):
    """NaN-tolerant, type-strict form of a statistic for equality checks."""
    if isinstance(value, dict):
        return [(type(k).__name__, repr(k), v) for k, v in value.items()]
    return (type(value).__name__, repr(value))


def _assert_matches_eager(table):
    stats = Catalog(_db_of(table)).stats(table.name)
    assert stats.rows == table.num_rows
    for name, want in _eager_collect(table).items():
        got = stats.column(name)
        for field, value in want.items():
            assert _comparable(getattr(got, field)) == _comparable(value), (table.name, name, field)


def _db_of(*tables):
    database = Database()
    for table in tables:
        database.register(table)
    return database


class TestLazyEqualsEager:
    def test_every_tpcds_column(self, tiny_tpcds):
        for name in tiny_tpcds.table_names():
            _assert_matches_eager(tiny_tpcds.table(name))

    def test_every_dtype_and_shape(self, rng):
        n = 4_000
        with_nan = rng.normal(size=n)
        with_nan[::7] = np.nan
        _assert_matches_eager(
            Table(
                "mixed",
                {
                    "dense_int": rng.integers(-50, 50, n),
                    "small_int": rng.integers(-100, 100, n).astype(np.int8),
                    "unsigned": rng.integers(0, 2**63, n, dtype=np.uint64) * np.uint64(2),
                    # Span ~2^40 over 4k rows: far past dense_span, takes the sort.
                    "sparse_int": rng.integers(0, 2**40, n) * (rng.random(n) < 0.5),
                    "float": np.round(rng.exponential(3.0, n), 1),
                    "float_nan": with_nan,
                    "text": rng.choice(np.array(["ash", "birch", "cedar", "dogwood"]), n),
                    "flag": rng.random(n) < 0.3,
                    "constant": np.full(n, 7),
                },
            )
        )

    def test_empty_table(self):
        empty = Table("none", {"i": np.array([], dtype=np.int64), "f": np.array([]),
                               "s": np.array([], dtype="<U3")})
        _assert_matches_eager(empty)
        assert Catalog(_db_of(empty)).distinct("none", ["i", "f"]) == 0

    def test_column_sets_count_nan_rows_apart(self):
        t = Table("t", {"a": np.array([1.0, 1.0, np.nan, np.nan, 2.0]), "b": np.array([5, 5, 5, 5, 6])})
        # (1,5) twice, (2,6), and two NaN rows that equal nothing.
        assert Catalog(_db_of(t)).distinct("t", ["a", "b"]) == 4

    def test_one_nan_rule_for_a_column_and_a_column_set(self):
        # Each NaN row is a value of its own, as it is a group of its own
        # to the aggregate: one column and a set with a constant agree.
        t = Table("t", {"a": np.array([1.0, np.nan, np.nan, 2.0, np.nan]), "b": np.full(5, 7)})
        catalog = Catalog(_db_of(t))
        groups = execute_aggregate(t, ["a"], [count("n")]).num_rows
        assert catalog.distinct("t", ["a"]) == catalog.distinct("t", ["a", "b"]) == groups == 5

    def test_nan_is_never_a_heavy_hitter(self):
        # NaN is the column's null: counted apart, and no ``col == nan``
        # lookup could hit it, so it takes no heavy-hitter slot.
        t = Table("t", {"a": np.array([np.nan] * 60 + [1.0] * 30 + [2.0] * 10)})
        column = Catalog(_db_of(t)).stats("t").column("a")
        assert column.heavy_hitters == {1.0: 30, 2.0: 10}
        assert column.summary.null_count == 60


def _built(catalog):
    """{(table, column): statistics built} over everything the catalog holds."""
    return {
        (table, name): column.built()
        for table in catalog.collected_tables()
        for name, column in catalog.stats(table).columns.items()
        if column.built()
    }


class TestBuiltOnFirstAsk:
    def test_row_count_builds_no_column_statistic(self, db):
        catalog = Catalog(db)
        assert catalog.row_count("t") == 10_000
        assert _built(catalog) == {}

    def test_value_skew_builds_no_distinct_count(self, db):
        catalog = Catalog(db)
        catalog.value_skew("t", "x")
        assert _built(catalog) == {("t", "x"): ("moments",)}
        catalog.distinct("t", ["x"])
        assert _built(catalog) == {("t", "x"): ("moments", "counts")}

    def test_distinct_builds_no_moments(self, db):
        catalog = Catalog(db)
        catalog.distinct("t", ["g"])
        assert _built(catalog) == {("t", "g"): ("counts",)}

    def test_planning_reads_only_the_columns_the_query_references(self, tiny_tpcds):
        from repro import QuickrPlanner, col, scan
        from repro.algebra.aggregates import sum_

        query = (
            scan(tiny_tpcds, "store_sales")
            .where(col("ss_quantity") > 10)
            .groupby("ss_store_sk")
            .agg(sum_(col("ss_net_profit"), "profit"))
            .build("single")
        )
        planner = QuickrPlanner(tiny_tpcds)
        planner.plan_baseline(query)
        planner.plan(query)
        referenced = {"ss_quantity", "ss_store_sk", "ss_net_profit"}
        touched = {column for _, column in _built(planner.catalog)}
        assert planner.catalog.collected_tables() == ("store_sales",)
        assert touched and touched <= referenced
        assert not planner.catalog.stats("store_sales")._set_distinct_cache

    def test_statistics_are_built_under_a_collect_span(self, db):
        from repro.obs.trace import Tracer, pop_override, push_override

        catalog = Catalog(db)
        partitions = PartitionCatalog(db)
        tracer = Tracer()
        previous = push_override(tracer)
        try:
            catalog.value_skew("t", "x")
            catalog.value_skew("t", "x")
            catalog.distinct("t", ["g", "k"])
            catalog.distinct("t", ["g"])
            partitions.summaries("t", 4)
            partitions.summaries("t", 4)
        finally:
            pop_override(previous)
        spans = [s for s in tracer.find("catalog.collect")]
        # One span per (table, column, partition count), not per partition.
        assert [
            (s.attributes["column"], s.attributes["statistic"], s.attributes["partitions"])
            for s in spans
        ] == [
            ("x", "moments", 1),
            ("g,k", "set_distinct", 1),
            ("g", "counts", 1),
            ("k", "counts", 4),
            ("g", "counts", 4),
            ("x", "counts", 4),
            ("label", "counts", 4),
        ]
        assert all(s.attributes["table"] == "t" and s.attributes["rows"] == 10_000 for s in spans)


def test_statistics_never_decode_a_coded_column(monkeypatch, rng):
    """Statistics of a dictionary-coded column are counted on its codes:
    only the dictionary entries a summary names (min, max, value set,
    heavy-hitter keys) are ever turned into strings, never a row."""
    db = Database()
    db.register(Table("t", {"s": rng.choice(np.array(["ash", "birch", "cedar"]), 5_000),
                            "i": rng.integers(0, 100, 5_000)}))
    decoded, column = [], Table.column

    def counting(self, column_name, rows=None):
        values = column(self, column_name, rows)
        if self.dictionary(column_name) is not None:
            decoded.append(len(values))
        return values

    monkeypatch.setattr(Table, "column", counting)
    catalog = Catalog(db)
    stats = catalog.stats("t").column("s")
    assert stats.distinct == 3
    assert set(stats.heavy_hitters) == {"ash", "birch", "cedar"}
    assert catalog.value_skew("t", "s") == 0.0
    assert catalog.distinct("t", ["s", "i"]) > 3
    # A coded cluster column is no range to cut: round-robin, still no decode.
    summaries = PartitionCatalog(db, cluster_columns={"t": "s"}).summaries("t", 4)
    monkeypatch.undo()

    assert decoded == []
    for summary in summaries:
        column_summary = summary.columns["s"]
        assert (column_summary.min_value, column_summary.max_value) == ("ash", "cedar")
        assert column_summary.values == ("ash", "birch", "cedar")
        assert all(type(v) is str for v in column_summary.heavy_hitters)
