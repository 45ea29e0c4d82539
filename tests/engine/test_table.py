"""Unit tests for the columnar Table and Database."""

import numpy as np
import pytest

from repro.engine.partitions import HASH, Partitioner
from repro.engine.table import WEIGHT_COLUMN, Database, Table, rowid_column_name
from repro.errors import CatalogError, PlanError, SchemaError


def make(n=10):
    return Table("t", {"a": np.arange(n), "b": np.arange(n) * 2.0})


class TestConstruction:
    def test_basic(self):
        t = make()
        assert t.num_rows == 10
        assert t.column_names == ("a", "b")

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {"a": np.arange(3), "b": np.arange(4)})

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {})

    def test_2d_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {"a": np.zeros((2, 2))})

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            make().column("zzz")


class TestWeights:
    def test_default_weights_are_ones(self):
        np.testing.assert_array_equal(make(3).weights(), [1.0, 1.0, 1.0])

    def test_weight_column_recognized(self):
        t = make(3).with_columns({WEIGHT_COLUMN: np.array([2.0, 2.0, 2.0])})
        assert t.has_weights()
        assert WEIGHT_COLUMN not in t.data_column_names()

    def test_project_preserves_weights(self):
        t = make(3).with_columns({WEIGHT_COLUMN: np.full(3, 4.0)})
        p = t.project(["a"])
        assert p.has_weights()
        np.testing.assert_array_equal(p.weights(), [4.0, 4.0, 4.0])


class TestRowOps:
    def test_take_mask(self):
        t = make()
        out = t.take(t.column("a") % 2 == 0)
        assert out.num_rows == 5

    def test_take_indices(self):
        out = make().take(np.array([1, 3]))
        np.testing.assert_array_equal(out.column("a"), [1, 3])

    @pytest.mark.parametrize("rows", [0, 1, 57])
    @pytest.mark.parametrize("density", ["none", "sparse", "half", "all"])
    def test_take_mask_is_take_of_its_indices(self, rows, density):
        """A mask is gathered as its row indices; the result is what
        masking every stored column gives, codes, weights and lineage too."""
        rng = np.random.default_rng(rows)
        table = Table(
            "t",
            {
                "s": rng.choice(np.array(["x", "yy", ""]), rows),
                "f": rng.normal(size=rows),
                "i": rng.integers(-5, 5, rows).astype(np.int32),
                WEIGHT_COLUMN: rng.random(rows) + 1.0,
                rowid_column_name(0): np.arange(rows, dtype=np.int64),
            },
        ).encoded()
        assert table.dictionary("s") is not None
        fraction = {"none": 0.0, "sparse": 0.1, "half": 0.5, "all": 1.0}[density]
        mask = rng.random(rows) < fraction
        by_mask, by_index = table.take(mask), table.take(np.flatnonzero(mask))
        for out in (by_mask, by_index):
            assert out.column_names == table.column_names
            assert out.dictionary("s") is table.dictionary("s")
            for name in table.column_names:
                want = table.key_column(name)[mask]
                assert out.key_column(name).dtype == want.dtype
                np.testing.assert_array_equal(out.key_column(name), want)

    def test_head(self):
        assert make().head(3).num_rows == 3
        assert make(2).head(5).num_rows == 2

    def test_sort_by(self):
        t = Table("t", {"a": np.array([3, 1, 2])})
        np.testing.assert_array_equal(t.sort_by(["a"]).column("a"), [1, 2, 3])
        np.testing.assert_array_equal(t.sort_by(["a"], descending=True).column("a"), [3, 2, 1])

    def test_sort_by_multiple_keys(self):
        t = Table("t", {"a": np.array([1, 1, 0]), "b": np.array([2, 1, 9])})
        out = t.sort_by(["a", "b"])
        np.testing.assert_array_equal(out.column("b"), [9, 1, 2])

    def test_rename_columns(self):
        t = make().rename_columns({"a": "alpha"})
        assert "alpha" in t.column_names


class TestPartitionConcat:
    def test_partition_roundtrip(self):
        t = make(17)
        parts = Partitioner(4).split(t)
        assert len(parts) == 4
        assert sum(p.num_rows for p in parts) == 17
        merged = Table.concat(parts)
        assert sorted(merged.column("a").tolist()) == list(range(17))

    def test_partition_one(self):
        assert len(Partitioner(1).split(make())) == 1

    def test_concat_schema_mismatch(self):
        with pytest.raises(SchemaError):
            Table.concat([make(), Table("u", {"x": np.arange(2)})])

    def test_concat_empty_rejected(self):
        with pytest.raises(SchemaError):
            Table.concat([])

    def test_hash_partition_covers_input(self):
        t = Table("t", {"k": np.arange(100) % 7, "v": np.arange(100)})
        parts = Partitioner(4, HASH, ("k",)).split(t)
        assert sum(p.num_rows for p in parts) == 100
        merged = Table.concat([p for p in parts if p.num_rows])
        assert sorted(merged.column("v").tolist()) == list(range(100))

    def test_hash_partition_colocates_equal_keys(self):
        t = Table("t", {"k": np.arange(200) % 13, "v": np.arange(200)})
        assignments = Partitioner(4, HASH, ("k",)).assignments(t)
        # same key value -> same partition index, always
        for key in range(13):
            assert len(set(assignments[t.column("k") == key].tolist())) == 1

    def test_hash_partition_seed_changes_layout(self):
        t = Table("t", {"k": np.arange(1000)})
        a = Partitioner(4, HASH, ("k",), seed=0).assignments(t)
        b = Partitioner(4, HASH, ("k",), seed=1).assignments(t)
        assert not np.array_equal(a, b)

    def test_hash_partition_requires_columns(self):
        with pytest.raises(PlanError):
            Partitioner(4, HASH, ())

    def test_partition_preserves_weight_invariant(self):
        gen = np.random.default_rng(0)
        t = Table("t", {"x": gen.normal(size=101)}).with_columns(
            {WEIGHT_COLUMN: gen.uniform(1, 5, 101)}
        )
        total = float((t.weights() * t.column("x")).sum())
        for partitioner in (Partitioner(4), Partitioner(4, HASH, ("x",))):
            parts = partitioner.split(t)
            split_total = sum(float((p.weights() * p.column("x")).sum()) for p in parts)
            np.testing.assert_allclose(split_total, total)


class TestLineage:
    def test_lineage_columns_recognized(self):
        t = make(5).with_columns({rowid_column_name(0): np.arange(5)})
        assert t.has_lineage()
        assert t.lineage_column_names() == (rowid_column_name(0),)
        assert rowid_column_name(0) not in t.data_column_names()

    def test_lineage_names_sort_in_scan_order(self):
        names = [rowid_column_name(i) for i in (2, 0, 11, 1)]
        assert sorted(names) == [rowid_column_name(i) for i in (0, 1, 2, 11)]

    def test_project_preserves_lineage(self):
        t = make(4).with_columns({rowid_column_name(1): np.arange(4)})
        assert t.project(["a"]).has_lineage()

    def test_drop_lineage(self):
        t = make(4).with_columns({rowid_column_name(0): np.arange(4)})
        out = t.drop_lineage()
        assert not out.has_lineage()
        assert out.column_names == ("a", "b")

    def test_partition_carries_lineage(self):
        t = make(10).with_columns({rowid_column_name(0): np.arange(10)})
        parts = Partitioner(3).split(t)
        recovered = np.sort(np.concatenate([p.column(rowid_column_name(0)) for p in parts]))
        np.testing.assert_array_equal(recovered, np.arange(10))


class TestRowsInterface:
    def test_iter_rows(self):
        rows = list(make(3).iter_rows())
        assert rows[0] == (0, 0.0)
        assert len(rows) == 3

    def test_estimated_bytes_positive(self):
        assert make().estimated_bytes() > 0


class TestDatabase:
    def test_register_and_lookup(self):
        db = Database()
        db.register(make())
        assert "t" in db
        assert db.table("t").num_rows == 10
        assert db.columns("t") == ("a", "b")

    def test_missing_table(self):
        with pytest.raises(CatalogError):
            Database().table("nope")

    def test_totals(self):
        db = Database()
        db.register(make())
        assert db.total_rows() == 10
        assert db.total_bytes() > 0
