"""Unit tests for the parallel input partitioners."""

import numpy as np
import pytest

from repro.engine.table import WEIGHT_COLUMN, Table, rowid_column_name
from repro.errors import PlanError
from repro.parallel import HASH, ROUND_ROBIN, Partitioner


def make(n=100):
    return Table("t", {"k": np.arange(n) % 11, "v": np.arange(n, dtype=np.float64)})


class TestRoundRobin:
    def test_exactly_n_partitions_cover_input(self):
        parts = Partitioner(4).split(make(103))
        assert len(parts) == 4
        assert sum(p.num_rows for p in parts) == 103
        merged = sorted(np.concatenate([p.column("v") for p in parts]).tolist())
        assert merged == list(range(103))

    def test_pads_with_empty_partitions(self):
        parts = Partitioner(8).split(make(3))
        assert len(parts) == 8
        assert sum(p.num_rows for p in parts) == 3
        assert all(p.num_rows == 0 for p in parts[3:])

    def test_single_partition_is_identity(self):
        t = make()
        assert Partitioner(1).split(t)[0] is t

    def test_assignments_deal_by_position(self):
        a = Partitioner(3).assignments(make(7))
        np.testing.assert_array_equal(a, [0, 1, 2, 0, 1, 2, 0])

    def test_describe(self):
        assert Partitioner(4).describe() == "round-robin x4"


class TestHash:
    def test_exactly_n_partitions_cover_input(self):
        parts = Partitioner(4, HASH, ("k",)).split(make(200))
        assert len(parts) == 4
        merged = sorted(np.concatenate([p.column("v") for p in parts]).tolist())
        assert merged == list(range(200))

    def test_equal_keys_share_a_partition(self):
        t = make(300)
        assignments = Partitioner(4, HASH, ("k",)).assignments(t)
        for key in range(11):
            assert len(set(assignments[t.column("k") == key].tolist())) == 1

    def test_describe(self):
        assert Partitioner(4, HASH, ("k", "v")).describe() == "hash(k,v)x4"


class TestReservedColumnsRideAlong:
    def test_weights_and_lineage_preserved(self):
        n = 90
        gen = np.random.default_rng(5)
        t = make(n).with_columns(
            {
                WEIGHT_COLUMN: gen.uniform(1, 4, n),
                rowid_column_name(0): np.arange(n, dtype=np.int64),
            }
        )
        total = float((t.weights() * t.column("v")).sum())
        for part in (Partitioner(4), Partitioner(4, HASH, ("k",))):
            pieces = part.split(t)
            assert all(p.has_weights() and p.has_lineage() for p in pieces)
            split_total = sum(float((p.weights() * p.column("v")).sum()) for p in pieces)
            np.testing.assert_allclose(split_total, total)


class TestCoPartitioners:
    def test_matching_keys_land_together(self):
        gen = np.random.default_rng(9)
        left = Table("l", {"a": gen.integers(0, 50, 400)})
        right = Table("r", {"b": gen.integers(0, 50, 150)})
        # Two hash partitioners sharing a count and seed: the hash is keyed by
        # position in the key list, not by column name.
        pl, pr = Partitioner(4, HASH, ("a",), seed=3), Partitioner(4, HASH, ("b",), seed=3)
        la, ra = pl.assignments(left), pr.assignments(right)
        route = {}
        for key, dest in zip(left.column("a"), la):
            route.setdefault(int(key), set()).add(int(dest))
        for key, dest in zip(right.column("b"), ra):
            route.setdefault(int(key), set()).add(int(dest))
        assert all(len(dests) == 1 for dests in route.values())


class TestValidation:
    def test_rejects_zero_partitions(self):
        with pytest.raises(PlanError):
            Partitioner(0)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(PlanError):
            Partitioner(2, "range")

    def test_hash_needs_columns(self):
        with pytest.raises(PlanError):
            Partitioner(2, HASH)

    def test_round_robin_constant_exported(self):
        assert Partitioner(2).strategy == ROUND_ROBIN
