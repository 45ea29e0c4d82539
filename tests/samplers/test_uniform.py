"""Unit tests for the uniform (Bernoulli) sampler."""

import numpy as np
import pytest

from repro.engine.partitions import HASH, Partitioner
from repro.engine.table import Table, rowid_column_name
from repro.errors import SamplerError
from repro.samplers.uniform import UniformSpec


class TestBasics:
    def test_fraction_close_to_p(self, small_table):
        out = UniformSpec(0.3, seed=1).apply(small_table)
        assert out.num_rows / small_table.num_rows == pytest.approx(0.3, abs=0.03)

    def test_weights_are_inverse_p(self, small_table):
        out = UniformSpec(0.25, seed=1).apply(small_table)
        assert np.all(out.weights() == 4.0)

    def test_deterministic_for_seed(self, small_table):
        a = UniformSpec(0.2, seed=9).apply(small_table)
        b = UniformSpec(0.2, seed=9).apply(small_table)
        np.testing.assert_array_equal(a.column("x"), b.column("x"))

    def test_different_seeds_differ(self, small_table):
        a = UniformSpec(0.2, seed=1).apply(small_table)
        b = UniformSpec(0.2, seed=2).apply(small_table)
        assert a.num_rows != b.num_rows or not np.array_equal(a.column("x"), b.column("x"))

    def test_p_validation(self):
        with pytest.raises(SamplerError):
            UniformSpec(0.0)
        with pytest.raises(SamplerError):
            UniformSpec(1.5)

    def test_p_one_keeps_everything(self, small_table):
        out = UniformSpec(1.0, seed=1).apply(small_table)
        assert out.num_rows == small_table.num_rows

    def test_expected_fraction(self):
        assert UniformSpec(0.07).expected_fraction() == 0.07

    def test_key_includes_params(self):
        assert UniformSpec(0.1, seed=1).key() != UniformSpec(0.1, seed=2).key()
        assert UniformSpec(0.1, seed=1).key() != UniformSpec(0.2, seed=1).key()


class TestEstimation:
    def test_sum_estimate_unbiased(self, small_table):
        """Mean of HT estimates over many seeds approaches the true sum."""
        truth = small_table.column("x").sum()
        estimates = []
        for seed in range(40):
            out = UniformSpec(0.1, seed=seed).apply(small_table)
            estimates.append(float((out.weights() * out.column("x")).sum()))
        assert np.mean(estimates) == pytest.approx(truth, rel=0.02)

    def test_count_estimate_unbiased(self, small_table):
        estimates = []
        for seed in range(40):
            out = UniformSpec(0.1, seed=seed).apply(small_table)
            estimates.append(float(out.weights().sum()))
        assert np.mean(estimates) == pytest.approx(small_table.num_rows, rel=0.02)


def with_lineage(table: Table, scan_index: int = 0) -> Table:
    return table.with_columns(
        {rowid_column_name(scan_index): np.arange(table.num_rows, dtype=np.int64)}
    )


class TestCounterBasedDecisions:
    """With lineage, per-row decisions depend only on row identity — the
    property that makes a partition-parallel run bit-identical to serial."""

    def test_partition_invariance(self, small_table):
        spec = UniformSpec(0.2, seed=11)
        whole = spec.apply(with_lineage(small_table))
        rid = rowid_column_name(0)
        pieces = []
        for part in Partitioner(4).split(with_lineage(small_table)):
            pieces.append(spec.apply(part))
        union = Table.concat(pieces).sort_by([rid])
        np.testing.assert_array_equal(whole.column(rid), union.column(rid))
        np.testing.assert_array_equal(whole.column("x"), union.column("x"))

    def test_hash_partition_invariance(self, small_table):
        spec = UniformSpec(0.15, seed=3)
        lineaged = with_lineage(small_table)
        whole = spec.apply(lineaged)
        rid = rowid_column_name(0)
        pieces = [spec.apply(p) for p in Partitioner(3, HASH, ("g",)).split(lineaged)]
        union = Table.concat(pieces).sort_by([rid])
        np.testing.assert_array_equal(whole.column(rid), union.column(rid))

    def test_fraction_still_close_to_p(self, small_table):
        out = UniformSpec(0.3, seed=1).apply(with_lineage(small_table))
        assert out.num_rows / small_table.num_rows == pytest.approx(0.3, abs=0.03)

    def test_seed_still_matters_with_lineage(self, small_table):
        a = UniformSpec(0.2, seed=1).apply(with_lineage(small_table))
        b = UniformSpec(0.2, seed=2).apply(with_lineage(small_table))
        assert not np.array_equal(a.column(rowid_column_name(0)), b.column(rowid_column_name(0)))

    def test_sum_estimate_unbiased_with_lineage(self, small_table):
        truth = small_table.column("x").sum()
        lineaged = with_lineage(small_table)
        estimates = []
        for seed in range(80):
            out = UniformSpec(0.1, seed=seed).apply(lineaged)
            estimates.append(float((out.weights() * out.column("x")).sum()))
        assert np.mean(estimates) == pytest.approx(
            truth, abs=4 * np.std(estimates) / np.sqrt(80)
        )
