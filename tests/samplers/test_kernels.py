"""The sampler kernels' shortcuts against the long way round: the integer
threshold against the float compare, per-value universe decisions against
per-row hashes, the distinct sampler's tie fallback against ``lexsort``,
and decimal column-set counts against float ones."""

import numpy as np
import pytest

from repro.engine.table import Database, Table
from repro.samplers.distinct import _first_rows, _smallest_draws
from repro.samplers.hashing import hash_rows, hash_threshold, keep_rows, mix64
from repro.stats.catalog import Catalog, exact_distinct_multi


class TestHashThreshold:
    @pytest.mark.parametrize("p", [1.0, 0.5, 0.1, 0.07, 1e-17, 2.0**-64, 0.999999999])
    def test_is_the_first_hash_the_float_compare_drops(self, p):
        x0 = int(hash_threshold(p))
        limit = p * float(2**64)
        as_float = np.array([max(x0 - 1, 0), x0], dtype=np.uint64).astype(np.float64)
        assert as_float[1] >= limit
        assert x0 == 0 or as_float[0] < limit

    def test_p_one_drops_the_hashes_that_round_to_two_to_the_64(self):
        assert int(hash_threshold(1.0)) == 2**64 - 1024

    def test_random_hashes_agree_with_the_float_compare(self, rng):
        hashes = rng.integers(0, 2**64, 20_000, dtype=np.uint64)
        for p in (0.3, 0.07, 0.5):
            want = hashes.astype(np.float64) < p * float(2**64)
            np.testing.assert_array_equal(hashes < hash_threshold(p), want)


class TestKeepRows:
    """One key column decided per dictionary entry or span slot keeps the
    rows the per-row hash keeps."""

    @pytest.fixture()
    def table(self, rng):
        n = 5_000
        db = Database()
        db.register(
            Table(
                "t",
                {
                    "s": rng.choice(np.array([f"w{i}" for i in range(40)]), n),
                    "dense": rng.integers(-40, 400, n),
                    "small": rng.integers(-20, 20, n).astype(np.int8),
                    "sparse": rng.integers(-(2**62), 2**62, n),
                    "wide": rng.integers(0, 2**64, n, dtype=np.uint64),
                    "f": np.round(rng.normal(0, 5, n), 1),
                },
            )
        )
        return db.table("t")

    @pytest.mark.parametrize(
        "names", [("s",), ("dense",), ("small",), ("sparse",), ("wide",), ("f",), ("s", "dense")]
    )
    @pytest.mark.parametrize("p", [0.3, 0.6])
    def test_same_rows_as_hash_rows(self, table, names, p):
        want = hash_rows(table, names, 4) < hash_threshold(p)
        got = keep_rows(table, names, 4, p)
        assert 0 < want.sum() < table.num_rows
        np.testing.assert_array_equal(got, want)

    def test_negative_integers_hash_as_their_uint64_wrap(self):
        values = np.array([-5, -1, 0, 7], dtype=np.int64)
        np.testing.assert_array_equal(mix64(values, 3), mix64(values.astype(np.uint64), 3))


class TestDistinctKernels:
    def test_first_rows_are_the_first_delta_of_each_over_full_stratum(self, rng):
        # The last case's keys (strata * n > 2**32) do not fit uint32.
        cases = ((5, 2_000, 3), (300, 30_000, 30), (40, 60_000, 7), (100_000, 50_000, 2))
        for strata, n, delta in cases:
            codes = np.minimum(rng.zipf(1.4, n) - 1, strata - 1)
            counts = np.bincount(codes, minlength=strata)
            over = counts > delta
            want = [
                np.flatnonzero(codes == s)[:delta] for s in np.flatnonzero(over)
            ]
            got = _first_rows(codes, counts, over, delta)
            np.testing.assert_array_equal(np.sort(got), np.sort(np.concatenate(want)))

    def test_smallest_draws_with_ties_match_lexsort(self, rng):
        """Equal draws (and strata + draws that round together) take the
        lexsort, an earlier row first."""
        rows = np.sort(rng.choice(10_000, 3_000, replace=False))
        strata = rng.integers(0, 50, len(rows))
        draws = rng.integers(0, 4, len(rows)) / 4.0  # many ties
        keep = rng.integers(1, 8, 50)
        order = np.lexsort((draws, strata))
        runs = np.bincount(strata, minlength=50)
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(runs) - runs, runs)
        want = np.sort(rows[order[rank < keep[strata[order]]]])
        np.testing.assert_array_equal(_smallest_draws(rows, strata, draws, runs, keep), want)

    def test_smallest_draws_without_ties(self, rng):
        rows = np.arange(5_000)
        strata = rng.integers(0, 400, len(rows))
        draws = rng.random(len(rows))
        keep = np.full(400, 3)
        order = np.lexsort((draws, strata))
        runs = np.bincount(strata, minlength=400)
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(runs) - runs, runs)
        want = np.sort(rows[order[rank < keep[strata[order]]]])
        np.testing.assert_array_equal(_smallest_draws(rows, strata, draws, runs, keep), want)


class TestDecimalColumnSets:
    """A declared decimal column set is counted in whole units: the same
    count as over the float values."""

    @pytest.fixture()
    def columns(self, rng):
        n = 20_000
        a = np.round(rng.uniform(0, 300, n), 2)
        b = np.round(rng.exponential(40, n), 2)
        a[::97] = np.nan
        b[5] = -0.0
        b[6] = 0.0
        return a, b

    def test_units_count_as_the_floats_do(self, columns):
        a, b = columns
        floats = exact_distinct_multi([a, b])
        assert exact_distinct_multi([a, b], [2, 2]) == floats
        assert exact_distinct_multi([a, b], [2, None]) == floats
        assert exact_distinct_multi([a, np.arange(len(a)) % 7], [2, None]) == exact_distinct_multi(
            [a, np.arange(len(a)) % 7]
        )

    def test_catalog_reads_the_declared_scales(self, columns):
        a, b = columns
        db = Database()
        db.register(Table("t", {"a": a, "b": b}), decimals={"a": 2, "b": 2})
        assert Catalog(db).distinct("t", ["a", "b"]) == exact_distinct_multi([a, b])
