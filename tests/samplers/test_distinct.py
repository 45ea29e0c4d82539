"""Unit tests for the distinct (stratified) sampler."""

import collections
import math

import numpy as np
import pytest

from repro.algebra.expressions import Expr, Func, col
from repro.engine.keys import group_codes
from repro.engine.partitions import HASH, Partitioner
from repro.engine.table import WEIGHT_COLUMN, Table
from repro.errors import SamplerError
from repro.samplers.distinct import DistinctSpec, stratum_codes


@pytest.fixture()
def skewed_table(rng):
    """A table with strata of very different sizes."""
    keys = np.concatenate(
        [
            np.zeros(5, dtype=int),        # tiny stratum: below delta
            np.full(40, 1),                # reservoir regime
            np.full(5_000, 2),             # bernoulli regime
            rng.integers(3, 23, 2_000),    # medium strata
        ]
    )
    rng.shuffle(keys)
    return Table("t", {"k": keys, "x": rng.exponential(5.0, len(keys))})


class TestStratificationGuarantee:
    def test_min_rows_per_stratum(self, skewed_table):
        spec = DistinctSpec(["k"], delta=10, p=0.05, seed=1)
        out = spec.apply(skewed_table)
        kept = collections.Counter(out.column("k").tolist())
        original = collections.Counter(skewed_table.column("k").tolist())
        for key, freq in original.items():
            assert kept[key] >= min(10, freq), f"stratum {key}"

    def test_small_strata_kept_entirely_with_weight_one(self, skewed_table):
        spec = DistinctSpec(["k"], delta=10, p=0.05, seed=1)
        out = spec.apply(skewed_table)
        mask = out.column("k") == 0  # the 5-row stratum
        assert mask.sum() == 5
        assert np.all(out.weights()[mask] == 1.0)

    def test_large_strata_thinned(self, skewed_table):
        spec = DistinctSpec(["k"], delta=10, p=0.05, seed=1)
        out = spec.apply(skewed_table)
        big = (out.column("k") == 2).sum()
        assert big < 5_000 * 0.2  # heavily reduced

    def test_no_strata_missed(self, skewed_table):
        out = DistinctSpec(["k"], delta=3, p=0.01, seed=2).apply(skewed_table)
        assert set(np.unique(out.column("k"))) == set(np.unique(skewed_table.column("k")))


class TestUnbiasedness:
    def test_sum_unbiased_across_seeds(self, skewed_table):
        truth = skewed_table.column("x").sum()
        estimates = []
        for seed in range(40):
            out = DistinctSpec(["k"], delta=10, p=0.1, seed=seed).apply(skewed_table)
            estimates.append(float((out.weights() * out.column("x")).sum()))
        standard_error = np.std(estimates) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) - truth) < 4 * standard_error + 0.01 * truth

    def test_per_stratum_count_unbiased(self, skewed_table):
        """HT count per stratum should recover the stratum frequency."""
        truth = collections.Counter(skewed_table.column("k").tolist())
        sums = collections.Counter()
        trials = 30
        for seed in range(trials):
            out = DistinctSpec(["k"], delta=10, p=0.1, seed=seed).apply(skewed_table)
            for key, weight in zip(out.column("k").tolist(), out.weights().tolist()):
                sums[key] += weight
        for key in truth:
            assert sums[key] / trials == pytest.approx(truth[key], rel=0.25)


class TestFunctionStrata:
    def test_stratify_on_expression(self, rng):
        """The paper's skewed-SUM example: stratify on ceil(Y/100)."""
        y = np.concatenate([np.ones(1000), np.full(3, 1000.0)])
        rng.shuffle(y)
        t = Table("t", {"y": y})
        bucket = Func("bucket", lambda v: np.ceil(v / 100.0), [col("y")])
        out = DistinctSpec([bucket], delta=2, p=0.05, seed=3).apply(t)
        # All three outlier values must be present.
        assert (out.column("y") == 1000.0).sum() == 3

    def test_column_names_expands_expressions(self):
        bucket = Func("bucket", lambda v: v, [col("y")])
        spec = DistinctSpec(["k", bucket], delta=2, p=0.1)
        assert spec.column_names() == ("k", "y")


class TestValidation:
    def test_needs_columns(self):
        with pytest.raises(SamplerError):
            DistinctSpec([], delta=1, p=0.1)

    def test_positive_delta(self):
        with pytest.raises(SamplerError):
            DistinctSpec(["k"], delta=0, p=0.1)

    def test_probability_bounds(self):
        with pytest.raises(SamplerError):
            DistinctSpec(["k"], delta=1, p=2.0)

    def test_empty_table(self):
        t = Table("t", {"k": np.array([], dtype=int)})
        out = DistinctSpec(["k"], delta=1, p=0.5).apply(t)
        assert out.num_rows == 0


class TestForPartition:
    """The degree-of-parallelism correction a parallel run applies: the
    union of ``D`` partition-local samples still passes ``min(delta, freq)``
    rows of every stratum."""

    DELTA = 40

    @pytest.fixture()
    def shuffled_table(self, rng):
        """30 strata of ~9 to ~260 rows in random order: some below delta,
        some near it, where an uneven spread over partitions is what the
        per-instance slack has to absorb."""
        n = 4_000
        share = np.arange(1, 31) / np.arange(1, 31).sum()
        return Table("t", {"k": rng.choice(30, n, p=share), "x": rng.exponential(3.0, n)})

    @pytest.mark.parametrize("aligned", [False, True], ids=["round-robin", "hash"])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_union_keeps_the_guarantee(self, shuffled_table, degree, aligned):
        # One reservoir row and a rare Bernoulli pass: the frequency region
        # alone has to carry the guarantee.
        spec = DistinctSpec(["k"], delta=self.DELTA, p=0.01, seed=3, reservoir_size=1)
        partitioner = Partitioner(degree, HASH, ("k",)) if aligned else Partitioner(degree)
        parts = partitioner.split(shuffled_table)
        union = Table.concat(
            [spec.for_partition(i, degree, aligned).apply(part) for i, part in enumerate(parts)]
        )
        kept = collections.Counter(union.column("k").tolist())
        original = collections.Counter(shuffled_table.column("k").tolist())
        for key, freq in original.items():
            assert kept[key] >= min(self.DELTA, freq), f"stratum {key}"

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_delta(self, degree):
        spec = DistinctSpec(["k"], delta=self.DELTA, p=0.05, seed=3)
        assert spec.for_partition(0, degree, aligned=True).delta == self.DELTA
        assert spec.for_partition(0, degree, aligned=False).delta == 2 * math.ceil(self.DELTA / degree)

    def test_one_partition_is_the_spec_itself(self):
        spec = DistinctSpec(["k"], delta=self.DELTA, p=0.05, seed=3)
        assert spec.for_partition(0, 1, aligned=False) is spec


class TestStratumCodes:
    def test_codes_group_equal_rows(self):
        t = Table("t", {"a": np.array([1, 2, 1]), "b": np.array([9, 9, 9])})
        codes = stratum_codes(t, ["a", "b"])
        assert codes[0] == codes[2]
        assert codes[0] != codes[1]


def _sort_based_apply(spec: DistinctSpec, table: Table) -> Table:
    """The sampler as it was before ranks came from count offsets: a stable
    int64 argsort of the whole input, per-row frequencies, strata numbered
    by ``group_codes`` and every column gathered by the mask. Kept as the
    reference the shipped ``apply`` must match bit for bit."""
    n = table.num_rows
    rng = np.random.default_rng(spec.seed)
    arrays = [
        np.asarray(c.evaluate(table)) if isinstance(c, Expr) else table.key_column(c)
        for c in spec.columns
    ]
    codes = group_codes(arrays)[0]
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.empty(n, dtype=bool)
    boundaries[0] = True
    boundaries[1:] = sorted_codes[1:] != sorted_codes[:-1]
    group_start = np.maximum.accumulate(np.where(boundaries, np.arange(n), 0))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - group_start
    freq = np.bincount(codes, minlength=codes.max() + 1)[codes]
    mask = np.zeros(n, dtype=bool)
    weights = np.ones(n, dtype=np.float64)
    frequency_pass = rank < spec.delta
    mask |= frequency_pass
    candidate = ~frequency_pass
    cand_count = freq - spec.delta
    reservoir_region = spec.reservoir_size / spec.p
    small = candidate & (cand_count <= reservoir_region)
    if small.any():
        u = rng.random(n)
        small_idx = np.flatnonzero(small)
        sub_sorted = small_idx[np.lexsort((u[small_idx], codes[small_idx]))]
        sub_codes = codes[sub_sorted]
        sub_bound = np.empty(len(sub_sorted), dtype=bool)
        sub_bound[0] = True
        sub_bound[1:] = sub_codes[1:] != sub_codes[:-1]
        sub_start = np.maximum.accumulate(np.where(sub_bound, np.arange(len(sub_sorted)), 0))
        sub_rank = np.arange(len(sub_sorted)) - sub_start
        chosen = sub_sorted[sub_rank < np.minimum(spec.reservoir_size, cand_count[sub_sorted])]
        mask[chosen] = True
        weights[chosen] = cand_count[chosen] / np.minimum(spec.reservoir_size, cand_count[chosen])
    large = candidate & (cand_count > reservoir_region)
    if large.any():
        chosen = large & (rng.random(n) < spec.p)
        mask[chosen] = True
        weights[chosen] = 1.0 / spec.p
    out = {name: table.key_column(name)[mask] for name in table.column_names}
    out[WEIGHT_COLUMN] = table.weights()[mask] * weights[mask] if table.has_weights() else weights[mask]
    return Table(table.name, out, table.dictionaries())


def assert_matches_reference(spec: DistinctSpec, table: Table) -> Table:
    got, want = spec.apply(table), _sort_based_apply(spec, table)
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert got.key_column(name).dtype == want.key_column(name).dtype, name
        np.testing.assert_array_equal(got.column(name), want.column(name), err_msg=name)
    return got


class TestMatchesSortBasedReference:
    """Same RNG draws in the same order: rows and weights are bit-identical."""

    @pytest.mark.parametrize(
        "strata, rows",
        [(1, 500), (7, 3_000), (200, 20_000), (300, 20_000), (5_000, 30_000), (70_000, 90_000)],
    )
    @pytest.mark.parametrize("delta, p, reservoir", [(1, 0.5, 1), (3, 0.1, 10), (40, 0.02, 4)])
    def test_rows_and_weights(self, strata, rows, delta, p, reservoir):
        gen = np.random.default_rng(strata * 31 + delta)
        # Zipf-ish sizes: a few strata in the Bernoulli regime, many in the
        # reservoir regime, a tail below delta.
        keys = np.minimum(gen.zipf(1.3, rows) - 1, strata - 1) * 3 - 5
        table = Table("t", {"k": keys, "x": gen.normal(size=rows)})
        spec = DistinctSpec(["k"], delta=delta, p=p, seed=11, reservoir_size=reservoir)
        assert_matches_reference(spec, table)

    def test_expression_and_multi_column_strata(self, skewed_table):
        spec = DistinctSpec(
            ["k", Func("bucket", lambda x: np.floor(x / 4.0), [col("x")])],
            delta=2, p=0.2, seed=5, reservoir_size=3,
        )
        assert_matches_reference(spec, skewed_table)

    def test_expression_strata_over_a_nan_column(self, skewed_table):
        """Every NaN bucket is a stratum of its own (the sort path)."""
        x = skewed_table.column("x").copy()
        x[::7] = np.nan
        spec = DistinctSpec(
            ["k", Func("bucket", lambda v: np.floor(v / 4.0), [col("x")])],
            delta=2, p=0.2, seed=5, reservoir_size=3,
        )
        out = assert_matches_reference(spec, skewed_table.with_columns({"x": x}))
        assert np.isnan(out.column("x")).sum() == np.isnan(x).sum()  # delta >= 1 keeps each

    def test_weighted_input(self, skewed_table):
        """Upstream weights multiply into the sampler's own."""
        gen = np.random.default_rng(2)
        table = skewed_table.with_columns(
            {WEIGHT_COLUMN: 1.0 / gen.uniform(0.1, 1.0, skewed_table.num_rows)}
        )
        spec = DistinctSpec(["k"], delta=3, p=0.1, seed=4, reservoir_size=5)
        assert_matches_reference(spec, table)

    @pytest.mark.parametrize("regime", ["reservoir", "bernoulli"])
    def test_one_regime_only(self, regime):
        """S / p = 100: strata of under 103 rows keep a reservoir, larger
        ones are Bernoulli-sampled; strata of at most delta rows have no
        candidates at all. One regime's draw is then never made."""
        gen = np.random.default_rng(9)
        if regime == "reservoir":
            sizes = gen.integers(1, 100, 60)
        else:
            sizes = np.concatenate([gen.integers(200, 2_000, 8), [1, 2, 3]])
        keys = np.repeat(np.arange(len(sizes)) * 7, sizes)
        gen.shuffle(keys)
        table = Table("t", {"k": keys, "x": gen.normal(size=len(keys))})
        spec = DistinctSpec(["k"], delta=3, p=0.1, seed=7, reservoir_size=10)
        weights = assert_matches_reference(spec, table).weights()
        if regime == "reservoir":
            assert not (weights == 10.0).any() and (weights > 1.0).any()
        else:
            assert set(np.unique(weights)) == {1.0, 10.0}
