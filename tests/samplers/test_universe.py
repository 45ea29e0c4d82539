"""Unit tests for the universe sampler — including the paper's core claim:
joining p-universe samples of both inputs IS a p-universe sample of the
join output (exactly, not just statistically, since the subspace is shared).
"""

import numpy as np
import pytest

from repro.engine import operators
from repro.engine.partitions import HASH, Partitioner
from repro.engine.table import Database, Table
from repro.errors import SamplerError
from repro.samplers.hashing import hash_columns
from repro.samplers.universe import UniverseSpec


@pytest.fixture()
def pair(rng):
    n1, n2 = 8_000, 2_000
    left = Table("l", {"k": rng.integers(0, 400, n1), "v": rng.normal(size=n1)})
    right = Table("r", {"j": rng.integers(0, 400, n2), "w": rng.normal(size=n2)})
    return left, right


class TestSubspaceSelection:
    def test_fraction_close_to_p(self, small_table):
        out = UniverseSpec(["k"], 0.25, seed=3).apply(small_table)
        # Fraction of *key values* kept is ~p; row fraction follows since
        # rows are spread evenly over keys.
        kept_keys = len(np.unique(out.column("k")))
        assert kept_keys / 50 == pytest.approx(0.25, abs=0.15)

    def test_all_rows_of_a_kept_key_pass(self, small_table):
        out = UniverseSpec(["k"], 0.3, seed=3).apply(small_table)
        kept = set(np.unique(out.column("k")).tolist())
        for key in kept:
            total = int((small_table.column("k") == key).sum())
            sampled = int((out.column("k") == key).sum())
            assert sampled == total

    def test_deterministic(self, small_table):
        a = UniverseSpec(["k"], 0.2, seed=5).apply(small_table)
        b = UniverseSpec(["k"], 0.2, seed=5).apply(small_table)
        np.testing.assert_array_equal(a.column("x"), b.column("x"))

    def test_decision_depends_only_on_key(self, small_table):
        """Partitionability: decisions are identical across partitions."""
        spec = UniverseSpec(["k"], 0.3, seed=1)
        whole = spec.apply(small_table)
        parts = [spec.apply(p) for p in Partitioner(4).split(small_table)]
        merged = sorted(np.concatenate([p.column("x") for p in parts]).tolist())
        assert merged == sorted(whole.column("x").tolist())

    def test_validation(self):
        with pytest.raises(SamplerError):
            UniverseSpec([], 0.5)
        with pytest.raises(SamplerError):
            UniverseSpec(["k"], 0.0)


class TestJoinEquivalence:
    """sample-then-join == join-then-sample, row for row."""

    def test_exact_equivalence(self, pair):
        left, right = pair
        p, seed = 0.2, 11
        sample_left = UniverseSpec(["k"], p, seed=seed).apply(left)
        sample_right = UniverseSpec(["j"], p, seed=seed, emit_weight=False).apply(right)
        joined_samples = operators.execute_join(sample_left, sample_right, ["k"], ["j"])

        full_join = operators.execute_join(left, right, ["k"], ["j"]).built()
        sampled_join = UniverseSpec(["k"], p, seed=seed).apply(full_join)

        assert joined_samples.num_rows == sampled_join.num_rows
        np.testing.assert_allclose(
            np.sort(joined_samples.column("v")), np.sort(sampled_join.column("v"))
        )

    def test_pair_weight_is_one_over_p(self, pair):
        left, right = pair
        sample_left = UniverseSpec(["k"], 0.25, seed=2).apply(left)
        sample_right = UniverseSpec(["j"], 0.25, seed=2, emit_weight=False).apply(right)
        joined = operators.execute_join(sample_left, sample_right, ["k"], ["j"])
        assert np.all(joined.weights() == pytest.approx(4.0))

    def test_same_subspace_predicate(self):
        a = UniverseSpec(["k"], 0.2, seed=1)
        b = UniverseSpec(["j"], 0.2, seed=1)
        c = UniverseSpec(["j"], 0.3, seed=1)
        d = UniverseSpec(["j"], 0.2, seed=2)
        assert a.same_subspace_as(b)  # names differ, values decide
        assert not a.same_subspace_as(c)
        assert not a.same_subspace_as(d)

    def test_join_sum_estimate_unbiased(self, pair):
        left, right = pair
        truth = operators.execute_join(left, right, ["k"], ["j"]).column("v").sum()
        estimates = []
        for seed in range(60):
            sl = UniverseSpec(["k"], 0.2, seed=seed).apply(left)
            sr = UniverseSpec(["j"], 0.2, seed=seed, emit_weight=False).apply(right)
            joined = operators.execute_join(sl, sr, ["k"], ["j"])
            estimates.append(float((joined.weights() * joined.column("v")).sum()))
        assert np.mean(estimates) == pytest.approx(truth, abs=4 * np.std(estimates) / np.sqrt(60))


class TestSignedZeroKeys:
    def test_sampled_join_keeps_zero_on_both_sides_or_neither(self):
        """The join matches ``-0.0`` with ``0.0``, so a shared subspace keeps
        both or neither: sample-then-join is join-then-sample for every
        seed."""
        left = Table("l", {"k": np.array([0.0, -0.0, 1.5, 2.5] * 25), "v": np.arange(100.0)})
        right = Table("r", {"j": np.array([-0.0, 1.5, 0.0, 3.5] * 5), "w": np.arange(20.0)})
        full_join = operators.execute_join(left, right, ["k"], ["j"]).built()
        kept_zero = 0
        for seed in range(40):
            sl = UniverseSpec(["k"], 0.5, seed=seed).apply(left)
            sr = UniverseSpec(["j"], 0.5, seed=seed, emit_weight=False).apply(right)
            joined = operators.execute_join(sl, sr, ["k"], ["j"])
            sampled = UniverseSpec(["k"], 0.5, seed=seed).apply(full_join)
            assert joined.num_rows == sampled.num_rows
            zeros = (sl.column("k") == 0.0).sum()
            assert zeros in (0, 50)
            kept_zero += zeros > 0
        assert 0 < kept_zero < 40


class TestCountDistinctRescale:
    def test_distinct_count_scales_by_inverse_p(self, small_table):
        """The paper's insight: distinct keys in the subspace, divided by p,
        estimates the total distinct keys."""
        truth = len(np.unique(small_table.column("k")))
        estimates = []
        for seed in range(80):
            out = UniverseSpec(["k"], 0.3, seed=seed).apply(small_table)
            estimates.append(len(np.unique(out.column("k"))) / 0.3)
        assert np.mean(estimates) == pytest.approx(truth, rel=0.1)


class TestPartitionParallel:
    def test_for_partition_is_identity(self):
        """Universe decisions are value-based, hence partition-invariant."""
        spec = UniverseSpec(["k"], 0.2, seed=1)
        assert spec.for_partition(2, 4, aligned=False) is spec

    def test_hash_subspace_agreement_across_copartitions(self, pair):
        """Co-partitioned inputs sampled per-partition agree on one global
        key subspace: the union of per-partition sampled joins equals the
        sampled join of the whole inputs."""
        left, right = pair
        spec_l = UniverseSpec(["k"], 0.2, seed=9)
        spec_r = UniverseSpec(["j"], 0.2, seed=9, emit_weight=False)
        whole = operators.execute_join(spec_l.apply(left), spec_r.apply(right), ["k"], ["j"])

        lparts = Partitioner(4, HASH, ("k",), seed=123).split(left)
        rparts = Partitioner(4, HASH, ("j",), seed=123).split(right)
        pieces = [
            operators.execute_join(spec_l.apply(lp), spec_r.apply(rp), ["k"], ["j"]).built()
            for lp, rp in zip(lparts, rparts)
        ]
        union = Table.concat(pieces)
        assert union.num_rows == whole.num_rows
        np.testing.assert_allclose(np.sort(union.column("v")), np.sort(whole.column("v")))
        np.testing.assert_allclose(union.weights().sum(), whole.weights().sum())


class TestStringKeys:
    def test_string_columns_supported(self):
        values = np.array(["alpha", "beta", "gamma", "delta"] * 100)
        t = Table("t", {"s": values, "x": np.arange(400)})
        out = UniverseSpec(["s"], 0.5, seed=4).apply(t)
        kept = set(np.unique(out.column("s")).tolist())
        # Whole key classes pass or not.
        for key in kept:
            assert (out.column("s") == key).sum() == 100

    def test_multi_column_keys(self, rng):
        t = Table("t", {"a": rng.integers(0, 20, 1000), "b": rng.integers(0, 20, 1000)})
        out = UniverseSpec(["a", "b"], 0.3, seed=6).apply(t)
        assert 0 < out.num_rows < 1000


class TestPerRowReference:
    """The vectorized sampler keeps exactly the rows a per-row test keeps:
    row ``i`` passes iff the keyed hash of its decoded key values, as a
    fraction of ``2**64``, is below ``p``."""

    @pytest.fixture()
    def registered(self, rng):
        n = 4_000
        db = Database()
        db.register(
            Table(
                "t",
                {
                    "s": rng.choice(np.array(["ant", "bee", "cat", "dog", "eel", "fox"]), n),
                    "k": rng.integers(0, 30, n),
                    "x": rng.exponential(3.0, n),
                },
            )
        )
        table = db.table("t")
        assert table.dictionary("s") is not None  # the key is coded
        return table

    @pytest.mark.parametrize("columns", [("s",), ("k",), ("s", "k")])
    def test_matches_per_row_reference(self, registered, columns):
        spec = UniverseSpec(columns, 0.3, seed=7)
        keys = [registered.column(c) for c in columns]
        keep = np.array(
            [
                hash_columns([np.asarray([v[i]]) for v in keys], spec.seed)[0] / float(2**64) < spec.p
                for i in range(registered.num_rows)
            ]
        )
        out = spec.apply(registered)
        assert 0 < out.num_rows < registered.num_rows
        np.testing.assert_array_equal(out.column("x"), registered.column("x")[keep])
        np.testing.assert_array_equal(out.column("s"), registered.column("s")[keep])
        assert np.all(out.weights() == 1.0 / spec.p)
