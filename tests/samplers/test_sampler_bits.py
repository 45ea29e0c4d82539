"""Bit pins for the sampler kernels: which rows each sampler keeps, and
with which weights, must not move when a kernel gets cheaper.

Two kinds of pin:

* **The threshold, per row.** Uniform (over lineage) and universe samplers
  keep a row iff ``float64(hash) < p * 2**64``. The keyed mixer is a
  bijection, so a key (or a seed) can be solved for that puts a row's hash
  exactly on, one below or one above the first integer whose float64 is at
  least ``p * 2**64`` — the rounding boundary of the threshold — and each
  such row is checked against the per-row reference, ``p = 1.0`` included.
* **A seed-fixed fixture.** Every sampler kind runs on one mixed-regime
  table (strata below delta, in the reservoir regime and in the Bernoulli
  regime; plain, coded, dense and sparse keys). The kept rows and their
  weights are digested and compared with ``sampler_bits.json``. Rewrite that
  file only for an intended change of sampled rows:
  ``PYTHONPATH=src python -m tests.samplers.test_sampler_bits``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algebra.expressions import Func, col
from repro.engine.table import WEIGHT_COLUMN, Database, Table, rowid_column_name
from repro.samplers.distinct import DistinctSpec
from repro.samplers.hashing import hash_columns
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec

FIXTURE = Path(__file__).with_name("sampler_bits.json")

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: The uniform sampler's seed salt (``samplers/uniform.py``).
_UNIFORM_SALT = 0x51AC_0B5E


def _unshift(y: int, k: int) -> int:
    """The ``z`` with ``z ^ (z >> k) == y``."""
    z = y
    for _ in range(64 // k + 1):
        z = y ^ (z >> k)
    return z


def _premix(h: int) -> int:
    """The value before the seed-independent part of ``mix64`` that it maps
    to ``h``: ``mix64(x, seed) == h`` iff ``x + GOLDEN * (seed + 1)`` is it."""
    z = _unshift(h, 31)
    z = (z * pow(_MIX2, -1, 1 << 64)) & _MASK
    z = _unshift(z, 27)
    z = (z * pow(_MIX1, -1, 1 << 64)) & _MASK
    return _unshift(z, 30)


def key_hashing_to(h: int, seed: int) -> int:
    """The uint64 key whose ``mix64`` under ``seed`` is ``h``."""
    return (_premix(h) - _GOLDEN * (seed + 1)) & _MASK


def seed_hashing_to(h: int, key: int) -> int:
    """A seed under which ``mix64(key)`` is ``h`` (in ``[-1, 2**64 - 2]``)."""
    return (((_premix(h) - key) * pow(_GOLDEN, -1, 1 << 64)) & _MASK) - 1


def rounding_boundary(p: float) -> int:
    """The least integer ``x`` whose float64 is at least ``p * 2**64``:
    the first hash the per-row reference drops."""
    threshold = p * float(2**64)
    lo, hi = 0, (1 << 64) - 1  # float64(2**64 - 1) is 2**64 >= threshold
    while lo < hi:
        mid = (lo + hi) // 2
        if np.array([mid], dtype=np.uint64).astype(np.float64)[0] >= threshold:
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_keep(hashes, p: float) -> np.ndarray:
    """The per-row reference: ``float64(hash) < p * 2**64``, one row at a time."""
    return np.array(
        [np.array([h], dtype=np.uint64).astype(np.float64)[0] < p * float(2**64) for h in hashes]
    )


#: Thresholds worth pinning: the ledger's probabilities, a power of two
#: (where the float spacing changes at the threshold), p = 1 (whose
#: boundary is below 2**64) and thresholds below 2**53, fractional or not.
PROBABILITIES = [0.07, 0.1, 0.3, 0.5, 0.75, 1.0, 1e-17, 2.0**-20, 1.0 / 3.0]


def boundary_hashes(p: float):
    x0 = rounding_boundary(p)
    return [h for h in (x0 - 1, x0, x0 + 1) if 0 <= h <= _MASK]


class TestReferenceHelpers:
    def test_key_and_seed_solve_the_mixer(self):
        from repro.samplers.hashing import mix64

        for h in (0, 1, 12345, 1 << 63, _MASK):
            key = key_hashing_to(h, 7)
            assert int(mix64(np.array([key], dtype=np.uint64), 7)[0]) == h
            seed = seed_hashing_to(h, 5)
            assert int(mix64(np.array([5], dtype=np.uint64), seed)[0]) == h

    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_boundary_is_where_the_reference_flips(self, p):
        below, at = rounding_boundary(p) - 1, rounding_boundary(p)
        assert reference_keep([below, at], p).tolist() == [True, False]


class TestThresholdPerRow:
    """Rows hashed exactly at, one below and one above the rounding boundary
    of ``p * 2**64`` pass iff the per-row reference keeps them."""

    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_universe_sparse_key(self, p):
        seed = 11
        targets = boundary_hashes(p)
        gen = np.random.default_rng(5)
        filler = gen.integers(0, 2**63, 200, dtype=np.int64).astype(np.uint64)
        keys = np.concatenate([np.array([key_hashing_to(h, seed) for h in targets], np.uint64), filler])
        table = Table("t", {"k": keys, "i": np.arange(len(keys))})
        hashes = hash_columns([keys], seed)
        assert hashes[: len(targets)].tolist() == targets
        out = UniverseSpec(["k"], p, seed=seed).apply(table)
        np.testing.assert_array_equal(out.column("i"), np.flatnonzero(reference_keep(hashes, p)))

    @pytest.mark.parametrize("p", PROBABILITIES)
    @pytest.mark.parametrize("registered", [False, True])
    def test_universe_dense_key(self, p, registered):
        """A small key span: the seed is solved so that key 5 hits each target."""
        for target in boundary_hashes(p):
            seed = seed_hashing_to(target, 5)
            keys = np.arange(2_000, dtype=np.int64) % 997
            table = Table("t", {"k": keys, "i": np.arange(len(keys))})
            if registered:
                db = Database()
                db.register(table)
                table = db.table("t")
            hashes = hash_columns([keys], seed)
            assert int(hashes[5]) == target
            out = UniverseSpec(["k"], p, seed=seed).apply(table)
            np.testing.assert_array_equal(out.column("i"), np.flatnonzero(reference_keep(hashes, p)))

    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_uniform_over_lineage(self, p):
        """Lineage row 5 hits each target under a solved seed."""
        for target in boundary_hashes(p):
            seed = seed_hashing_to(target, 5) ^ _UNIFORM_SALT
            n = 3_000
            rid = np.arange(n, dtype=np.int64)
            table = Table("t", {"x": np.arange(n) * 0.5, rowid_column_name(0): rid})
            hashes = hash_columns([rid], seed ^ _UNIFORM_SALT)
            assert int(hashes[5]) == target
            out = UniformSpec(p, seed=seed).apply(table)
            keep = reference_keep(hashes, p)
            np.testing.assert_array_equal(out.column(rowid_column_name(0)), rid[keep])
            assert np.all(out.weights() == 1.0 / p)


# ---------------------------------------------------------------------------
# Seed-fixed fixture of kept rows and weights
# ---------------------------------------------------------------------------


def mixed_table() -> Table:
    """Strata of every regime for delta = 30, p = 0.1, S = 10 (reservoir
    while a stratum has at most 130 rows): 120 strata below delta, 80 in the
    reservoir regime, 12 in the Bernoulli regime. Registered, so the
    string column is coded."""
    gen = np.random.default_rng(20161)
    sizes = np.concatenate(
        [gen.integers(1, 31, 120), gen.integers(31, 131, 80), gen.integers(200, 1_500, 12)]
    )
    strata = np.repeat(np.arange(len(sizes)), sizes)
    gen.shuffle(strata)
    n = len(strata)
    words = np.array(["ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen"])
    x = np.round(gen.exponential(40.0, n), 2)
    x[x == 0.0] = 0.01
    db = Database()
    db.register(
        Table(
            "t",
            {
                "i": np.arange(n, dtype=np.int64),
                "k": strata * 3 + 7,
                "g": gen.integers(0, 6, n),
                "s": words[gen.integers(0, len(words), n)],
                "big": gen.integers(0, 2**62, n, dtype=np.int64),
                "x": x,
                rowid_column_name(0): np.arange(n, dtype=np.int64),
                rowid_column_name(1): gen.permutation(n).astype(np.int64),
            },
        )
    )
    return db.table("t")


def _weighted(table: Table) -> Table:
    gen = np.random.default_rng(3)
    return table.with_columns({WEIGHT_COLUMN: 1.0 / gen.uniform(0.2, 1.0, table.num_rows)})


def _no_lineage(table: Table) -> Table:
    return table.drop_lineage()


def _one_lineage(table: Table) -> Table:
    return table.drop_columns([rowid_column_name(1)])


def _cases():
    bucket = Func("bucket", lambda v: np.floor(v / 25.0), [col("x")])
    return {
        "uniform/lineage": (UniformSpec(0.1, seed=3), _one_lineage),
        "uniform/lineage-pair": (UniformSpec(0.07, seed=9), None),
        "uniform/positional": (UniformSpec(0.2, seed=4), _no_lineage),
        "uniform/p1": (UniformSpec(1.0, seed=2), None),
        "uniform/weighted": (UniformSpec(0.3, seed=5), _weighted),
        "universe/dense-int": (UniverseSpec(["k"], 0.3, seed=1), None),
        "universe/sparse-int": (UniverseSpec(["big"], 0.2, seed=2), None),
        "universe/coded": (UniverseSpec(["s"], 0.5, seed=3), None),
        "universe/coded-pair": (UniverseSpec(["s", "g"], 0.3, seed=5), None),
        "universe/float": (UniverseSpec(["x"], 0.4, seed=6), None),
        "universe/no-weight": (UniverseSpec(["k"], 0.25, seed=7, emit_weight=False), None),
        "universe/weighted": (UniverseSpec(["g", "k"], 0.6, seed=8), _weighted),
        "distinct/mixed": (DistinctSpec(["k"], delta=30, p=0.1, seed=1, reservoir_size=10), None),
        "distinct/coded-pair": (DistinctSpec(["s", "g"], delta=5, p=0.2, seed=2), None),
        "distinct/expression": (DistinctSpec([bucket], delta=3, p=0.05, seed=3), None),
        "distinct/weighted": (DistinctSpec(["k"], delta=30, p=0.1, seed=4), _weighted),
        "distinct/all-below-delta": (DistinctSpec(["g"], delta=10_000, p=0.1, seed=5), None),
        "distinct/bernoulli-only": (DistinctSpec(["g"], delta=2, p=0.3, seed=6), None),
    }


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def kept_bits(name: str) -> dict:
    spec, prepare = _cases()[name]
    table = mixed_table()
    if prepare is not None:
        table = prepare(table)
    out = spec.apply(table)
    rows = out.key_column("i")
    for column in table.column_names:
        if column != WEIGHT_COLUMN:
            np.testing.assert_array_equal(out.column(column), table.column(column)[rows], column)
    weights = out.weights().astype(np.float64)
    return {"rows": int(len(rows)), "rows_sha256": _sha(rows.astype(np.int64)),
            "weights_sha256": _sha(weights), "weight_sum": float(weights.sum())}


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


class TestKeptRowsFixture:
    def test_fixture_covers_every_case(self):
        assert sorted(_fixture()) == sorted(_cases())

    def test_table_has_every_regime(self):
        counts = np.bincount(mixed_table().key_column("k"))
        counts = counts[counts > 0]
        assert (counts <= 30).any() and ((counts > 30) & (counts <= 130)).any() and (counts > 130).any()

    @pytest.mark.parametrize("name", sorted(_cases()))
    def test_kept_rows_and_weights(self, name):
        got = kept_bits(name)
        assert 0 < got["rows"]
        assert got == _fixture()[name]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({name: kept_bits(name) for name in sorted(_cases())}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {FIXTURE}")
