"""Sampler micro-benchmarks: per-row cost of each sampler kernel on the
inputs queries give it.

Appendix A's cost ordering must hold in practice: uniform is cheapest
(a coin flip), universe pays for a strong hash, distinct pays for the
stratum counts and reservoirs.

Every input is shaped like one a plan runs on:

* the table carries row lineage, as every scan under a uniform sampler
  does, so the uniform sampler hashes lineage (its positional-RNG branch
  runs only on a bare table, which no query hands it);
* the universe sampler runs on a dense integer key and on a coded
  two-column key (a dictionary-coded string and an integer);
* the distinct sampler runs on many small strata and on a ``star``-shaped
  input: 390 strata of 41 to 767 rows over 53,587 rows, delta = 30,
  p = 0.1, as q02/q05/q07/q09 stratify ``store_sales`` on ``ss_item_sk``.

Each test records its ns/row in ``extra_info``, so ``--benchmark-json``
keeps the per-kernel figures::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_samplers.py \\
        --benchmark-only -q --benchmark-json sampler-bench.json
"""

import numpy as np
import pytest

from repro.engine.table import Database, Table, rowid_column_name
from repro.samplers.distinct import DistinctSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec

N = 200_000


def with_lineage(table: Table) -> Table:
    """The table as a scan hands it on: one lineage column of row ids."""
    return table.with_columns(
        {rowid_column_name(0): np.arange(table.num_rows, dtype=np.int64)}
    )


@pytest.fixture(scope="module")
def big_table():
    rng = np.random.default_rng(0)
    db = Database()
    db.register(
        Table(
            "big",
            {
                "k": rng.integers(0, 5_000, N),
                "s": rng.choice(np.array([f"state_{i:02d}" for i in range(50)]), N),
                "x": rng.normal(size=N),
            },
        )
    )
    return with_lineage(db.table("big"))


@pytest.fixture(scope="module")
def star_table():
    """390 strata of 41 to 767 rows, about 54,000 in all: two in three in
    the reservoir regime (at most 130 rows), the rest in the Bernoulli
    one, as ``ss_item_sk``'s are at scale 0.3."""
    rng = np.random.default_rng(1)
    sizes = np.clip(np.round(rng.lognormal(4.6, 1.0, 390)), 41, 767).astype(np.int64)
    items = np.repeat(np.arange(1, 391), sizes)
    rng.shuffle(items)
    n = len(items)
    return with_lineage(
        Table(
            "store_sales",
            {
                "ss_item_sk": items,
                "ss_sales_price": np.round(rng.exponential(40.0, n), 2),
                "ss_net_profit": np.round(rng.normal(0.0, 30.0, n), 2),
            },
        )
    )


def _per_row(benchmark, spec, table):
    result = benchmark(spec.apply, table)
    stats = benchmark.stats.stats if benchmark.stats is not None else None
    if stats is not None:
        benchmark.extra_info["rows"] = table.num_rows
        benchmark.extra_info["ns_per_row"] = stats.median / table.num_rows * 1e9
    return result


def test_uniform_sampler_throughput(benchmark, big_table):
    result = _per_row(benchmark, UniformSpec(0.1, seed=1), big_table)
    assert result.num_rows == pytest.approx(N * 0.1, rel=0.1)


def test_universe_sampler_throughput(benchmark, big_table):
    result = _per_row(benchmark, UniverseSpec(["k"], 0.1, seed=1), big_table)
    assert 0 < result.num_rows < N


def test_universe_sampler_coded_pair_throughput(benchmark, big_table):
    assert big_table.dictionary("s") is not None
    result = _per_row(benchmark, UniverseSpec(["s", "k"], 0.1, seed=1), big_table)
    assert 0 < result.num_rows < N


def test_distinct_sampler_throughput(benchmark, big_table):
    result = _per_row(benchmark, DistinctSpec(["k"], delta=10, p=0.1, seed=1), big_table)
    assert result.num_rows < N


def test_distinct_sampler_star_throughput(benchmark, star_table):
    counts = np.bincount(star_table.key_column("ss_item_sk"))[1:]
    assert 50_000 <= star_table.num_rows <= 58_000
    assert 0.5 < np.mean(counts <= 130) < 0.8 and (counts > 30).all()
    spec = DistinctSpec(["ss_item_sk"], delta=30, p=0.1, seed=1)
    result = _per_row(benchmark, spec, star_table)
    assert result.num_rows < star_table.num_rows / 2
