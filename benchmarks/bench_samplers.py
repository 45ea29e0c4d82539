"""Sampler micro-benchmarks: per-row throughput of the three samplers.

Appendix A's cost ordering must hold in practice: uniform is cheapest
(a coin flip), universe pays for a strong hash, distinct pays for the
stratum counts and reservoirs.
"""

import numpy as np
import pytest

from repro.engine.table import Table
from repro.samplers.distinct import DistinctSpec
from repro.samplers.uniform import UniformSpec
from repro.samplers.universe import UniverseSpec

N = 200_000


@pytest.fixture(scope="module")
def big_table():
    rng = np.random.default_rng(0)
    return Table(
        "big",
        {
            "k": rng.integers(0, 5_000, N),
            "x": rng.normal(size=N),
        },
    )


def test_uniform_sampler_throughput(benchmark, big_table):
    spec = UniformSpec(0.1, seed=1)
    result = benchmark(spec.apply, big_table)
    assert result.num_rows == pytest.approx(N * 0.1, rel=0.1)


def test_universe_sampler_throughput(benchmark, big_table):
    spec = UniverseSpec(["k"], 0.1, seed=1)
    result = benchmark(spec.apply, big_table)
    assert 0 < result.num_rows < N


def test_distinct_sampler_throughput(benchmark, big_table):
    spec = DistinctSpec(["k"], delta=10, p=0.1, seed=1)
    result = benchmark(spec.apply, big_table)
    assert result.num_rows < N
