"""Exact distinct counts of column sets (the planner's C1 support check and
the join push-down rules' NumDV calls)."""

import numpy as np

from repro.stats.catalog import exact_distinct_multi


class TestExact:
    def test_single_column(self):
        assert exact_distinct_multi([np.array([1, 1, 2, 3, 3, 3])]) == 3
        # A NaN equals nothing: each NaN row is a value of its own.
        assert exact_distinct_multi([np.array([1.0, 1.0, np.nan, np.nan])]) == 3

    def test_empty(self):
        empty = [np.array([], dtype=np.int64), np.array([], dtype=np.float64)]
        assert exact_distinct_multi(empty) == 0

    def test_multi_column(self):
        a = np.array([1, 1, 2, 2])
        b = np.array([1, 1, 1, 2])
        assert exact_distinct_multi([a, b]) == 3

    def test_multi_empty(self):
        assert exact_distinct_multi([]) == 0
        assert exact_distinct_multi([np.array([])]) == 0
