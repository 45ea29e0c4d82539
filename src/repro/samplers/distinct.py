"""The distinct (stratified) sampler (paper Section 4.1.2).

``DistinctSpec(columns, delta, p)`` guarantees that at least
``min(delta, frequency)`` rows pass for every distinct combination of values
of ``columns``, then passes further rows with probability ``p``. It is the
sampler Quickr uses when groups could otherwise be missed or when aggregate
values are heavily skewed.

Strata may be declared on plain columns or on *functions of columns*
(e.g. ``ceil(Y / 100)`` to protect skewed SUM inputs) — pass
:class:`~repro.algebra.expressions.Expr` objects alongside column names.

The vectorized implementation reproduces the debiased semantics of the
streaming algorithm: rows past the first ``delta`` of a stratum fall into a
"reservoir region" (the next ``reservoir_size / p`` rows) from which an
exact uniform subset is kept with the correct Horvitz-Thompson weight, and
any remaining rows are Bernoulli-sampled at ``p``. This matches the paper's
reservoir construction, with one correction: when a stratum's candidate
count ``c`` is below the reservoir capacity we weight by ``c / c = 1`` (the
paper's ``(freq - delta)/S`` formula implicitly assumes ``c >= S``).

Memory bounding via the heavy-hitter sketch, and the delta adjustment for
degree-of-parallelism, live in the streaming implementation
(:mod:`repro.samplers.streaming`), which is the faithful cluster-mode
rendition.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from repro.algebra.expressions import Expr
from repro.engine.keys import group_ids, stable_argsort
from repro.engine.table import Table
from repro.errors import SamplerError
from repro.samplers.base import SamplerSpec, attach_weights

__all__ = ["DistinctSpec", "stratum_codes"]

#: Default reservoir capacity per stratum (paper example uses S = delta).
DEFAULT_RESERVOIR = 10


def stratum_codes(table: Table, columns: Sequence[Union[str, Expr]]) -> np.ndarray:
    """Dense integer codes identifying each row's stratum."""
    arrays = []
    for spec in columns:
        if isinstance(spec, Expr):
            arrays.append(np.asarray(spec.evaluate(table)))
        else:
            arrays.append(table.key_column(spec))
    return group_ids(arrays)


def _rank_in_runs(lengths: np.ndarray) -> np.ndarray:
    """0, 1, 2, ... restarting at each of the consecutive runs of the given
    lengths (empty runs allowed)."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


class DistinctSpec(SamplerSpec):
    """Stratified sampler: >= min(delta, freq) rows per distinct value."""

    cost_per_row = 0.4
    kind = "distinct"

    def __init__(
        self,
        columns: Sequence[Union[str, Expr]],
        delta: int,
        p: float,
        seed: int = 0,
        reservoir_size: int = DEFAULT_RESERVOIR,
    ):
        if not columns:
            raise SamplerError("distinct sampler requires at least one stratification column")
        if delta <= 0:
            raise SamplerError(f"delta must be positive, got {delta}")
        if reservoir_size <= 0:
            raise SamplerError(f"reservoir size must be positive, got {reservoir_size}")
        self.columns = tuple(columns)
        self.delta = int(delta)
        self.p = self.validate_probability(p)
        self.seed = int(seed)
        self.reservoir_size = int(reservoir_size)

    # -- helpers -----------------------------------------------------------------
    def column_names(self) -> tuple:
        """Plain column names referenced (expanding function strata)."""
        names = []
        for spec in self.columns:
            if isinstance(spec, Expr):
                names.extend(sorted(spec.columns()))
            else:
                names.append(spec)
        return tuple(names)

    input_columns = column_names

    def apply(self, table: Table) -> Table:
        n = table.num_rows
        if n == 0:
            return attach_weights(table, np.zeros(0, dtype=bool), np.ones(0))
        rng = np.random.default_rng(self.seed)
        codes = stratum_codes(table, self.columns)
        counts = np.bincount(codes)  # rows per stratum; codes are dense

        # The rows in stratum order, stream (row) order within each. A
        # stable sort on 8- or 16-bit keys is a radix sort, so the codes are
        # ordered in the narrowest dtype that holds the stratum count; the
        # strata are then contiguous runs starting at the count offsets.
        narrow = np.min_scalar_type(len(counts) - 1)
        order = stable_argsort(codes.astype(narrow))

        # Frequency-check region: the first delta rows of each stratum.
        mask = np.zeros(n, dtype=bool)
        mask[order[_rank_in_runs(counts) < self.delta]] = True
        weights = np.ones(n, dtype=np.float64)

        # Probabilistic region: per stratum, the candidates past delta either
        # all fit the reservoir regime or none does.
        candidate = ~mask
        cand_count = counts - self.delta
        in_reservoir = (cand_count <= self.reservoir_size / self.p)[codes]

        # Strata whose candidates all fit the reservoir regime: keep an exact
        # uniform subset of size min(S, c) with weight c / min(S, c).
        small_idx = np.flatnonzero(candidate & in_reservoir)
        if len(small_idx):
            u = rng.random(n)
            # By stratum, then by draw: two stable sorts, the second a radix
            # sort again, give lexsort((draw, stratum))'s permutation.
            by_draw = small_idx[stable_argsort(u[small_idx])]
            sub_sorted = by_draw[stable_argsort(codes[by_draw].astype(narrow))]
            sub_rank = _rank_in_runs(np.bincount(codes[sub_sorted]))
            keep = np.minimum(self.reservoir_size, cand_count)
            chosen = sub_sorted[sub_rank < keep[codes[sub_sorted]]]
            mask[chosen] = True
            weights[chosen] = cand_count[codes[chosen]] / keep[codes[chosen]]

        # Strata past the reservoir regime: marginal inclusion p, weight 1/p.
        large = candidate & ~in_reservoir
        if large.any():
            large &= rng.random(n) < self.p
            mask |= large
            np.putmask(weights, large, 1.0 / self.p)

        return attach_weights(table, mask, weights)

    def for_partition(self, partition_index: int, num_partitions: int, aligned: bool) -> "DistinctSpec":
        """Partition-local spec for a parallel run (paper Section 4.1.2).

        The distinct sampler is stateful per stratum, so each worker gets an
        independent RNG stream (derived from the query seed and partition
        index) and, depending on the partitioning, an adjusted delta:

        * ``aligned`` (input hash-partitioned on the stratification
          columns): every stratum lives wholly in one partition, so the
          per-instance delta is the query delta and the ``>= min(delta,
          freq)`` guarantee holds exactly after the union.
        * unaligned (round-robin): strata are spread across the ``D``
          instances, so each runs with ``delta' = ceil(delta/D) + eps``,
          ``eps = ceil(delta/D)`` — the paper's degree-of-parallelism
          correction for the common case of near-even spread.
        """
        if num_partitions <= 1:
            return self
        if aligned:
            delta = self.delta
        else:
            per_instance = math.ceil(self.delta / num_partitions)
            delta = per_instance + math.ceil(self.delta / num_partitions)
        seed = (self.seed * 1_000_003 + partition_index + 1) & 0x7FFF_FFFF
        return DistinctSpec(
            self.columns, delta, self.p, seed=seed, reservoir_size=self.reservoir_size
        )

    def plain_column_names(self):
        """Stratification columns when all are plain names, else None.

        Hash-partitioning the input on the stratification columns is only
        stratum-aligned when strata are plain columns — an expression
        stratum groups many column values into one stratum, which a hash of
        the raw columns would split."""
        if any(isinstance(c, Expr) for c in self.columns):
            return None
        return tuple(self.columns)

    def expected_fraction(self) -> float:
        """Optimistic expected pass fraction; the cost model refines this
        with distinct-value statistics (leakage of delta rows per stratum)."""
        return self.p

    def key(self) -> tuple:
        cols = tuple(c.key() if isinstance(c, Expr) else c for c in self.columns)
        return ("distinct", cols, self.delta, round(self.p, 12), self.seed, self.reservoir_size)

    def __repr__(self):
        cols = [repr(c) if isinstance(c, Expr) else c for c in self.columns]
        return f"Distinct(cols={cols}, delta={self.delta}, p={self.p:g})"
