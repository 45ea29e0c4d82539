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
paper's one-pass algorithm: rows past the first ``delta`` of a stratum fall into a
"reservoir region" (the next ``reservoir_size / p`` rows) from which an
exact uniform subset is kept with the correct Horvitz-Thompson weight, and
any remaining rows are Bernoulli-sampled at ``p``. This matches the paper's
reservoir construction, with one correction: when a stratum's candidate
count ``c`` is below the reservoir capacity we weight by ``c / c = 1`` (the
paper's ``(freq - delta)/S`` formula implicitly assumes ``c >= S``).

Strata are counted exactly over integer keys (the packed key where its
span is dense): the paper's lossy-counting memory bound (track only
heavy-hitter strata) is not implemented. The delta adjustment for
degree-of-parallelism is :meth:`DistinctSpec.for_partition`.

What runs per row is one stratum key, one count, one gather of the
stratum's regime and the two draws; a stratum of at most ``delta`` rows
passes whole from the regime alone. The over-full strata's first rows are
found by one sort of ``stratum * n + row`` values, only the reservoir
candidates are ordered by draw (one sort of ``stratum + draw`` values),
and only kept rows get a weight.
The draws are the same ``rng.random(n)`` calls, in the same order and under
the same conditions as a per-row reading of the algorithm makes them, so
the sample is bit-identical to it (DESIGN §20).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple, Union

import numpy as np

from repro.algebra.expressions import Expr
from repro.engine.keys import dense_span, group_ids, pack_keys
from repro.engine.table import Table
from repro.errors import SamplerError
from repro.samplers.base import SamplerSpec, attach_weights

__all__ = ["DistinctSpec", "stratum_codes"]

#: Default reservoir capacity per stratum (paper example uses S = delta).
DEFAULT_RESERVOIR = 10

#: A stratum's regime: passes whole (at most delta rows, or the first delta
#: of an over-full one), reservoir, or Bernoulli.
_WHOLE, _RESERVOIR, _BERNOULLI = 0, 1, 2


def _stratum_arrays(table: Table, columns: Sequence[Union[str, Expr]]) -> list:
    return [
        np.asarray(spec.evaluate(table)) if isinstance(spec, Expr) else table.key_column(spec)
        for spec in columns
    ]


def stratum_codes(table: Table, columns: Sequence[Union[str, Expr]]) -> np.ndarray:
    """Dense integer codes identifying each row's stratum."""
    return group_ids(_stratum_arrays(table, columns))


def _strata(table: Table, columns: Sequence[Union[str, Expr]]) -> Tuple[np.ndarray, int]:
    """``(key, span)``: each row's stratum as an int64 in ``[0, span)``. A
    packed key whose span is dense is used as it is, unnumbered (strata
    need not be dense, only distinct); any other key is renumbered by
    :func:`stratum_codes`."""
    arrays = _stratum_arrays(table, columns)
    key, span, nan_rows = pack_keys(arrays)
    if nan_rows is None and dense_span(span, len(key)):
        return key, span
    codes = group_ids(arrays)
    return codes, int(codes.max(initial=-1)) + 1


def _first_rows(codes: np.ndarray, counts: np.ndarray, over: np.ndarray, delta: int) -> np.ndarray:
    """The first ``delta`` rows (in row order) of every over-full stratum.

    Each row gets the key ``stratum * n + row``, distinct and ordered as
    (stratum, row); one sort of the keys' values (no permutation; uint32
    keys where they fit, whose sort is 2.5x as fast) puts each stratum's
    rows in a run, and the first ``delta`` keys of each over-full run name
    its first rows."""
    n, span = len(codes), len(counts)
    dtype = np.uint32 if span * n <= 2**32 else np.int64
    key = np.multiply(codes, n, dtype=dtype, casting="unsafe")
    key += np.arange(n, dtype=dtype)
    ordered = np.sort(key)
    starts = (np.cumsum(counts) - counts)[over]
    firsts = ordered[starts[:, None] + np.arange(delta)]
    return (firsts - (np.flatnonzero(over) * n)[:, None]).ravel()


def _rank_in_runs(lengths: np.ndarray) -> np.ndarray:
    """0, 1, 2, ... restarting at each of the consecutive runs of the given
    lengths (empty runs allowed)."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _smallest_draws(
    rows: np.ndarray, strata: np.ndarray, draws: np.ndarray, runs: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """Of ``rows``, ``runs[s]`` of which are in stratum ``s``, the
    ``keep[s]`` rows of each stratum ``s`` with the smallest draws,
    an earlier row first among equal draws: the head of each stratum's run
    in ``lexsort((draws, strata))`` order, ascending row order in
    ``rows``.

    ``stratum + draw`` (draws in [0, 1)) orders as (stratum, draw) does
    wherever no two of its values are equal, so one sort of its values then
    gives each stratum's ``keep``-th smallest, and the kept rows are those
    at or below it. Equal values (equal draws, or distinct draws that round
    together) take the lexsort."""
    key = strata + draws
    ordered = np.sort(key)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.lexsort((draws, strata))
        rank = _rank_in_runs(runs)
        return np.sort(rows[order[rank < keep[strata[order]]]])
    present = runs > 0
    cutoff = np.zeros(len(keep))  # read for strata present only
    cutoff[present] = ordered[(np.cumsum(runs) - runs + keep - 1)[present]]
    return rows[np.flatnonzero(key <= cutoff[strata])]


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
        codes, span = _strata(table, self.columns)
        counts = np.bincount(codes, minlength=span)  # rows per stratum
        over = counts > self.delta
        if not over.any():  # every stratum passes whole, weight 1
            return attach_weights(table, np.ones(n, dtype=bool), 1.0)

        # Rows past the first delta of an over-full stratum are the
        # candidates; every other row passes with weight 1. Per stratum, the
        # candidates either all fit the reservoir regime or none does.
        cand_count = counts - self.delta
        regime = np.where(cand_count <= self.reservoir_size / self.p, _RESERVOIR, _BERNOULLI)
        regime[~over] = _WHOLE
        in_regime = regime.astype(np.uint8)[codes]
        in_regime[_first_rows(codes, counts, over, self.delta)] = _WHOLE
        mask = in_regime == _WHOLE
        rng = np.random.default_rng(self.seed)

        # Reservoir regime: keep an exact uniform subset of size
        # keep = min(S, c) of each stratum's c candidates, weight c / keep.
        small_idx = np.flatnonzero(in_regime == _RESERVOIR)
        keep = np.minimum(self.reservoir_size, cand_count)
        if len(small_idx):
            u = rng.random(n)
            runs = np.where(regime == _RESERVOIR, cand_count, 0)
            chosen = _smallest_draws(small_idx, codes[small_idx], u[small_idx], runs, keep)
            mask[chosen] = True

        # Bernoulli regime: marginal inclusion p, weight 1/p.
        if (regime == _BERNOULLI).any():
            thinned = in_regime == _BERNOULLI
            thinned &= rng.random(n) < self.p
            mask |= thinned

        # A kept candidate's weight is its stratum's: c / keep in the
        # reservoir regime, 1/p in the Bernoulli regime.
        kept = np.flatnonzero(mask)
        per_stratum = np.where(
            regime == _RESERVOIR, cand_count / np.maximum(keep, 1), 1.0 / self.p
        )
        weights = np.where(in_regime[kept] == _WHOLE, 1.0, per_stratum[codes[kept]])
        return attach_weights(table, kept, weights)

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
