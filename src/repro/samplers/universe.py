"""The universe sampler (paper Section 4.1.3) — Quickr's new operator.

``UniverseSpec(columns, p, seed)`` projects the value of ``columns`` into a
64-bit hash space and keeps every row whose image falls in the first
``p``-fraction of that space. Two samplers with the same columns and seed
keep *exactly the same key subspace*, so joining a ``p``-probability
universe sample of both join inputs is statistically equivalent to taking a
``p``-probability universe sample of the join output — the property that
makes fact-fact joins approximable at all.

The sampler is stateless across rows (whether a row passes depends only on
its key values), hence trivially streaming and partitionable. A one-column
key with few values — a coded column, or integers whose span is at most half
the row count — is decided once per dictionary entry or span slot and the
decision gathered per row (:func:`~repro.samplers.hashing.keep_rows`);
any other key is hashed per row. Either way a row passes iff its key's
hash, cast to float, is below ``p * 2**64``.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.table import Table
from repro.errors import SamplerError
from repro.samplers.base import SamplerSpec, attach_weights
from repro.samplers.hashing import keep_rows

__all__ = ["UniverseSpec"]


class UniverseSpec(SamplerSpec):
    """Hash-subspace sampler over a column set.

    ``emit_weight`` is the family bookkeeping for paired samplers: when the
    two (or more) inputs of a join chain carry the *same* subspace, a joined
    row's true inclusion probability is ``p`` — not ``p^k`` — so exactly one
    family member emits weight ``1/p`` and the others emit weight 1; the
    join's weight product is then correct.
    """

    cost_per_row = 0.15
    kind = "universe"

    def __init__(self, columns: Sequence[str], p: float, seed: int = 0, emit_weight: bool = True):
        if not columns:
            raise SamplerError("universe sampler requires at least one column")
        self.columns = tuple(columns)
        self.p = self.validate_probability(p)
        self.seed = int(seed)
        self.emit_weight = bool(emit_weight)

    def apply(self, table: Table) -> Table:
        mask = keep_rows(table, self.columns, self.seed, self.p)
        return attach_weights(table, mask, 1.0 / self.p if self.emit_weight else 1.0)

    def expected_fraction(self) -> float:
        return self.p

    def input_columns(self) -> tuple:
        return self.columns

    def same_subspace_as(self, other: "UniverseSpec") -> bool:
        """True iff the two samplers keep identical key subspaces.

        This is the global requirement ASALQA enforces on the bottom-up
        pass: both inputs of a join must carry identical universe samplers
        (same column positions, probability and seed) for the join to be a
        perfect join on the restricted subspace.
        """
        return (
            len(self.columns) == len(other.columns)
            and self.p == other.p
            and self.seed == other.seed
        )

    def key(self) -> tuple:
        return ("universe", self.columns, round(self.p, 12), self.seed, self.emit_weight)

    def __repr__(self):
        return f"Universe(cols={list(self.columns)}, p={self.p:g})"
