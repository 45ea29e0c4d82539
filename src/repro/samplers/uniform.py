"""The uniform sampler (paper Section 4.1.1).

``UniformSpec(p)`` lets each row pass independently with probability ``p``
(a Bernoulli/Poisson sampler) and assigns weight ``1/p``. The number of rows
passed is binomial; each row is picked at most once. Unlike fixed-size
reservoir alternatives this is streaming and partitionable with zero state,
which is what lets Quickr drop it anywhere in a parallel plan.

When the input carries row lineage (attached per scan by the executor), the
Bernoulli draw for a row is a *counter-based* pseudo-random value — a keyed
hash of the row's lineage tuple — instead of a positional RNG stream. The
decision then depends only on the row's identity, never on how the input
was split, so a partition-parallel run keeps exactly the same rows as a
serial run under the same seed. Without lineage (direct ``apply`` on a bare
table) the classic positional RNG stream is used.

Per row, the lineage sampler runs one in-place hash and one integer compare
against :func:`~repro.samplers.hashing.hash_threshold` (the same decision
as comparing the hash, cast to float, with ``p * 2**64``); the kept rows
alone get the weight.
"""

from __future__ import annotations

import numpy as np

from repro.engine.table import Table
from repro.samplers.base import SamplerSpec, attach_weights
from repro.samplers.hashing import hash_columns, hash_threshold

__all__ = ["UniformSpec"]

#: Seed salt separating the uniform sampler's hash stream from the universe
#: sampler's (both use the same keyed mixer; the salt keeps a uniform and a
#: universe sampler with equal seeds statistically independent).
_UNIFORM_SALT = 0x51AC_0B5E


class UniformSpec(SamplerSpec):
    """Bernoulli row sampler with probability ``p``."""

    cost_per_row = 0.05
    kind = "uniform"
    reads_lineage = True

    def __init__(self, p: float, seed: int = 0):
        self.p = self.validate_probability(p)
        self.seed = int(seed)

    def apply(self, table: Table) -> Table:
        lineage = table.lineage_columns()
        if lineage:
            mask = hash_columns(lineage, self.seed ^ _UNIFORM_SALT) < hash_threshold(self.p)
        else:
            rng = np.random.default_rng(self.seed)
            mask = rng.random(table.num_rows) < self.p
        return attach_weights(table, mask, 1.0 / self.p)

    def expected_fraction(self) -> float:
        return self.p

    def key(self) -> tuple:
        return ("uniform", round(self.p, 12), self.seed)

    def __repr__(self):
        return f"Uniform(p={self.p:g})"
