"""Physical sampler specifications.

A :class:`SamplerSpec` is the physical state of a sampler operator in an
executable plan: which rows to pass and with what Horvitz-Thompson weight.
Every sampler obeys the paper's operating requirements (Section 4.1):

* one pass over data;
* memory footprint well below input/output size;
* partitionable — running instances on disjoint partitions of the input and
  unioning their outputs mimics a single instance over the whole input.

``apply`` is the one implementation, vectorized over a table; it runs per
partition in a parallel plan (``for_partition`` derives the partition-local
spec). The tests hold it to per-row references: a sort-based one for the
distinct sampler, the key-hash test for the universe sampler.
"""

from __future__ import annotations


import numpy as np

from repro.engine.table import WEIGHT_COLUMN, Table
from repro.errors import SamplerError

__all__ = ["SamplerSpec", "PassThroughSpec", "attach_weights"]


class SamplerSpec:
    """Abstract physical sampler."""

    #: Relative CPU cost per input row (Appendix A: uniform is cheapest,
    #: universe pays for a strong hash, distinct pays for stratum counts+reservoir).
    cost_per_row: float = 1.0

    #: Short name used in plan summaries and Table 7 style frequency counts.
    kind: str = "abstract"

    #: Whether ``apply`` reads its input's lineage columns: the
    #: required-columns pass keeps lineage alive below a sampler that does.
    reads_lineage: bool = False

    def apply(self, table: Table) -> Table:
        """Return the sampled table with an updated weight column."""
        raise NotImplementedError

    def expected_fraction(self) -> float:
        """Expected fraction of input rows passed (used by the cost model)."""
        raise NotImplementedError

    def key(self) -> tuple:
        raise NotImplementedError

    def input_columns(self) -> tuple:
        """Data columns ``apply`` reads from its input (lineage and weight
        columns aside) — what the required-columns pass keeps alive below a
        sampler that nothing above it would."""
        return ()

    def validate_probability(self, p: float) -> float:
        if not 0.0 < p <= 1.0:
            raise SamplerError(f"sampling probability must be in (0, 1], got {p}")
        return float(p)

    def for_partition(self, partition_index: int, num_partitions: int, aligned: bool) -> "SamplerSpec":
        """The spec a parallel worker should run on one input partition.

        Uniform and universe samplers are stateless across rows — their
        per-row decisions do not depend on the rest of the stream — so the
        unmodified spec is correct on any partition (paper Section 4.1's
        partitionability requirement). Stateful samplers (distinct)
        override this. ``aligned`` is True when the partitioner hashed on
        the sampler's own column set, guaranteeing that the rows any
        per-value state cares about share a partition.
        """
        return self


class PassThroughSpec(SamplerSpec):
    """The do-not-sample decision (Section 4.2.6's default option).

    ASALQA replaces a seeded sampler with a pass-through when no sampler can
    meet the accuracy requirement; the plan then behaves exactly like the
    baseline plan.
    """

    cost_per_row = 0.0
    kind = "passthrough"

    def apply(self, table: Table) -> Table:
        return table

    def expected_fraction(self) -> float:
        return 1.0

    def key(self) -> tuple:
        return ("passthrough",)

    def __repr__(self):
        return "PassThrough()"


def attach_weights(table: Table, mask: np.ndarray, weights: np.ndarray) -> Table:
    """Filter ``table`` by ``mask`` and multiply in new HT ``weights``.

    ``weights`` is aligned with the *input* rows; only the surviving entries
    are kept. Existing weights (from an upstream sampler — not produced by
    ASALQA, which forbids nesting, but supported for generality) multiply.
    """
    rows = np.flatnonzero(mask)
    selected = table.take(rows)
    new_weights = np.asarray(weights, dtype=np.float64)[rows]
    combined = selected.weights() * new_weights if table.has_weights() else new_weights
    return selected.with_columns({WEIGHT_COLUMN: combined})
