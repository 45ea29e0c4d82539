"""Input partitioning for partition-parallel execution.

The paper's samplers are "partitionable": running instances on disjoint
partitions of the input and unioning their outputs mimics a single instance
over the whole input (Section 4.1). The :class:`Partitioner` that decides
the partitions lives with the tables it cuts
(:mod:`repro.engine.partitions`, where a database also keeps what it
decided); this module re-exports it for the parallel package and adds the
co-partitioning helper.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.engine.partitions import HASH, ROUND_ROBIN, Partitioner

__all__ = ["Partitioner", "co_partitioners", "ROUND_ROBIN", "HASH"]


def co_partitioners(
    num_partitions: int,
    left_columns: Sequence[str],
    right_columns: Sequence[str],
    seed: int = 0,
) -> Tuple[Partitioner, Partitioner]:
    """A pair of hash partitioners that agree on the key subspace.

    Both sides of an equi-join partitioned with these route any pair of
    matching rows to the same partition index, because the hash is keyed by
    position in the key list, not by column name.
    """
    return (
        Partitioner(num_partitions, HASH, tuple(left_columns), seed),
        Partitioner(num_partitions, HASH, tuple(right_columns), seed),
    )
