"""Manku-Motwani lossy counting for heavy-hitter detection.

The paper's distinct sampler bounds its memory by tracking approximate
frequencies only for heavy hitters (Section 4.1.2): "for an input of size N
and constants s, tau, our sketch identifies values with frequency above
(s +/- tau) N and estimates their frequency to within +/- tau N ... memory
usage is (1/tau) log(tau N)". Quickr uses tau = 1e-4, s = 1e-2.

This module implements the classic lossy-counting algorithm: the stream is
conceptually divided into buckets of width ceil(1/tau); at each bucket
boundary, entries whose (count + error-slack) falls below the bucket index
are evicted. Frequencies are underestimated by at most tau * N.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Tuple

from repro.errors import SamplerError

__all__ = ["LossyCounter", "DEFAULT_TAU", "DEFAULT_SUPPORT"]

#: Paper defaults (Section 4.1.2): tau = 1e-4, s = 1e-2.
DEFAULT_TAU = 1e-4
DEFAULT_SUPPORT = 1e-2


class LossyCounter:
    """Streaming heavy-hitter sketch with deterministic error bounds.

    Parameters
    ----------
    tau:
        Error parameter: estimated frequencies are within ``tau * N`` of the
        truth, using ``O((1/tau) log(tau N))`` entries.
    support:
        Report threshold ``s``: :meth:`heavy_hitters` returns values whose
        true frequency may exceed ``s * N``.
    """

    def __init__(self, tau: float = DEFAULT_TAU, support: float = DEFAULT_SUPPORT):
        if not 0 < tau < 1:
            raise SamplerError(f"tau must be in (0,1), got {tau}")
        if not 0 < support < 1:
            raise SamplerError(f"support must be in (0,1), got {support}")
        if support < tau:
            raise SamplerError(f"support ({support}) must be >= tau ({tau})")
        self.tau = tau
        self.support = support
        self._bucket_width = math.ceil(1.0 / tau)
        self._current_bucket = 1
        self._seen = 0
        # value -> (count, max undercount when inserted)
        self._entries: Dict[Hashable, Tuple[int, int]] = {}

    @property
    def items_seen(self) -> int:
        return self._seen

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    def add(self, value: Hashable, count: int = 1) -> None:
        """Observe ``value`` (optionally ``count`` times at once)."""
        self._seen += count
        if value in self._entries:
            cnt, err = self._entries[value]
            self._entries[value] = (cnt + count, err)
        else:
            self._entries[value] = (count, self._current_bucket - 1)
        boundary = self._current_bucket * self._bucket_width
        if self._seen >= boundary:
            self._compress()
            self._current_bucket = self._seen // self._bucket_width + 1

    def add_many(self, values: Iterable[Hashable]) -> None:
        for value in values:
            self.add(value)

    def _compress(self) -> None:
        bucket = self._current_bucket
        doomed = [v for v, (cnt, err) in self._entries.items() if cnt + err <= bucket]
        for v in doomed:
            del self._entries[v]

    def estimate(self, value: Hashable) -> int:
        """Lower-bound frequency estimate (0 if evicted or never seen)."""
        entry = self._entries.get(value)
        return entry[0] if entry is not None else 0

    def estimate_upper(self, value: Hashable) -> int:
        """Upper-bound frequency estimate (count + insertion-time slack)."""
        entry = self._entries.get(value)
        if entry is None:
            return int(self.tau * self._seen)
        cnt, err = entry
        return cnt + err

    def heavy_hitters(self) -> List[Tuple[Hashable, int]]:
        """Values whose frequency may exceed ``support * N``, with estimates.

        Guarantees: every value with true frequency >= support * N is
        reported; no value with true frequency < (support - tau) * N is.
        """
        threshold = (self.support - self.tau) * self._seen
        out = [(v, cnt) for v, (cnt, err) in self._entries.items() if cnt >= threshold]
        out.sort(key=lambda pair: -pair[1])
        return out

    def is_heavy(self, value: Hashable) -> bool:
        threshold = (self.support - self.tau) * self._seen
        return self.estimate(value) >= threshold
