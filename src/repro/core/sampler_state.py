"""Logical sampler state (paper Section 4.2.1).

During plan exploration, a sampler's *requirements* — rather than its
physical implementation — travel with it through the transformation rules.
The state is the 4-tuple the paper denotes ``{S, U, ds, sfm}``:

* ``strat_cols`` (S) — columns the sampler must stratify on so no answer
  group is missed;
* ``univ_cols`` (U) — columns the sampler must universe-sample on so a
  downstream join remains a perfect join on the chosen key subspace;
* ``ds`` — downstream selectivity: the cumulative selectivity of operators
  between the sampler and the answer (pushing past an un-stratified select
  shrinks it);
* ``sfm`` — stratification frequency multiplier: corrects group-support
  estimates when stratification columns are replaced by join keys with a
  different distinct count (Section 4.2.4).

Two bookkeeping fields extend the paper's tuple: ``cd_cols`` marks columns
that entered S only because of COUNT / COUNT DISTINCT (overlap between such
columns and U is explicitly allowed, Section 4.2.4), and ``family``
identifies paired universe samplers on the two inputs of a join so the
physical pass can give them identical parameters (Appendix A's global
requirement).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import FrozenSet, Optional

__all__ = ["SamplerState"]


@dataclass(frozen=True)
class SamplerState:
    """Requirements of a logical sampler during ASALQA exploration."""

    strat_cols: FrozenSet[str] = frozenset()
    univ_cols: FrozenSet[str] = frozenset()
    ds: float = 1.0
    sfm: float = 1.0
    cd_cols: FrozenSet[str] = frozenset()
    opt_cols: FrozenSet[str] = frozenset()
    value_cols: FrozenSet[str] = frozenset()
    family: Optional[int] = None

    def key(self) -> tuple:
        return self._key

    @cached_property
    def _key(self) -> tuple:
        # Built once per state: the dataclass is frozen, and ``replace``
        # builds a new instance without this cache.
        return (
            "state",
            tuple(sorted(self.strat_cols)),
            tuple(sorted(self.univ_cols)),
            round(self.ds, 9),
            round(self.sfm, 9),
            tuple(sorted(self.cd_cols)),
            tuple(sorted(self.opt_cols)),
            tuple(sorted(self.value_cols)),
            self.family,
        )

    # -- functional updates ------------------------------------------------------
    def with_strat(self, columns) -> "SamplerState":
        return replace(self, strat_cols=self.strat_cols | frozenset(columns))

    def scaled_ds(self, factor: float) -> "SamplerState":
        return replace(self, ds=self.ds * factor)

    def renamed(self, mapping: dict) -> "SamplerState":
        """Rename all column references (pushing through projections/joins)."""
        return replace(
            self,
            strat_cols=frozenset(mapping.get(c, c) for c in self.strat_cols),
            univ_cols=frozenset(mapping.get(c, c) for c in self.univ_cols),
            cd_cols=frozenset(mapping.get(c, c) for c in self.cd_cols),
            opt_cols=frozenset(mapping.get(c, c) for c in self.opt_cols),
            value_cols=frozenset(mapping.get(c, c) for c in self.value_cols),
        )

    def dissonant(self) -> bool:
        """True when stratification and universe requirements clash.

        Columns in both S and U are troublesome: the universe sampler keeps
        only a subspace of their values while stratification wants them all.
        Overlap is tolerated when it is small relative to either set, or
        when the overlapping columns are in S only because of COUNT
        DISTINCT (whose estimate the universe sampler can rescale exactly).
        """
        overlap = (self.strat_cols & self.univ_cols) - self.cd_cols
        if not overlap:
            return False
        return len(overlap) >= min(len(self.strat_cols), len(self.univ_cols))

    def __repr__(self):
        parts = []
        if self.strat_cols:
            parts.append(f"S={sorted(self.strat_cols)}")
        if self.univ_cols:
            parts.append(f"U={sorted(self.univ_cols)}")
        parts.append(f"ds={self.ds:.3g}")
        parts.append(f"sfm={self.sfm:.3g}")
        if self.family is not None:
            parts.append(f"family={self.family}")
        return f"SamplerState({', '.join(parts)})"
