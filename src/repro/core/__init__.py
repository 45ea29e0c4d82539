"""Quickr's contribution: ASALQA, sampler states, push-down rules, accuracy."""

from repro.core.accuracy import (
    AccuracyReport,
    UnrolledSampler,
    analyze_plan,
    confidence_interval,
    ht_estimate,
    ht_variance_independent,
    ht_variance_universe,
    miss_probability_distinct,
    miss_probability_uniform,
    miss_probability_universe,
    unroll_plan,
)
from repro.core.asalqa import Asalqa, AsalqaOptions, AsalqaResult
from repro.core.costing import (
    CostingOptions,
    SamplerDecision,
    choose_physical,
    materialize_plan,
)
from repro.core.dominance import (
    RULES,
    DominanceRule,
    EmpiricalDominance,
    core_of,
    empirical_dominance,
    reseed_plan,
)
from repro.core.rewrite import WeightedAggregate, finalize_plan
from repro.core.sampler_state import SamplerState
from repro.core.seeding import initial_state_for, seed_samplers

__all__ = [
    "AccuracyReport",
    "UnrolledSampler",
    "analyze_plan",
    "confidence_interval",
    "ht_estimate",
    "ht_variance_independent",
    "ht_variance_universe",
    "miss_probability_distinct",
    "miss_probability_uniform",
    "miss_probability_universe",
    "unroll_plan",
    "Asalqa",
    "AsalqaOptions",
    "AsalqaResult",
    "CostingOptions",
    "SamplerDecision",
    "choose_physical",
    "materialize_plan",
    "RULES",
    "DominanceRule",
    "EmpiricalDominance",
    "core_of",
    "empirical_dominance",
    "reseed_plan",
    "WeightedAggregate",
    "finalize_plan",
    "SamplerState",
    "initial_state_for",
    "seed_samplers",
]
