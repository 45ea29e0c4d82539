"""Quickr's contribution: ASALQA, sampler states, push-down rules, accuracy."""

from repro.core.accuracy import UnrolledSampler, unroll_plan
from repro.core.asalqa import Asalqa, AsalqaOptions, AsalqaResult
from repro.core.costing import (
    CostingOptions,
    SamplerDecision,
    choose_physical,
    materialize_plan,
)
from repro.core.rewrite import WeightedAggregate, finalize_plan
from repro.core.sampler_state import SamplerState
from repro.core.seeding import initial_state_for, seed_samplers

__all__ = [
    "UnrolledSampler",
    "unroll_plan",
    "Asalqa",
    "AsalqaOptions",
    "AsalqaResult",
    "CostingOptions",
    "SamplerDecision",
    "choose_physical",
    "materialize_plan",
    "WeightedAggregate",
    "finalize_plan",
    "SamplerState",
    "initial_state_for",
    "seed_samplers",
]
