"""One-pass, bounded-memory stream summaries used by the streaming samplers."""

from repro.sketches.heavy_hitters import DEFAULT_SUPPORT, DEFAULT_TAU, LossyCounter
from repro.sketches.reservoir import Reservoir

__all__ = [
    "DEFAULT_SUPPORT",
    "DEFAULT_TAU",
    "LossyCounter",
    "Reservoir",
]
