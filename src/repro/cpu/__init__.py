"""CPU-side substrate: cores and performance metrics."""

from repro.cpu.core import Core, Request
from repro.cpu.metrics import (geometric_mean, normalized_performance,
                               slowdown_percent, weighted_speedup)

__all__ = [
    "Core",
    "Request",
    "geometric_mean",
    "normalized_performance",
    "slowdown_percent",
    "weighted_speedup",
]
