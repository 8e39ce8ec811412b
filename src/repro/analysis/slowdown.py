"""Slowdown aggregation over workload sweeps.

Experiments produce one :class:`~repro.sim.results.ComparisonResult` per
(workload, design) pair; this module reduces them into the per-design
series the paper plots (per-workload bars plus the arithmetic-mean bar
the text quotes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.results import ComparisonResult


@dataclass
class SlowdownSeries:
    """One design's slowdown across a set of workloads."""

    design: str
    slowdowns: dict[str, float] = field(default_factory=dict)
    rlps: dict[str, float] = field(default_factory=dict)

    def add(self, comparison: ComparisonResult) -> None:
        """Record one workload's comparison."""
        workload = comparison.mitigated.workload
        self.slowdowns[workload] = comparison.slowdown_percent
        self.rlps[workload] = comparison.average_rlp

    @property
    def average_slowdown(self) -> float:
        """Arithmetic-mean slowdown (the paper's quoted averages)."""
        if not self.slowdowns:
            raise ValueError("series is empty")
        return sum(self.slowdowns.values()) / len(self.slowdowns)

    @property
    def average_rlp(self) -> float:
        """Mean realised RLP across workloads with mitigations."""
        values = [value for value in self.rlps.values() if value > 0]
        if not values:
            return 0.0
        return sum(values) / len(values)
