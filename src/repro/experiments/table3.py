"""Table 3: workload characterisation of the synthetic traces.

Runs every workload unprotected with an *activation census* policy that
counts ACTs per (bank, row) per refresh window, then reports the same
columns as the paper's Table 3 — average ACTs per row per window, the
percentage of rows with 0 / 1-4 / >= 5 activations, and bandwidth
utilisation — side by side with the paper's measured values, validating
the workload substitution of DESIGN.md.  Each census is one sweep cell:
its per-sub-channel histograms ride the run's policy summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.executor import Cell
from repro.exec.spec import spec_factory
from repro.experiments.common import (default_system,
                                      DEFAULT_SEED, ExperimentResult,
                                      default_sim_config, run_cells)
from repro.mc.policy import MitigationPolicy, PolicyContext
from repro.sim.results import RunResult
from repro.workloads.profiles import WorkloadProfile, profiles_for

#: The histogram fields a census policy summary carries.
HISTOGRAM_FIELDS = ("windows", "rows_act0", "rows_act1_4", "rows_act5",
                    "acts")


@dataclass
class WindowHistogram:
    """Accumulated per-window row-activation histogram."""

    windows: int = 0
    rows_act0: float = 0.0
    rows_act1_4: float = 0.0
    rows_act5: float = 0.0
    acts: int = 0

    def add_window(self, counts: dict[tuple[int, int], int],
                   total_rows: int) -> None:
        touched = len(counts)
        low = sum(1 for value in counts.values() if value <= 4)
        high = touched - low
        self.windows += 1
        self.rows_act0 += total_rows - touched
        self.rows_act1_4 += low
        self.rows_act5 += high
        self.acts += sum(counts.values())

    def percentages(self, total_rows: int) -> tuple[float, float, float]:
        if not self.windows:
            return 100.0, 0.0, 0.0
        scale = 100.0 / (total_rows * self.windows)
        return (self.rows_act0 * scale, self.rows_act1_4 * scale,
                self.rows_act5 * scale)

    def avg_acts_per_row(self, total_rows: int) -> float:
        if not self.windows:
            return 0.0
        return self.acts / (total_rows * self.windows)


class ActivationCensusPolicy(MitigationPolicy):
    """Counts ACTs per (bank, row) per refresh window; never mitigates."""

    name = "census"

    def __init__(self, context: PolicyContext) -> None:
        super().__init__()
        self._window_ps = context.timing.t_refw
        self._next_window_ps = self._window_ps
        self._total_rows = context.num_banks * context.rows_per_bank
        self._counts: dict[tuple[int, int], int] = {}
        self.histogram = WindowHistogram()

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        if now_ps >= self._next_window_ps:
            self.histogram.add_window(self._counts, self._total_rows)
            self._counts = {}
            self._next_window_ps += self._window_ps
        key = (bank, row)
        self._counts[key] = self._counts.get(key, 0) + 1
        return False

    def close_partial_window(self) -> None:
        """Fold the trailing partial window in when no full one exists."""
        if self.histogram.windows == 0 and self._counts:
            self.histogram.add_window(self._counts, self._total_rows)
            self._counts = {}

    @property
    def total_rows(self) -> int:
        return self._total_rows

    def summary(self) -> dict[str, float]:
        """Base statistics plus the window histogram, with the trailing
        partial window folded in (the run is over when this is read)."""
        self.close_partial_window()
        histogram = self.histogram
        return {**super().summary(),
                **{name: getattr(histogram, name)
                   for name in HISTOGRAM_FIELDS},
                "total_rows": self._total_rows}


@spec_factory
def census_factory():
    """Factory for the activation-census policy."""
    return ActivationCensusPolicy


def characterize(workload: WorkloadProfile, result: RunResult) -> dict:
    """The Table 3 row of ``workload`` from its census run.

    Sub-channel histograms merge in sub-channel order.
    """
    merged = WindowHistogram()
    total_rows = 0
    for summary in result.policy_summaries:
        for name in HISTOGRAM_FIELDS:
            setattr(merged, name, getattr(merged, name) + summary[name])
        total_rows = summary["total_rows"]
    act0, act14, act5 = merged.percentages(total_rows)
    return {
        "workload": workload.name,
        "avg_acts_per_row": merged.avg_acts_per_row(total_rows),
        "paper_avg_acts": workload.avg_acts_per_row,
        "rows_act0_pct": act0,
        "paper_act0": workload.pct_rows_act0,
        "rows_act1_4_pct": act14,
        "paper_act1_4": workload.pct_rows_act1_4,
        "rows_act5_pct": act5,
        "paper_act5": workload.pct_rows_act5,
        "bw_util_pct": result.bus_utilization * 100.0,
        "paper_bw": workload.bw_util_pct,
    }


def run(quick: bool = True, requests_per_core: int | None = None,
        seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Regenerate Table 3 from the synthetic traces."""
    system = default_system()
    sim = default_sim_config(quick, requests_per_core, seed)
    workloads = profiles_for(quick=quick)
    results = run_cells([Cell(workload=workload, trace_system=system,
                              run_system=system, sim=sim,
                              policy=census_factory(), policy_name="census")
                         for workload in workloads])
    rows = [characterize(workload, result)
            for workload, result in zip(workloads, results)]
    return ExperimentResult(
        experiment="table3",
        title="Workload characteristics: generated vs paper",
        rows=rows,
        paper_reference={"average avg_acts_per_row": 0.73,
                         "average rows_act0": "80.2%",
                         "average bw_util": "66%"},
        notes="synthetic traces are calibrated to the paper's Table 3; "
              "columns prefixed 'paper_' show the reference values",
    )
