"""Per-table / per-figure experiment modules (see DESIGN.md index)."""

from repro.experiments.common import (DesignSpec, ExperimentResult,
                                      default_sim_config, series_rows,
                                      sweep_designs)

__all__ = [
    "DesignSpec",
    "ExperimentResult",
    "default_sim_config",
    "series_rows",
    "sweep_designs",
]
