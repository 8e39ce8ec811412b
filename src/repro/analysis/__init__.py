"""Measurement and post-processing: RLP, slowdown, selection, DoS,
attacks, span traces and the benchmark-regression gate."""

from repro.analysis.dos import DoSAnalysis, analyze_dos, mitigation_block_ps
from repro.analysis.failure_rate import (TailComparison,
                                         coupled_tail_comparison,
                                         delay_inflation,
                                         dream_r_tail_comparison,
                                         mint_exposure_bound)
from repro.analysis.harness import AttackHarness, AttackResult
from repro.analysis.regression import (CheckReport, Regression,
                                       append_history, collect_metrics,
                                       run_check)
from repro.analysis.rlp import RLPStats, sampling_delays_ps, summarize
from repro.analysis.selection import (DistanceStats, distance_statistics,
                                      mint_selection_positions,
                                      monte_carlo_selections,
                                      para_selection_positions)
from repro.analysis.slowdown import SlowdownSeries
from repro.analysis.spans import (CriticalPath, SpansDoc,
                                  WorkerBreakdown, chrome_trace,
                                  critical_path, load_spans,
                                  worker_breakdown)

__all__ = [
    "AttackHarness",
    "AttackResult",
    "CheckReport",
    "CriticalPath",
    "DistanceStats",
    "DoSAnalysis",
    "RLPStats",
    "Regression",
    "SlowdownSeries",
    "SpansDoc",
    "TailComparison",
    "WorkerBreakdown",
    "analyze_dos",
    "append_history",
    "chrome_trace",
    "collect_metrics",
    "coupled_tail_comparison",
    "critical_path",
    "delay_inflation",
    "distance_statistics",
    "dream_r_tail_comparison",
    "load_spans",
    "mint_selection_positions",
    "mint_exposure_bound",
    "mitigation_block_ps",
    "monte_carlo_selections",
    "para_selection_positions",
    "run_check",
    "sampling_delays_ps",
    "summarize",
    "worker_breakdown",
]
