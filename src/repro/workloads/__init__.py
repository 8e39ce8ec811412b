"""Workload substrate: profiles, synthetic generators, attacks, mixes."""

from repro.workloads.builder import (build_traces, calibrate_gap_ps,
                                     clear_cache)
from repro.workloads.profiles import (PROFILES, QUICK_SUBSET, AccessStyle,
                                      Suite, WorkloadProfile, profile,
                                      profiles_for)
from repro.workloads.synthetic import (estimate_gap_ps, generate_lines,
                                       generate_trace)
from repro.workloads.trace import MemoryTrace

__all__ = [
    "AccessStyle",
    "MemoryTrace",
    "PROFILES",
    "QUICK_SUBSET",
    "Suite",
    "WorkloadProfile",
    "build_traces",
    "calibrate_gap_ps",
    "clear_cache",
    "estimate_gap_ps",
    "generate_lines",
    "generate_trace",
    "profile",
    "profiles_for",
]
