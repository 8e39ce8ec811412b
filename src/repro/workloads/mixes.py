"""Multi-program workload mixes (the paper's Appendix D).

The paper forms 10 multi-program benchmarks by combining 8 random
SPEC2017 workloads.  We reproduce that construction deterministically:
mix ``k`` draws 8 workloads (with replacement, as rate-mode-style mixing
does) from the 12 SPEC profiles using a fixed seed, so every run of the
reproduction sees the same mixes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.config import SimConfig, SystemConfig
from repro.workloads.profiles import PROFILES, Suite, WorkloadProfile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import MemoryTrace

#: Number of mixes the paper evaluates.
NUM_MIXES = 10

#: Seed fixing the mix composition across the whole reproduction.
MIX_SEED = 20250621


def spec_profiles() -> list[WorkloadProfile]:
    """The 12 SPEC2017 profiles, in paper order."""
    return [p for p in PROFILES if p.suite is Suite.SPEC]


def mix_composition(index: int) -> list[WorkloadProfile]:
    """The 8 per-core workloads of mix ``index`` (0-based)."""
    if not 0 <= index < NUM_MIXES:
        raise ValueError(f"mix index must be in [0, {NUM_MIXES})")
    rng = np.random.default_rng((MIX_SEED, index))
    pool = spec_profiles()
    picks = rng.integers(len(pool), size=8)
    return [pool[int(pick)] for pick in picks]


def mix_name(index: int) -> str:
    """Stable name of mix ``index``."""
    return f"mix{index + 1}"


@dataclass(frozen=True)
class MixRecipe:
    """Mix ``index`` as a trace recipe: what a sweep cell carries in
    place of a :class:`WorkloadProfile` to run on a multi-program mix
    (:func:`repro.workloads.builder.build_traces` builds it)."""

    index: int

    @property
    def name(self) -> str:
        return mix_name(self.index)


def build_mix_traces(index: int, system: SystemConfig,
                     sim: SimConfig) -> list[MemoryTrace]:
    """Build one calibrated trace per core for mix ``index``.

    Each core runs its own workload with that workload's calibrated think
    gap; the trace name is the mix name so results aggregate per mix.
    """
    # Late import: the builder dispatches mix recipes to this module.
    from repro.workloads.builder import calibrate_gap_ps

    composition = mix_composition(index)
    if len(composition) != system.num_cores:
        composition = (composition * system.num_cores)[:system.num_cores]
    traces = []
    for core, workload in enumerate(composition):
        trace = generate_trace(workload, system, core,
                               sim.requests_per_core, sim.seed,
                               gap_ps=calibrate_gap_ps(workload, system,
                                                       sim.seed))
        trace.name = mix_name(index)
        traces.append(trace)
    return traces
