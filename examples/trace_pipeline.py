#!/usr/bin/env python3
"""Trace pipeline: line addresses -> MOP decode -> simulation.

The performance experiments build their LLC-miss streams from the
paper's Table 3 profiles.  A trace-driven frontend brings its own: this
example synthesizes a stream of 64-byte line addresses per core,
decodes it into DRAM coordinates through the MOP4 mapper with
``MemoryTrace.from_lines``, and runs the unprotected and the
DREAM-C-protected system on the resulting traces.

Run:  python examples/trace_pipeline.py
"""

import numpy as np

from repro import (ComparisonResult, MemoryTrace, MOPMapper, SimConfig,
                   SystemConfig, dream_c_factory, run_simulation)


def synthesize_line_addresses(count: int, seed: int) -> np.ndarray:
    """A line-address stream with a hot working set.

    80% of accesses revisit a small hot window (rows whose DREAM-C gang
    counters climb to the threshold); 20% sweep a large cold region.
    """
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 4_096, size=count)          # 256 KB hot set
    cold = rng.integers(0, 2_000_000, size=count)     # ~128 MB cold set
    pick_hot = rng.random(count) < 0.8
    return np.where(pick_hot, hot, 4_096 + cold)


def main() -> None:
    system = SystemConfig.baseline(refs_per_window=32, num_cores=2)
    sim = SimConfig(requests_per_core=20_000, seed=5)
    mapper = MOPMapper(system.organization)

    traces = []
    for core in range(system.num_cores):
        lines = synthesize_line_addresses(80_000, seed=5 + core)
        gaps = np.full(len(lines), 60_000, dtype=np.int64)  # 60 ns think
        trace = MemoryTrace.from_lines(f"pipeline-core{core}", lines,
                                       gaps, mapper)
        rows = set(zip(trace.subchannel.tolist(), trace.bank.tolist(),
                       trace.row.tolist()))
        print(f"core {core}: {len(trace)} line addresses -> "
              f"{len(rows)} distinct DRAM rows")
        traces.append(trace)

    baseline = run_simulation(system, traces, sim)
    protected = run_simulation(system, traces, sim,
                               dream_c_factory(t_rh=250), "dream-c")
    comparison = ComparisonResult(baseline, protected)
    print()
    print(f"baseline : {baseline.describe()}")
    print(f"dream-c  : {protected.describe()}")
    print(f"slowdown : {comparison.slowdown_percent:.2f}%")


if __name__ == "__main__":
    main()
