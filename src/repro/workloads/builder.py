"""Trace building with closed-loop bandwidth calibration.

The think-gap estimate of :func:`repro.workloads.synthetic.estimate_gap_ps`
is a first-order guess; queueing at high utilisation makes the realised
bandwidth deviate from the profile target.  :func:`build_traces` therefore
runs a short unprotected *pilot* simulation, measures the realised request
rate, and applies one fixed-point correction of the closed-loop law:

    slots = rate * (response + gap)
    response_measured = slots / rate_pilot - gap_pilot
    gap_final = slots / rate_target - response_measured

Traces are cached (small LRU) keyed by the content fingerprint of
everything they depend on — the workload or mix recipe, the whole system,
the budget, the seed and whether they were calibrated — since every
experiment reuses the same traces across many policy configurations,
which is also what makes the baseline and mitigated runs perfectly
paired.  Calibrated gaps are memoised per process by the fingerprint of
(workload, system, seed): a pilot is pure, and the small trace LRU would
otherwise evict and re-pilot between experiments.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.exec.fingerprint import fingerprint
from repro.sim.config import SimConfig, SystemConfig
from repro.workloads.mixes import MixRecipe, build_mix_traces
from repro.workloads.profiles import WorkloadProfile, profile
from repro.workloads.synthetic import estimate_gap_ps, generate_trace
from repro.workloads.trace import MemoryTrace

#: Request budget per core for the calibration pilot run.
PILOT_REQUESTS = 2_000

#: Maximum cached trace sets (each is ~tens of MB for large budgets).
_CACHE_CAPACITY = 3

_cache: OrderedDict[str, list[MemoryTrace]] = OrderedDict()

#: Calibrated think gap per (workload, system, seed) fingerprint.
_gaps: dict[str, int] = {}

#: Guards the LRU's check-then-act sequences: sweep-service jobs build
#: traces from concurrent threads.
_lock = threading.Lock()


def clear_cache() -> None:
    """Drop all cached traces and calibrated gaps (mainly for tests)."""
    with _lock:
        _cache.clear()
        _gaps.clear()


def _generate_all(workload: WorkloadProfile, system: SystemConfig,
                  requests_per_core: int, seed: int,
                  gap_ps: int) -> list[MemoryTrace]:
    return [
        generate_trace(workload, system, core, requests_per_core, seed,
                       gap_ps=gap_ps)
        for core in range(system.num_cores)
    ]


def calibrate_gap_ps(workload: WorkloadProfile, system: SystemConfig,
                     seed: int) -> int:
    """Pilot-calibrated think gap for ``workload`` on ``system``.

    Memoised per process: each (workload, system, seed) pilots once.
    """
    key = fingerprint(workload=workload, system=system, seed=seed)
    gap = _gaps.get(key)
    if gap is None:
        gap = _gaps[key] = _pilot_gap_ps(workload, system, seed)
    return gap


def _pilot_gap_ps(workload: WorkloadProfile, system: SystemConfig,
                  seed: int) -> int:
    from repro.obs import runtime as obs_runtime
    from repro.sim.runner import run_simulation

    gap_pilot = estimate_gap_ps(workload, system)
    traces = _generate_all(workload, system, PILOT_REQUESTS, seed,
                           gap_pilot)
    # The pilot is a calibration internal, not a simulated result: it
    # must never reach ambient telemetry, or merged metrics would depend
    # on where (parent vs worker) and whether (trace-cache hit) it ran.
    with obs_runtime.activated(None):
        pilot = run_simulation(system, traces,
                               SimConfig(requests_per_core=PILOT_REQUESTS,
                                         seed=seed))
    if pilot.end_time_ps <= 0:
        return gap_pilot
    rate_pilot = pilot.requests_completed / pilot.end_time_ps
    slots = system.total_mlp
    response = slots / rate_pilot - gap_pilot
    target_rate = workload.bw_util * system.peak_lines_per_ps
    gap_final = int(slots / target_rate - response)
    return max(0, gap_final)


def build_traces(workload: WorkloadProfile | MixRecipe | str,
                 system: SystemConfig, sim: SimConfig,
                 calibrate: bool = True) -> list[MemoryTrace]:
    """Build (or fetch cached) calibrated traces for every core.

    ``workload`` is a profile, a profile name, or a
    :class:`~repro.workloads.mixes.MixRecipe` (one workload per core;
    mixes are always calibrated).
    """
    if isinstance(workload, str):
        workload = profile(workload)
    key = fingerprint(workload=workload, system=system,
                      requests_per_core=sim.requests_per_core,
                      seed=sim.seed, calibrate=calibrate)
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            return cached
    if isinstance(workload, MixRecipe):
        traces = build_mix_traces(workload.index, system, sim)
    else:
        gap_ps = (calibrate_gap_ps(workload, system, sim.seed) if calibrate
                  else estimate_gap_ps(workload, system))
        traces = _generate_all(workload, system, sim.requests_per_core,
                               sim.seed, gap_ps)
    with _lock:
        _cache[key] = traces
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
    return traces
