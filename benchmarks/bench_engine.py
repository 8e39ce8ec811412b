"""Benchmark: engine throughput — single cells and whole sweeps.

Measures ``run_simulation`` events/sec on two fixed cells:

* **none** — the unprotected baseline (pure core/controller/bank path);
* **mint** — mcf under coupled MINT + DRFMsb (the mitigation-heavy
  configuration ``bench_obs.py`` also uses), which is the cell the
  PR-5 1.5x acceptance criterion is judged on.

The **whole-sweep** config ``scalar.sweep`` runs a ``SWEEP_CELLS``-cell
policy-free grid (mcf, seed-varied) of short cells back to back, traces
prebuilt outside the timed region, so it ratchets the per-cell setup
cost of many short scalar cells — the reproduction's shape — as
``engine.scalar.sweep`` in ``repro bench check``.

Each cell runs one untimed warmup round and then ``ROUNDS`` timed
rounds, reporting **best-of-N** (minimum wall time — the cleanest
estimate of the code's cost under scheduler noise) alongside
**median-of-N** (the stability check).  A separate single run under
:mod:`cProfile` produces the per-stage breakdown — the share of
cumulative time spent in request service, refresh scheduling, policy
work and heap traffic — that the optimization work is steered by.

Results fold into ``results/BENCH_engine.json``.  The first ever run
freezes its numbers as the ``baseline`` section; later runs only update
``current`` and the derived ``speedup``, so the snapshot always carries
the pre-overhaul reference the acceptance criterion compares against.
Delete the file (or the ``baseline`` key) to re-baseline on new
hardware.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_engine.py``)
or under pytest-benchmark like the other ``bench_*`` modules.
"""

from __future__ import annotations

import cProfile
import json
import pathlib
import pstats
import statistics
import time

from repro.mc.mitigation import coupled_mint_factory
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.runner import run_simulation
from repro.workloads import build_traces

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
ENGINE_SNAPSHOT = RESULTS_DIR / "BENCH_engine.json"

ROUNDS = 7
REQUESTS = 4_000
WORKLOAD = "mcf"
T_RH = 500
#: Whole-sweep grid of short cells, seed-varied so no two cells share
#: traces.
SWEEP_CELLS = 512
SWEEP_REQUESTS = 500
SWEEP_ROUNDS = 3
#: Functions whose cumulative share makes up the per-stage profile.
PROFILE_STAGES = {
    "service": "controller.service",
    "refresh": "refresh.advance",
    "policy": "before_activate",
    "bank": ("bank.activate", "bank.precharge"),
    "heap": ("heappush", "heappop", "heapreplace"),
    "fetch": "core.fetch",
}


def _cell(config: str):
    """(system, sim, traces, factory, name) for one benchmark cell."""
    system = SystemConfig.baseline(refs_per_window=32)
    sim = SimConfig(requests_per_core=REQUESTS, seed=7)
    traces = build_traces(WORKLOAD, system, sim)
    if config == "none":
        return system, sim, traces, None, "none"
    return system, sim, traces, coupled_mint_factory(T_RH), "mint"


def _measure(config: str) -> dict:
    """Warmup + best/median-of-ROUNDS events/sec for one cell."""
    system, sim, traces, factory, name = _cell(config)
    rates: list[float] = []
    events = 0
    run_simulation(system, traces, sim, factory, name)  # warmup
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = run_simulation(system, traces, sim, factory, name)
        wall_s = time.perf_counter() - started
        events = result.requests_completed
        rates.append(events / wall_s)
    return {
        "events_per_sec": round(max(rates)),
        "median_events_per_sec": round(statistics.median(rates)),
        "events": events,
        "rounds": ROUNDS,
    }


def _sweep_members():
    """(system, [(sim, traces), ...]) for the whole-sweep grid.

    Traces are built once, outside the timed region — the sweep configs
    measure engine dispatch, not trace generation."""
    system = SystemConfig.baseline(refs_per_window=32)
    members = []
    for index in range(SWEEP_CELLS):
        sim = SimConfig(requests_per_core=SWEEP_REQUESTS,
                        seed=1_000 + index)
        traces = build_traces(WORKLOAD, system, sim, calibrate=False)
        members.append((sim, traces))
    return system, members


def _measure_sweep(system, members) -> dict:
    """Warmup + best/median-of-SWEEP_ROUNDS whole-sweep events/sec."""
    def run_all() -> int:
        return sum(run_simulation(system, traces, sim, None,
                                  "none").requests_completed
                   for sim, traces in members)

    run_all()  # warmup: memoizes each trace's columns
    rates: list[float] = []
    events = 0
    for _ in range(SWEEP_ROUNDS):
        started = time.perf_counter()
        events = run_all()
        wall_s = time.perf_counter() - started
        rates.append(events / wall_s)
    return {
        "events_per_sec": round(max(rates)),
        "median_events_per_sec": round(statistics.median(rates)),
        "events": events,
        "rounds": SWEEP_ROUNDS,
        "cells": SWEEP_CELLS,
    }


def _stage_profile() -> list[dict]:
    """One mitigated run under cProfile, folded into stage shares."""
    system, sim, traces, factory, name = _cell("mint")
    profiler = cProfile.Profile()
    profiler.enable()
    run_simulation(system, traces, sim, factory, name)
    profiler.disable()
    stats = pstats.Stats(profiler)
    total = stats.total_tt or 1.0
    stages = []
    for stage, needles in PROFILE_STAGES.items():
        if isinstance(needles, str):
            needles = (needles,)
        cumulative = 0.0
        self_time = 0.0
        calls = 0
        for (filename, _line, func), row in stats.stats.items():
            label = f"{pathlib.Path(filename).stem}.{func}"
            if any(needle in func or needle in label
                   for needle in needles):
                cumulative += row[3]  # inclusive of callees
                self_time += row[2]   # exclusive
                calls += row[0]
        stages.append({
            "stage": stage,
            "cum_pct": round(100.0 * min(cumulative, total) / total, 1),
            "self_pct": round(100.0 * self_time / total, 1),
            "calls": calls,
        })
    return stages


def _update_engine_snapshot(results: dict, profile: list[dict]) -> None:
    """Fold a full measurement set into ``BENCH_engine.json``.

    ``baseline`` is write-once: it keeps the pre-overhaul numbers the
    acceptance criterion (current best >= 1.5x baseline best) compares
    against.
    """
    snapshot: dict = {}
    try:
        snapshot = json.loads(ENGINE_SNAPSHOT.read_text())
    except (OSError, ValueError):
        pass
    current = {"configs": results, "profile": profile}
    snapshot["current"] = current
    snapshot.setdefault("baseline", json.loads(json.dumps(current)))
    baseline_rate = snapshot["baseline"]["configs"]["mint"][
        "events_per_sec"]
    current_rate = results["mint"]["events_per_sec"]
    snapshot["speedup"] = (round(current_rate / baseline_rate, 3)
                           if baseline_rate else 0.0)
    snapshot["workload"] = WORKLOAD
    snapshot["requests_per_core"] = REQUESTS
    RESULTS_DIR.mkdir(exist_ok=True)
    ENGINE_SNAPSHOT.write_text(json.dumps(snapshot, indent=2,
                                          sort_keys=True) + "\n")


def run_bench(verbose: bool = True) -> dict:
    """Measure every config + the stage profile; persist the snapshot."""
    results = {config: _measure(config) for config in ("none", "mint")}
    results["scalar.sweep"] = _measure_sweep(*_sweep_members())
    profile = _stage_profile()
    _update_engine_snapshot(results, profile)
    if verbose:
        for config, entry in results.items():
            print(f"[engine] {config}: "
                  f"{entry['events_per_sec']:,} events/s best, "
                  f"{entry['median_events_per_sec']:,} median "
                  f"(of {entry['rounds']})")
        for stage in profile:
            print(f"[engine] profile {stage['stage']}: "
                  f"{stage['cum_pct']}% cum / {stage['self_pct']}% self, "
                  f"{stage['calls']:,} calls")
        snapshot = json.loads(ENGINE_SNAPSHOT.read_text())
        print(f"[engine] speedup vs baseline: {snapshot['speedup']}x")
    return results


def test_engine_throughput(benchmark):
    """pytest-benchmark entry point (one macro-round around the set)."""
    results = benchmark.pedantic(run_bench, args=(False,),
                                 rounds=1, iterations=1)
    for config, entry in results.items():
        benchmark.extra_info[f"{config}_events_per_sec"] = \
            entry["events_per_sec"]


if __name__ == "__main__":
    run_bench()
