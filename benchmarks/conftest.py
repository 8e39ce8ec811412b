"""Shared machinery for the per-table / per-figure benchmarks.

Each ``bench_*.py`` regenerates one table or figure of the paper through
pytest-benchmark.  Quick mode (default) sweeps the representative
workload subset; ``REPRO_FULL=1`` switches to the full 22-workload sweep.
Every run writes its rendered result table to ``results/<name>.txt`` next
to this directory so the regenerated numbers persist beyond the pytest
output.

Execution modes (telemetry composes with parallelism — the split below
only picks where the events/sec accounting is read from):

* **Serial (default)** — each benchmark runs under a profiling-only
  telemetry instance and reports the engine's **events/sec** from its
  span-derived profile.
* **Parallel** — ``REPRO_JOBS=N`` (N > 1) activates a
  :class:`repro.exec.SweepExecutor`: sweep cells fan out over N worker
  processes and the aggregate events/sec comes from the executor's own
  accounting.  ``REPRO_CACHE_DIR=DIR`` additionally enables the
  content-addressed run cache in either mode.

Telemetry's *own* cost is benchmarked separately in ``bench_obs.py``,
which writes ``results/BENCH_obs.json``.

Whatever the mode, every benchmark folds its wall time, events/sec and
jobs into ``results/BENCH_sweep.json`` — the perf-trajectory snapshot
that successive PRs regress against.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.exec import runtime as exec_runtime
from repro.exec.cache import RunCache
from repro.exec.executor import SweepExecutor
from repro.experiments.common import ExperimentResult, full_mode_enabled
from repro.obs import Telemetry
from repro.obs import runtime as obs_runtime

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SWEEP_SNAPSHOT = RESULTS_DIR / "BENCH_sweep.json"


def _bench_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (0 = all cores, default 1)."""
    jobs = int(os.environ.get("REPRO_JOBS", "1") or 1)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(jobs, 1)


def _bench_cache() -> RunCache | None:
    cache_dir = os.environ.get("REPRO_CACHE_DIR", "")
    return RunCache(cache_dir) if cache_dir else None


def _update_sweep_snapshot(name: str, wall_s: float,
                           events_per_sec: float, events: int,
                           jobs: int, mode: str) -> None:
    """Fold one benchmark into the cross-PR perf snapshot (read-modify-
    write so partial benchmark selections update incrementally)."""
    snapshot: dict = {"experiments": {}}
    try:
        snapshot = json.loads(SWEEP_SNAPSHOT.read_text())
    except (OSError, ValueError):
        pass
    experiments = snapshot.setdefault("experiments", {})
    experiments[name] = {
        "wall_s": round(wall_s, 3),
        "events_per_sec": round(events_per_sec),
        "events": events,
        "jobs": jobs,
        "mode": mode,
    }
    totals = {
        "total_wall_s": round(sum(entry["wall_s"]
                                  for entry in experiments.values()), 3),
        "total_events": sum(entry["events"]
                            for entry in experiments.values()),
        "jobs": jobs,
    }
    busy = sum(entry["events"] / entry["events_per_sec"]
               for entry in experiments.values()
               if entry["events_per_sec"])
    totals["aggregate_events_per_sec"] = \
        round(totals["total_events"] / busy) if busy else 0
    snapshot["totals"] = totals
    SWEEP_SNAPSHOT.write_text(json.dumps(snapshot, indent=2,
                                         sort_keys=True) + "\n")


@pytest.fixture
def experiment_runner(benchmark):
    """Run one experiment under pytest-benchmark and persist its output."""

    def run(name: str, runner, **kwargs) -> ExperimentResult:
        quick = not full_mode_enabled()
        jobs = _bench_jobs()
        if jobs > 1:
            telemetry = None
            executor = SweepExecutor(jobs=jobs, cache=_bench_cache())
        else:
            telemetry = Telemetry(profile=True)
            executor = (SweepExecutor(cache=_bench_cache())
                        if _bench_cache() is not None else None)

        def instrumented() -> ExperimentResult:
            with obs_runtime.activated(telemetry), \
                    exec_runtime.activated(executor):
                return runner(quick=quick, **kwargs)

        try:
            result = benchmark.pedantic(instrumented, rounds=1,
                                        iterations=1)
        finally:
            if executor is not None:
                executor.close()
        assert isinstance(result, ExperimentResult)
        assert result.rows, f"{name} produced no rows"
        RESULTS_DIR.mkdir(exist_ok=True)
        rendered = result.render()
        if telemetry is not None:
            throughput = telemetry.profiler.snapshot()["throughput"]
            events = throughput["events"]
            events_per_sec = throughput["events_per_sec"]
        else:
            events = executor.stats.engine_events
            events_per_sec = executor.stats.events_per_sec
        if events:
            rendered += (f"\nengine throughput: "
                         f"{events_per_sec:,.0f} events/s "
                         f"({events:,} events, jobs={jobs})")
        (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")
        print()
        print(rendered)
        wall_s = benchmark.stats.stats.total
        mode = "full" if not quick else "quick"
        benchmark.extra_info["experiment"] = name
        benchmark.extra_info["mode"] = mode
        benchmark.extra_info["jobs"] = jobs
        benchmark.extra_info["events_per_sec"] = round(events_per_sec)
        benchmark.extra_info["events"] = events
        _update_sweep_snapshot(name, wall_s, events_per_sec, events,
                               jobs, mode)
        return result

    return run
