"""Benchmark: service job-scheduling throughput under concurrency.

Measures the sweep service end to end — HTTP submission through
:class:`~repro.service.server.ServiceThread`, scheduling through
:class:`~repro.service.jobs.JobScheduler`, completion via
:meth:`~repro.service.client.SweepClient.wait_many` — on a batch of
``JOBS`` *distinct* single-cell jobs, twice per round:

* **serial** — ``concurrency=1``, the pre-concurrency scheduler shape:
  jobs run strictly one after another, so the batch's wall time is the
  sum of the job latencies;
* **concurrent** — ``concurrency=WORKERS``: the batch's wall time
  tracks the *slowest* job instead of the sum.

This is a **scheduling** benchmark, so the cell cost is synthetic:
:class:`SleepCellExecutor` replaces the compute of every cell with a
fixed ``CELL_SECONDS`` sleep (in a pool worker when the executor pools
the cell, inline otherwise) returning a pre-computed real
:class:`~repro.sim.results.RunResult`.  Sleeps overlap even on the
1-core CI box — unlike CPU-bound cells, which would serialise and
measure the machine, not the scheduler — and the service times are
exactly equal across jobs and arms, so the speedup figure isolates
what the concurrent scheduler adds.  Everything around the sleep is
the real stack: real scan/memo/fingerprint path, real job threads,
real HTTP round-trips.

Jobs are one-cell sweeps on purpose: with cells-per-job >= pool width
a saturated pool hides job-level concurrency entirely (serial already
keeps every worker busy), while the many-jobs/few-cells regime is
exactly where PR 8's in-order scheduler collapsed to single-job
latency.

Each arm reports best-of-``ROUNDS`` and median-of-``ROUNDS``
jobs/sec (rounds interleave serial/concurrent to cancel machine-speed
drift, after one untimed warmup round).  Results fold into
``results/BENCH_service.json``; the acceptance criterion is the
``speedup`` figure (concurrent / serial, best-based) >= 3x at
``WORKERS = 4``, and ``repro bench record`` / ``check`` ratchet the
``service.*`` metrics alongside the engine and obs families.

Run it as a script: ``PYTHONPATH=src python benchmarks/bench_service.py``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time
from concurrent.futures import Future

from repro.exec.executor import SweepExecutor, _execute_cell
from repro.experiments import registry
from repro.experiments.common import ExperimentResult, RunOptions
from repro.exec import runtime as exec_runtime
from repro.exec.executor import Cell
from repro.service.client import SweepClient
from repro.service.jobs import JobScheduler
from repro.service.server import ServiceThread
from repro.sim.config import SimConfig, SystemConfig
from repro.workloads.profiles import profile

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SERVICE_SNAPSHOT = RESULTS_DIR / "BENCH_service.json"

#: Timed rounds per arm (plus one untimed warmup round).
ROUNDS = 5
#: Distinct jobs per round — the "batch of disjoint sweeps".
JOBS = 4
#: Job worker threads in the concurrent arm (and executor pool width).
WORKERS = 4
#: Synthetic service time of one cell.
CELL_SECONDS = 0.5
#: Request budget of the one real cell backing the canned result.
REQUESTS = 200

#: Registry name the bench experiment is installed under while the
#: benchmark runs.
EXPERIMENT = "bench-service-sleep"

WORKLOAD = "mcf"


def _make_cell(seed: int) -> Cell:
    """One policy-free (fingerprintable) cell, distinct per ``seed``."""
    system = SystemConfig.baseline()
    return Cell(workload=profile(WORKLOAD), trace_system=system,
                run_system=system,
                sim=SimConfig(requests_per_core=REQUESTS, seed=seed),
                policy=None, policy_name="none")


def _sleep_cell(seconds: float, result):
    """Worker-side synthetic cell: the service time is a sleep (which
    overlaps across pool processes and across job threads even on one
    core), the payload a pre-computed real result."""
    time.sleep(seconds)
    return result, seconds, None


class SleepCellExecutor(SweepExecutor):
    """A :class:`SweepExecutor` whose computed cells cost a fixed sleep.

    Only the two places an attempt's future comes from are replaced —
    the pool submission and the inline attempt; scan, claim table,
    fingerprints, retries, the fair-share window and the pool lifecycle
    all run the real code, so the measured difference between the arms
    is scheduling, not simulation speed.
    """

    def __init__(self, *args, cell_seconds: float = CELL_SECONDS,
                 canned=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cell_seconds = cell_seconds
        self.canned = canned

    def _submit(self, cell, fp, attempt, capture=None):
        if not self._pool_usable():
            return None
        try:
            pool = self._pool_handle()
            return pool.submit(_sleep_cell, self.cell_seconds,
                               self.canned), pool
        except Exception:
            self._note_pool_failure(self._pool)
            return None

    def _attempt_inline(self, cell, fp, attempt, capture=None):
        future = Future()
        future.set_result(_sleep_cell(self.cell_seconds, self.canned))
        return future, None


def _run_sleep_experiment(quick: bool = True,
                          seed: int = 0) -> ExperimentResult:
    """The bench experiment: one seed-distinct cell through the ambient
    executor (the service's), merged like any real sweep."""
    executor = exec_runtime.active()
    if executor is None:
        executor = SweepExecutor()
    results = executor.run_cells([_make_cell(seed)])
    return ExperimentResult(
        experiment=EXPERIMENT, title="service scheduling bench cell",
        rows=[{"seed": seed,
               "requests": results[0].requests_completed}])


def _measure_round(concurrency: int, canned, seed_base: int) -> float:
    """Wall seconds for one JOBS-job batch at the given concurrency."""
    executor = SleepCellExecutor(jobs=WORKERS, canned=canned)
    scheduler = JobScheduler(executor, spans=False,
                             concurrency=concurrency)
    with ServiceThread(scheduler) as service:
        client = SweepClient(service.url)
        started = time.perf_counter()
        job_ids = [client.submit(EXPERIMENT,
                                 RunOptions(seed=seed_base + index))
                   for index in range(JOBS)]
        records = client.wait_many(job_ids, timeout_s=120.0)
        wall = time.perf_counter() - started
    for job_id, record in records.items():
        if record["state"] != "done":
            raise RuntimeError(f"bench job {job_id} failed: "
                               f"{record.get('error')}")
    return wall


def _measure_all() -> dict[str, dict]:
    """Warmup + interleaved best/median-of-ROUNDS for both arms."""
    canned = _execute_cell(_make_cell(0))[0]
    registry.EXPERIMENTS[EXPERIMENT] = _run_sleep_experiment
    walls: dict[str, list[float]] = {"serial": [], "concurrent": []}
    try:
        seed_base = 1_000
        for timed in (False, True, True, True, True, True)[:ROUNDS + 1]:
            for arm, concurrency in (("serial", 1),
                                     ("concurrent", WORKERS)):
                wall = _measure_round(concurrency, canned, seed_base)
                seed_base += JOBS
                if timed:
                    walls[arm].append(wall)
    finally:
        registry.EXPERIMENTS.pop(EXPERIMENT, None)
    entries: dict[str, dict] = {}
    for arm, samples in walls.items():
        rates = [JOBS / wall for wall in samples]
        entries[arm] = {
            "jobs_per_sec": round(max(rates), 3),
            "median_jobs_per_sec": round(statistics.median(rates), 3),
            "best_wall_s": round(min(samples), 3),
            "median_wall_s": round(statistics.median(samples), 3),
            "rounds": len(samples),
            "jobs": JOBS,
            "cell_seconds": CELL_SECONDS,
            "concurrency": 1 if arm == "serial" else WORKERS,
        }
    return entries


def _update_service_snapshot(entries: dict[str, dict]) -> None:
    """Read-modify-write ``BENCH_service.json`` (mirrors
    BENCH_obs.json)."""
    snapshot: dict = {"configs": {}}
    try:
        snapshot = json.loads(SERVICE_SNAPSHOT.read_text())
    except (OSError, ValueError):
        pass
    configs = snapshot.setdefault("configs", {})
    configs.update(entries)
    serial = configs.get("serial", {})
    concurrent = configs.get("concurrent", {})
    if serial.get("jobs_per_sec") and concurrent.get("jobs_per_sec"):
        snapshot["speedup"] = round(
            concurrent["jobs_per_sec"] / serial["jobs_per_sec"], 3)
    if serial.get("median_jobs_per_sec") and \
            concurrent.get("median_jobs_per_sec"):
        snapshot["median_speedup"] = round(
            concurrent["median_jobs_per_sec"]
            / serial["median_jobs_per_sec"], 3)
    snapshot["workers"] = WORKERS
    snapshot["jobs_per_round"] = JOBS
    snapshot["cell_seconds"] = CELL_SECONDS
    RESULTS_DIR.mkdir(exist_ok=True)
    SERVICE_SNAPSHOT.write_text(json.dumps(snapshot, indent=2,
                                           sort_keys=True) + "\n")


def run_bench() -> dict:
    """Measure both arms and persist the snapshot."""
    entries = _measure_all()
    _update_service_snapshot(entries)
    for arm, entry in entries.items():
        print(f"[service] {arm} (concurrency="
              f"{entry['concurrency']}): "
              f"{entry['jobs_per_sec']} jobs/s best "
              f"({entry['best_wall_s']}s/batch), "
              f"{entry['median_jobs_per_sec']} median "
              f"(of {entry['rounds']}, interleaved)")
    snapshot = json.loads(SERVICE_SNAPSHOT.read_text())
    print(f"[service] concurrent vs serial scheduler: "
          f"{snapshot.get('speedup')}x best, "
          f"{snapshot.get('median_speedup')}x median "
          f"(target >= 3x at {WORKERS} workers)")
    return entries


if __name__ == "__main__":
    run_bench()
