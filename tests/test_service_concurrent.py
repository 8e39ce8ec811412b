"""Concurrent scheduler tests: work-sharing across jobs, singleflight
cell dedup, stream isolation under reconnects, queue accounting, and
the ``repro top`` rate clamp.

The deterministic singleflight partition lives at the executor level
(a gated executor makes "second thread attaches while first computes"
an observable, not a race); the service-level tests assert the
invariants that hold at *any* interleaving — exactly-once compute,
``sorted(computed) == [0, cells]`` for identical concurrent jobs, and
byte-identity of every result against a local ``run_experiment``.
"""

import io
import json
import math
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.top import InstanceSample, TopDashboard
from repro.exec import faults
from repro.exec.executor import Cell, SweepExecutor, cell_fingerprint
from repro.exec.resilience import CellPolicy, SweepFailure
from repro.experiments import registry
from repro.experiments.common import ExperimentResult, RunOptions
from repro.obs.exporter import parse_exposition, sample_value
from repro.obs.progress import SweepProgress
from repro.service import (JobScheduler, ServiceThread, SweepClient)
from repro.sim.config import SimConfig, SystemConfig
from repro.workloads.builder import clear_cache
from repro.workloads.profiles import profile
from tests.test_service_client import FlakyProxy

#: Small per-core budget so a job is a ~1 s ten-cell sweep.
BUDGET = 500

OPTIONS = RunOptions(seed=11, requests_per_core=BUDGET)
OPTIONS_B = RunOptions(seed=12, requests_per_core=BUDGET)


@pytest.fixture(autouse=True)
def _small_world(monkeypatch):
    monkeypatch.setattr("repro.workloads.profiles.QUICK_SUBSET",
                        ("blender", "add"))
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def gated(monkeypatch):
    """A registry experiment that blocks until the test opens the gate
    — makes 'job is running right now' a fact, not a race."""
    gate = threading.Event()

    def runner(quick=True, seed=0):
        assert gate.wait(30), "test gate never opened"
        return ExperimentResult(experiment="gated", title="gated",
                                rows=[{"seed": seed}])

    monkeypatch.setitem(registry.EXPERIMENTS, "gated", runner)
    yield gate
    gate.set()


def _wait(scheduler, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = scheduler.get(job_id)
        if record["state"] in ("done", "failed"):
            return record
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish")


class TestConcurrentJobs:
    def test_distinct_jobs_byte_identical_to_local(self):
        with JobScheduler(SweepExecutor(), concurrency=4) as scheduler:
            jobs = [
                (scheduler.submit("ablation-atm", OPTIONS)["job"],
                 "ablation-atm", OPTIONS),
                (scheduler.submit("ablation-atm", OPTIONS_B)["job"],
                 "ablation-atm", OPTIONS_B),
                (scheduler.submit("table4", RunOptions())["job"],
                 "table4", RunOptions()),
            ]
            for job_id, _, _ in jobs:
                assert _wait(scheduler, job_id)["state"] == "done"
            texts = {job_id: scheduler.result_text(job_id)
                     for job_id, _, _ in jobs}
        clear_cache()
        for job_id, experiment, options in jobs:
            local = registry.run_experiment(experiment, options)
            assert texts[job_id] == local.to_json()

    def test_identical_concurrent_jobs_race_not_order(self):
        with JobScheduler(SweepExecutor(), concurrency=2) as scheduler:
            first = scheduler.submit("ablation-atm", OPTIONS)["job"]
            second = scheduler.submit("ablation-atm", OPTIONS)["job"]
            records = [_wait(scheduler, first), _wait(scheduler, second)]
            assert [r["state"] for r in records] == ["done", "done"]
            cells = records[0]["counters"]["cells"]
            assert cells == 10  # 2 workloads x 5 designs
            # Exactly-once compute: whichever job's scan claimed the
            # fingerprints computed everything, the other nothing.
            assert sorted(r["counters"]["computed"]
                          for r in records) == [0, cells]
            loser = min(records, key=lambda r: r["counters"]["computed"])
            assert loser["counters"]["memo_hits"] == cells
            # Global view agrees: the sweep ran once, period.
            assert scheduler.executor.stats.computed == cells
            assert scheduler.result_text(first) == \
                scheduler.result_text(second)

    def test_counters_attributed_per_job_not_snapshotted(self):
        # Two *distinct* jobs overlapping on one executor: with the old
        # global-snapshot deltas each would absorb the other's cells;
        # attributed scoped stats keep them exact.
        with JobScheduler(SweepExecutor(), concurrency=2) as scheduler:
            first = scheduler.submit("ablation-atm", OPTIONS)["job"]
            second = scheduler.submit("ablation-atm", OPTIONS_B)["job"]
            for job_id in (first, second):
                counters = _wait(scheduler, job_id)["counters"]
                assert counters["cells"] == 10
                assert counters["computed"] == 10
                assert counters["memo_hits"] == 0
                assert counters["dedup_hits"] == 0

    def test_queue_positions_and_submission_order(self, gated):
        with JobScheduler(SweepExecutor(), concurrency=1) as scheduler:
            first = scheduler.submit("gated", RunOptions())["job"]
            deadline = time.monotonic() + 10
            while scheduler.get(first)["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            second = scheduler.submit("gated", RunOptions())
            third = scheduler.submit("gated", RunOptions())
            assert second["queue_position"] == 0
            assert third["queue_position"] == 1
            listing = scheduler.list()
            assert [r["job"] for r in listing] == \
                [first, second["job"], third["job"]]
            assert listing[0]["queue_position"] is None  # running
            assert [r["queue_position"] for r in listing[1:]] == [0, 1]
            stamps = [r["submitted_unix"] for r in listing]
            assert stamps == sorted(stamps)
            gated.set()
            for record in (second, third):
                assert _wait(scheduler, record["job"])["state"] == "done"
            assert all(r["queue_position"] is None
                       for r in scheduler.list())


class _GatedInlineExecutor(SweepExecutor):
    """Inline-only executor whose first compute blocks until released,
    and which reports when a follower attaches to an in-flight cell."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.compute_started = threading.Event()
        self.release = threading.Event()
        self.attached = threading.Event()
        self.calls = 0
        self._count_lock = threading.Lock()

    def _pool_usable(self):
        return False

    def _attempt_inline(self, cell, fp, attempt, capture=None):
        with self._count_lock:
            self.calls += 1
        self.compute_started.set()
        assert self.release.wait(30), "executor gate never opened"
        return super()._attempt_inline(cell, fp, attempt, capture)

    def _follow(self, fp, entry, capture):
        self.attached.set()
        return super()._follow(fp, entry, capture)


def _tiny_cell(seed=3):
    system = SystemConfig.baseline()
    return Cell(workload=profile("add"), trace_system=system,
                run_system=system,
                sim=SimConfig(requests_per_core=200, seed=seed),
                policy=None, policy_name="none")


class TestExecutorSingleflight:
    def test_second_thread_attaches_and_dedups(self):
        executor = _GatedInlineExecutor()
        out = {}

        def run(tag):
            with executor.scoped() as scope:
                out[f"{tag}_result"] = \
                    executor.run_cells([_tiny_cell()])[0]
                out[tag] = scope.stats

        owner = threading.Thread(target=run, args=("a",))
        owner.start()
        # The owner is mid-compute, holding the in-flight claim...
        assert executor.compute_started.wait(10)
        assert executor.inflight_cells() == 1
        follower = threading.Thread(target=run, args=("b",))
        follower.start()
        # ...and the follower demonstrably attached to it (no second
        # compute was started) before we let the owner finish.
        assert executor.attached.wait(10)
        executor.release.set()
        owner.join(30)
        follower.join(30)
        assert not owner.is_alive() and not follower.is_alive()

        assert executor.calls == 1  # computed exactly once
        assert executor.inflight_cells() == 0
        assert (out["a"].cells, out["a"].computed,
                out["a"].dedup_hits) == (1, 1, 0)
        assert (out["b"].cells, out["b"].computed, out["b"].memo_hits,
                out["b"].dedup_hits) == (1, 0, 1, 1)
        stats = executor.stats
        assert (stats.cells, stats.computed, stats.memo_hits,
                stats.dedup_hits) == (2, 1, 1, 1)
        assert out["a_result"].requests_completed == \
            out["b_result"].requests_completed


class _RaisingProgress(SweepProgress):
    """A progress sink that raises once a cell is computed, so its run
    raises before it publishes the result (abandons its claim)."""

    def __init__(self):
        super().__init__(stream=io.StringIO())

    def record(self, kind, seconds=None):
        if kind == "computed":
            raise RuntimeError("progress sink failed")
        super().record(kind, seconds)


def _race(executor, cell, owner_progress=None):
    """Run ``cell`` on an owner thread, attach a follower while the
    owner's first compute is held, then let both finish; returns each
    thread's ``(stats, result or exception)``."""
    out = {}

    def run(tag, progress):
        with executor.scoped(progress=progress) as scope:
            try:
                out[tag] = (scope, executor.run_cells([cell])[0])
            except Exception as exc:  # noqa: BLE001 — inspected below
                out[tag] = (scope, exc)

    owner = threading.Thread(target=run, args=("owner", owner_progress))
    owner.start()
    assert executor.compute_started.wait(10)
    follower = threading.Thread(target=run, args=("follower", None))
    follower.start()
    assert executor.attached.wait(10)
    executor.release.set()
    for thread in (owner, follower):
        thread.join(60)
        assert not thread.is_alive()
    return {tag: (scope.stats, value)
            for tag, (scope, value) in out.items()}


class TestClaimOutcomes:
    def test_abandoned_claim_is_computed_once_by_the_follower(self):
        cell = _tiny_cell(seed=5)
        with SweepExecutor() as reference:
            expected = reference.run_cells([cell])[0].to_json()
        executor = _GatedInlineExecutor()
        out = _race(executor, cell, owner_progress=_RaisingProgress())
        _, owner_value = out["owner"]
        follower_stats, follower_value = out["follower"]
        assert isinstance(owner_value, RuntimeError)
        # The follower scans the abandoned cell again and claims it.
        assert (follower_stats.computed, follower_stats.memo_hits,
                follower_stats.dedup_hits) == (1, 0, 0)
        assert follower_value.to_json() == expected
        assert executor.calls == 2  # the owner's attempt + the follower's
        assert executor.inflight_cells() == 0

    def test_terminal_failure_is_shared_with_the_follower(self):
        cell = _tiny_cell(seed=6)
        fp = cell_fingerprint(cell)
        faults.install(faults.FaultPlan.parse(f"crash:{fp[:12]}:99"))
        try:
            executor = _GatedInlineExecutor(
                policy=CellPolicy(retries=1, backoff_s=0.0,
                                  backoff_cap_s=0.0))
            out = _race(executor, cell)
        finally:
            faults.install(None)
        _, owner_value = out["owner"]
        follower_stats, follower_value = out["follower"]
        assert isinstance(owner_value, SweepFailure)
        assert isinstance(follower_value, SweepFailure)
        assert follower_value.failures == owner_value.failures
        assert owner_value.failures[0].fingerprint == fp
        assert owner_value.failures[0].attempts == 2
        assert executor.calls == 2  # both attempts were the owner's
        assert (follower_stats.computed, follower_stats.failed) == (0, 1)
        assert executor.inflight_cells() == 0


class TestClaimTableStress:
    def test_overlapping_runs_compute_every_cell_once(self):
        """Six threads race over a ring of six cells, each run taking
        three of them, with the interpreter switching threads as often
        as it can: every cell is computed exactly once, every other
        occurrence is a memo hit, and every result is right."""
        ring = [_tiny_cell(seed=seed) for seed in range(60, 66)]
        runs = [[ring[(i + k) % 6] for k in range(3)] for i in range(6)]
        with SweepExecutor() as reference:
            expected = {cell: result.to_json() for cell, result in
                        zip(ring, reference.run_cells(ring))}
        executor = SweepExecutor()
        out = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(
                target=lambda i=i: out.__setitem__(
                    i, executor.run_cells(runs[i])))
                for i in range(len(runs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        stats = executor.stats
        assert (stats.cells, stats.computed, stats.memo_hits) == \
            (18, 6, 12)
        for i, run in enumerate(runs):
            assert [result.to_json() for result in out[i]] == \
                [expected[cell] for cell in run]
        assert executor.inflight_cells() == 0


class _WindowProbe(SweepExecutor):
    """Records, per run, how many pooled first attempts are outstanding
    each time one is submitted, against the fair-share bound."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.both_running = threading.Barrier(2, timeout=30)
        self.outstanding: dict[int, int] = {}
        #: (outstanding first attempts of the run, active runs) at
        #: each pooled first attempt.
        self.samples: list[tuple[int, int]] = []

    def _run_owned(self, *args, **kwargs):
        self.both_running.wait()
        return super()._run_owned(*args, **kwargs)

    def _submit(self, cell, fp, attempt, capture=None):
        submitted = super()._submit(cell, fp, attempt, capture)
        if submitted is not None and attempt == 0:
            with self._lock:
                run = threading.get_ident()
                self.outstanding[run] = self.outstanding.get(run, 0) + 1
                self.samples.append((self.outstanding[run],
                                     self._active_runs))
        return submitted

    def _resolve_cell(self, fp, cell, future, pool, capture=None):
        try:
            return super()._resolve_cell(fp, cell, future, pool, capture)
        finally:
            if pool is not None:
                with self._lock:
                    self.outstanding[threading.get_ident()] -= 1


class TestFairShareWindow:
    def test_two_runs_keep_their_share_of_the_pool(self):
        jobs = 2
        sweeps = [[_tiny_cell(seed=seed) for seed in range(base, base + 5)]
                  for base in (20, 40)]
        results = {}
        with _WindowProbe(jobs=jobs) as executor:
            threads = [threading.Thread(
                target=lambda i=i: results.__setitem__(
                    i, executor.run_cells(sweeps[i])))
                for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
        assert sorted(results) == [0, 1]
        shared = [(count, active) for count, active in executor.samples
                  if active > 1]
        assert shared, "no first attempt was pooled while both ran"
        for count, active in shared:
            assert count <= math.ceil(jobs / active) + 1
        assert max(count for count, _ in shared) == \
            math.ceil(jobs / 2) + 1


@pytest.fixture
def concurrent_service():
    with JobScheduler(SweepExecutor(), concurrency=2) as scheduler:
        with ServiceThread(scheduler) as thread:
            yield thread


@pytest.fixture
def proxy(concurrent_service):
    flaky = FlakyProxy(concurrent_service.port)
    yield flaky
    flaky.close()


class TestStreamsAcrossConcurrentJobs:
    def test_reconnecting_streams_stay_gapless_and_per_job(
            self, proxy, concurrent_service):
        client = SweepClient(proxy.url)
        first = client.submit("ablation-atm", OPTIONS)
        second = client.submit("ablation-atm", OPTIONS_B)
        proxy.cut_next = 4
        streams = {}

        def consume(job_id):
            streams[job_id] = list(SweepClient(proxy.url)
                                   .stream(job_id))

        threads = [threading.Thread(target=consume, args=(job_id,))
                   for job_id in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
        for job_id in (first, second):
            events = streams[job_id]
            # Gapless and duplicate-free despite torn connections...
            assert [event["seq"] for event in events] == \
                list(range(len(events)))
            # ...and not one event from the *other* concurrent job.
            assert all(event["job"] == job_id for event in events)
            assert events[-1]["kind"] == "state"
            assert events[-1]["state"] == "done"
        assert proxy.connections >= 4  # both initial streams were cut
        # Results fetched through the flaky path are byte-identical to
        # the direct path.
        direct = SweepClient(concurrent_service.url)
        for job_id in (first, second):
            assert client.result(job_id, wait=False) == \
                direct.result(job_id, wait=False)

    def test_wait_many_returns_terminal_records_in_order(
            self, concurrent_service):
        client = SweepClient(concurrent_service.url)
        first = client.submit("ablation-atm", OPTIONS)
        second = client.submit("table4")
        records = client.wait_many([first, second])
        assert list(records) == [first, second]
        assert all(record["state"] == "done"
                   for record in records.values())


class TestReadinessUnderConcurrentSubmission:
    def test_queue_limit_accounting(self, gated):
        with JobScheduler(SweepExecutor(), concurrency=2) as scheduler:
            with ServiceThread(scheduler, queue_limit=3) as service:
                client = SweepClient(service.url)
                running = [client.submit("gated"), client.submit("gated")]
                deadline = time.monotonic() + 10
                while not all(r["state"] == "running"
                              for r in client.jobs()):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # Both workers are pinned; the queue is empty, so the
                # service is ready...
                assert _status(service.url + "/v1/readyz") == 200
                # ...and a burst of concurrent submissions is admitted
                # exactly up to the limit: the event loop serializes
                # the check-then-enqueue, so no interleaving can
                # oversubscribe the queue.
                statuses = []

                def try_submit():
                    statuses.append(_status(
                        service.url + "/v1/jobs", method="POST",
                        body=b'{"experiment": "gated"}'))

                threads = [threading.Thread(target=try_submit)
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                assert sorted(statuses) == [200] * 3 + [503] * 5
                assert _status(service.url + "/v1/readyz") == 503
                assert scheduler.queue_depth() == 3
                gated.set()
                deadline = time.monotonic() + 30
                while not all(r["state"] == "done"
                              for r in client.jobs()):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                assert _status(service.url + "/v1/readyz") == 200
                assert len(client.jobs()) == len(running) + 3

    def test_concurrency_metrics_exposed(self, concurrent_service):
        text = urllib.request.urlopen(
            concurrent_service.url + "/v1/metrics").read().decode()
        samples = parse_exposition(text)
        assert sample_value(samples,
                            "repro_scheduler_concurrency") == 2.0
        assert sample_value(samples,
                            "repro_scheduler_workers_alive") == 2.0
        assert sample_value(samples,
                            "repro_scheduler_inflight_cells") == 0.0
        assert sample_value(samples,
                            "repro_executor_dedup_hits_total") == 0.0


def _status(url, method="GET", body=None):
    request = urllib.request.Request(url, method=method, data=body)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


class TestTopRateClamp:
    def test_restart_counter_reset_clamps_to_zero(self):
        dashboard = TopDashboard(["http://i"], stream=io.StringIO())

        def sample(total):
            return InstanceSample(url="http://i", ok=True,
                                  cells_total=total)

        assert dashboard._rate(sample(100), 10.0) is None  # first poll
        # The instance restarted: its counter reset below the previous
        # poll.  Render idle, not a negative rate...
        assert dashboard._rate(sample(40), 20.0) == 0.0
        # ...and the next poll is re-baselined against the new counter.
        assert dashboard._rate(sample(90), 30.0) == 5.0
