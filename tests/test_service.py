"""Sweep service tests: scheduler lifecycle, HTTP surface, cache
coalescing, and result byte-identity against local ``run_experiment``."""

import json
import urllib.error
import urllib.request

import pytest

from repro.exec.executor import SweepExecutor
from repro.exec.resilience import CellPolicy
from repro.experiments import registry
from repro.experiments.common import RunOptions
from repro.service import (BadSubmission, JobScheduler, ServiceThread,
                           SweepClient, UnknownJob)
from repro.service.jobs import JobFailedError, JobNotDone
from repro.workloads.builder import clear_cache

#: Small per-core budget so a job is a ~1 s ten-cell sweep.
BUDGET = 500

OPTIONS = RunOptions(seed=11, requests_per_core=BUDGET)


@pytest.fixture(autouse=True)
def _small_world(monkeypatch):
    monkeypatch.setattr("repro.workloads.profiles.QUICK_SUBSET",
                        ("blender", "add"))
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def scheduler():
    with JobScheduler(SweepExecutor()) as sched:
        yield sched


@pytest.fixture
def service(scheduler):
    with ServiceThread(scheduler) as thread:
        yield thread


@pytest.fixture
def client(service):
    return SweepClient(service.url)


class TestScheduler:
    def test_submit_returns_queued_record(self, scheduler):
        record = scheduler.submit("table4", RunOptions())
        assert record["state"] == "queued"
        assert record["experiment"] == "table4"
        assert record["job"] == "j1"
        assert record["options"] == RunOptions().to_dict()

    def test_unknown_experiment_rejected(self, scheduler):
        with pytest.raises(BadSubmission, match="unknown experiment"):
            scheduler.submit("nope", RunOptions())

    def test_resume_accepted_as_a_no_op(self, scheduler):
        # The deprecated knob rides the wire until 3.0 and changes
        # nothing: the shared cache is the only resume mechanism.
        with pytest.warns(DeprecationWarning):
            options = RunOptions(seed=11, requests_per_core=BUDGET,
                                 resume=True)
        job_id = scheduler.submit("ablation-atm", options)["job"]
        record = _wait(scheduler, job_id)
        assert record["state"] == "done"
        assert "resumed" not in record["counters"]
        assert scheduler.result_text(job_id) == registry.run_experiment(
            "ablation-atm", OPTIONS).to_json()

    def test_unknown_job_raises(self, scheduler):
        with pytest.raises(UnknownJob):
            scheduler.get("j99")
        with pytest.raises(UnknownJob):
            scheduler.result_text("j99")
        with pytest.raises(UnknownJob):
            scheduler.events_since("j99")

    def test_job_lifecycle_to_done(self, scheduler):
        job_id = scheduler.submit("table4", RunOptions())["job"]
        record = _wait(scheduler, job_id)
        assert record["state"] == "done"
        assert record["error"] is None
        text = scheduler.result_text(job_id)
        assert json.loads(text)["experiment"] == "table4"

    def test_result_before_done_raises_not_done(self, scheduler):
        # An analytic job finishes fast; queue two sim jobs so the
        # second is reliably pending when we poke it.
        scheduler.submit("ablation-atm", OPTIONS)
        job_id = scheduler.submit("ablation-atm", OPTIONS)["job"]
        with pytest.raises(JobNotDone):
            scheduler.result_text(job_id)
        _wait(scheduler, job_id)

    def test_event_log_is_append_only_with_monotonic_seq(self, scheduler):
        job_id = scheduler.submit("ablation-atm", OPTIONS)["job"]
        _wait(scheduler, job_id)
        events, terminal = scheduler.events_since(job_id)
        assert terminal
        assert [event["seq"] for event in events] == \
            list(range(len(events)))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "state" and kinds[-1] == "state"
        assert kinds.count("computed") == 10  # 2 workloads x 5 designs

    def test_events_since_cursor(self, scheduler):
        job_id = scheduler.submit("table4", RunOptions())["job"]
        _wait(scheduler, job_id)
        events, _ = scheduler.events_since(job_id)
        tail, terminal = scheduler.events_since(job_id,
                                                events[2]["seq"])
        assert terminal
        assert tail == events[3:]

    def test_failed_job_isolates_and_reports(self, scheduler):
        from repro.exec import faults

        faults.install(faults.FaultPlan.parse("crash:*:99"))
        try:
            job_id = scheduler.submit(
                "ablation-atm",
                RunOptions(seed=11, requests_per_core=BUDGET,
                           retries=0))["job"]
            record = _wait(scheduler, job_id)
        finally:
            faults.install(None)
        assert record["state"] == "failed"
        assert record["error"]
        with pytest.raises(JobFailedError):
            scheduler.result_text(job_id)
        # The scheduler survives: a clean job still runs afterwards.
        ok = scheduler.submit("table4", RunOptions())["job"]
        assert _wait(scheduler, ok)["state"] == "done"

    def test_job_without_knobs_keeps_the_executor_policy(self,
                                                         monkeypatch):
        # The executor's retries=0 is the job's policy, so every cell's
        # one injected crash is terminal.
        monkeypatch.setenv("REPRO_FAULTS", "crash:*:1")
        with JobScheduler(SweepExecutor(policy=CellPolicy(retries=0))) \
                as scheduler:
            job_id = scheduler.submit(
                "ablation-atm", RunOptions(requests_per_core=300))["job"]
            record = _wait(scheduler, job_id)
        assert record["state"] == "failed"
        assert record["counters"]["retries"] == 0


class TestCoalescing:
    @pytest.mark.parametrize("experiment", ["ablation-atm", "table3",
                                            "motivation-trr"])
    def test_identical_submissions_share_cell_work(self, scheduler,
                                                   experiment):
        first = scheduler.submit(experiment, OPTIONS)["job"]
        second = scheduler.submit(experiment, OPTIONS)["job"]
        cold = _wait(scheduler, first)
        warm = _wait(scheduler, second)
        assert cold["counters"]["computed"] == cold["counters"]["cells"]
        assert warm["counters"]["cells"] > 0
        assert warm["counters"]["computed"] == 0
        assert warm["counters"]["memo_hits"] == warm["counters"]["cells"]
        assert scheduler.result_text(first) == \
            scheduler.result_text(second)

    def test_warm_result_byte_identical_to_local(self, scheduler):
        job_id = scheduler.submit("ablation-atm", OPTIONS)["job"]
        _wait(scheduler, job_id)
        warm = scheduler.submit("ablation-atm", OPTIONS)["job"]
        _wait(scheduler, warm)
        clear_cache()
        local = registry.run_experiment("ablation-atm", OPTIONS)
        assert scheduler.result_text(warm) == local.to_json()


class TestHttpSurface:
    def test_experiments_endpoint(self, client):
        assert client.experiments() == registry.names()

    def test_submit_stream_result_round_trip(self, client):
        job_id = client.submit("ablation-atm", OPTIONS)
        events = list(client.stream(job_id))
        assert events[-1]["kind"] == "state"
        assert events[-1]["state"] == "done"
        assert [event["seq"] for event in events] == \
            list(range(len(events)))
        clear_cache()
        local = registry.run_experiment("ablation-atm", OPTIONS)
        assert client.result(job_id) == local.to_json()

    def test_jobs_listing(self, client):
        first = client.submit("table4")
        second = client.submit("table3")
        client.wait(second)
        records = client.jobs()
        assert [record["job"] for record in records] == [first, second]

    def test_http_error_statuses(self, service, client):
        from repro.service.client import ServiceError

        def status_of(path, method="GET", body=None):
            request = urllib.request.Request(
                service.url + path, method=method, data=body)
            try:
                with urllib.request.urlopen(request) as response:
                    return response.status
            except urllib.error.HTTPError as error:
                return error.code

        assert status_of("/v1/jobs/j99") == 404
        assert status_of("/nope") == 404
        assert status_of("/v1/jobs", method="POST",
                         body=b'{"experiment": "nope"}') == 400
        assert status_of("/v1/jobs", method="POST",
                         body=b'{"experiment": "table4", '
                              b'"options": {"bogus": 1}}') == 400
        assert status_of("/v1/jobs", method="DELETE") == 405
        with pytest.raises(ServiceError) as excinfo:
            client.job("j99")
        assert excinfo.value.status == 404

    def test_result_of_failed_job_is_410(self, service, client):
        from repro.exec import faults

        faults.install(faults.FaultPlan.parse("crash:*:99"))
        try:
            job_id = client.submit(
                "ablation-atm",
                RunOptions(seed=11, requests_per_core=BUDGET,
                           retries=0))
            record = client.wait(job_id)
        finally:
            faults.install(None)
        assert record["state"] == "failed"
        from repro.service.client import JobFailed, ServiceError

        with pytest.raises(JobFailed):
            client.result(job_id)
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id, wait=False)
        assert excinfo.value.status == 410

    def test_result_before_done_is_409(self, client):
        client.submit("ablation-atm", OPTIONS)
        job_id = client.submit("ablation-atm", OPTIONS)
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id, wait=False)
        assert excinfo.value.status == 409
        client.wait(job_id)

    def test_stream_resumes_from_cursor(self, service, client):
        job_id = client.submit("ablation-atm", OPTIONS)
        all_events = list(client.stream(job_id))
        # A fresh stream with ?after=N replays exactly the tail.
        connection = urllib.request.urlopen(
            f"{service.url}/v1/jobs/{job_id}/events"
            f"?after={all_events[4]['seq']}")
        tail = [json.loads(line) for line in connection.read()
                .decode().splitlines()]
        assert tail == all_events[5:]


def _wait(scheduler, job_id, timeout_s=60.0):
    import time

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = scheduler.get(job_id)
        if record["state"] in ("done", "failed"):
            return record
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish")
