"""Sweep service tests: scheduler lifecycle, HTTP surface, cache
coalescing, and result byte-identity against local ``run_experiment``."""

import json
import socket
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
from repro.service.server import AccessLog
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

    @pytest.mark.parametrize("length", ["abc", "-5", "1e3"])
    def test_malformed_content_length_is_400(self, service, length):
        """A Content-Length that is not a decimal digit string is bad
        input: 400 with an ``error`` body, not a server error."""
        with socket.create_connection((service.host, service.port),
                                      timeout=30) as sock:
            sock.sendall(f"POST /v1/jobs HTTP/1.1\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode())
            response = sock.makefile("rb").read()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert "Content-Length" in json.loads(body)["error"]

    @pytest.mark.parametrize("head,status,method,path", [
        ("POST /v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
         400, "POST", "/v1/jobs"),
        ("POST /v1/jobs?x=1 HTTP/1.1\r\nContent-Length: 999999999\r\n"
         "\r\n", 413, "POST", "/v1/jobs"),
        ("HELLO\r\n\r\n", 400, "-", "-"),
        ("GET /" + "x" * 70_000 + " HTTP/1.1\r\n\r\n", 500, "-", "-"),
    ], ids=["length-abc", "length-too-large", "one-word-line",
            "line-over-stream-limit"])
    def test_rejected_request_reaches_the_access_log(self, scheduler,
                                                     tmp_path, head,
                                                     status, method, path):
        """Requests refused before routing are logged like any other
        response, with ``-`` for a request line that does not split or
        is longer than the stream reader's 64 KiB limit."""
        log_path = tmp_path / "access.jsonl"
        with ServiceThread(scheduler,
                           access_log=AccessLog(str(log_path))) \
                as service:
            with socket.create_connection((service.host, service.port),
                                          timeout=30) as sock:
                sock.sendall(head.encode())
                response = sock.makefile("rb").read()
        assert response.split()[1] == str(status).encode()
        (record,) = [json.loads(line)
                     for line in log_path.read_text().splitlines()]
        assert (record["method"], record["path"], record["status"]) == \
            (method, path, status)
        assert record["bytes"] == len(response)

    @pytest.mark.parametrize("head", [
        "", "POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
    ], ids=["no-request-line", "body-cut-short"])
    def test_connection_answered_nothing_is_not_logged(self, scheduler,
                                                       tmp_path, head):
        """A client that closes before a request line, or before the
        body it announced, gets no response and no record."""
        log_path = tmp_path / "access.jsonl"
        with ServiceThread(scheduler,
                           access_log=AccessLog(str(log_path))) \
                as service:
            with socket.create_connection((service.host, service.port),
                                          timeout=30) as sock:
                sock.sendall(head.encode())
                sock.shutdown(socket.SHUT_WR)
                assert sock.makefile("rb").read() == b""
            SweepClient(service.url).experiments()
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        assert [record["path"] for record in records] == \
            ["/v1/experiments"]

    @pytest.mark.parametrize("field,value", [("resume", True),
                                             ("backend", "auto")])
    def test_removed_option_field_is_400(self, service, field, value):
        """A 2.x payload carrying a field 3.0 removed is rejected, and
        the answer names the field."""
        options = dict(OPTIONS.to_dict(), **{field: value})
        body = json.dumps({"experiment": "ablation-atm",
                           "options": options}).encode()
        request = urllib.request.Request(service.url + "/v1/jobs",
                                         method="POST", data=body)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert field in json.loads(excinfo.value.read())["error"]

    def test_negative_seed_is_400(self, service):
        """A seed numpy cannot take is refused at submission, naming the
        field, instead of failing every cell of the job."""
        options = dict(OPTIONS.to_dict(), seed=-1)
        body = json.dumps({"experiment": "ablation-atm",
                           "options": options}).encode()
        request = urllib.request.Request(service.url + "/v1/jobs",
                                         method="POST", data=body)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "seed" in json.loads(excinfo.value.read())["error"]

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
