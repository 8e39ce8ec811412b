"""Observability-plane tests: health/readiness gating, the metrics
exposition, remote span export, access logging, the ``top`` dashboard,
and the determinism contract (results byte-identical with the plane on
or off)."""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro import cli
from repro.exec.executor import SweepExecutor
from repro.experiments import registry
from repro.experiments.common import RunOptions
from repro.obs import Telemetry
from repro.obs import runtime as obs_runtime
from repro.obs.exporter import parse_exposition, sample_value
from repro.service import JobScheduler, ServiceThread, SweepClient
from repro.service.client import ServiceError
from repro.service.jobs import SpansUnavailable
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


def _get(url: str):
    try:
        with urllib.request.urlopen(url) as response:
            return (response.status, response.read(),
                    dict(response.getheaders()))
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def _run_cli(argv):
    import contextlib

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class TestHealthReadiness:
    def test_healthz(self, service, client):
        status, body, _headers = _get(f"{service.url}/v1/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True}
        assert client.health() == {"ok": True}

    def test_readyz_ready(self, service, client):
        status, body, _headers = _get(f"{service.url}/v1/readyz")
        assert status == 200
        checks = json.loads(body)["checks"]
        assert checks == {"worker_alive": True, "cache_writable": True,
                          "queue_below_limit": True}
        assert client.ready()["ready"] is True

    def test_readyz_503_when_queue_full(self, scheduler):
        with ServiceThread(scheduler, queue_limit=0) as service:
            status, body, headers = _get(f"{service.url}/v1/readyz")
            assert status == 503
            assert headers.get("Retry-After") == "1"
            doc = json.loads(body)
            assert doc["checks"]["queue_below_limit"] is False
            assert doc["retry_after_s"] == 1
            assert "queue_below_limit" in doc["error"]
            ready = SweepClient(service.url).ready()
            assert ready["ready"] is False

    def test_readyz_503_when_worker_dead(self, scheduler):
        with ServiceThread(scheduler) as service:
            scheduler.close()  # kills the worker thread
            status, body, _headers = _get(f"{service.url}/v1/readyz")
            assert status == 503
            assert json.loads(body)["checks"]["worker_alive"] is False


class TestSubmitGating:
    def test_submit_503_carries_retry_after_and_never_retries(
            self, scheduler):
        sleeps = []
        with ServiceThread(scheduler, queue_limit=0) as service:
            client = SweepClient(service.url, sleep=sleeps.append)
            with pytest.raises(ServiceError,
                               match="503.*retry after 1s") as excinfo:
                client.submit("table4", OPTIONS)
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after_s == 1.0
        # Job creation is single-shot: an HTTP answer is never retried,
        # so the backoff sleeper must not have fired.
        assert sleeps == []
        assert scheduler.stats()["jobs_total"] == 0

    def test_submit_allowed_when_ready(self, service, client):
        job_id = client.submit("table4", OPTIONS)
        assert client.wait(job_id)["state"] == "done"


class TestMetrics:
    def test_exposition_valid_while_job_runs(self, service, client):
        job_id = client.submit("table4", OPTIONS)
        status, body, headers = _get(f"{service.url}/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4")
        samples = parse_exposition(body.decode("utf-8"))  # strict
        assert sample_value(samples, "repro_jobs_total") == 1
        assert sample_value(samples, "repro_scheduler_worker_up") == 1
        assert sample_value(samples, "repro_queue_depth") is not None
        assert sample_value(samples, "repro_proc_rss_bytes") > 0
        assert sample_value(samples, "repro_proc_open_fds") > 0
        client.wait(job_id)

    def test_counters_update_after_job(self, service, client):
        client.wait(client.submit("fig9", OPTIONS))
        samples = parse_exposition(client.metrics_text())
        assert sample_value(samples, "repro_jobs_state",
                            state="done") == 1
        assert sample_value(samples, "repro_executor_cells_total") > 0
        assert sample_value(samples, "repro_executor_computed_total") > 0
        # Jobs run with spans, and a cell run with telemetry never
        # replays.
        assert sample_value(samples, "repro_executor_replayed_total") == 0

    def test_job_record_counts_replays_only_without_spans(self):
        """A cold job replays the designs that never act when spans are
        off; with spans on, the default, every cell is simulated."""
        replayed = {}
        for spans in (True, False):
            with JobScheduler(SweepExecutor(), spans=spans) as sched, \
                    ServiceThread(sched) as service:
                client = SweepClient(service.url)
                record = client.wait(client.submit("fig9", OPTIONS))
                replayed[spans] = record["counters"]["replayed"]
        assert replayed[True] == 0
        assert replayed[False] > 0

    def test_cache_counters_when_cache_configured(self, tmp_path):
        from repro.exec.cache import RunCache

        executor = SweepExecutor(cache=RunCache(str(tmp_path / "c")))
        with JobScheduler(executor) as scheduler, \
                ServiceThread(scheduler) as service:
            client = SweepClient(service.url)
            client.wait(client.submit("fig9", OPTIONS))
            samples = parse_exposition(client.metrics_text())
            stores = sample_value(samples, "repro_cache_stores_total")
            assert stores is not None and stores > 0


class TestRemoteSpans:
    def test_remote_equals_local_artifact_byte_identical(
            self, service, client, tmp_path):
        job_id = client.submit("table4", OPTIONS)
        client.wait(job_id)
        remote_text = client.spans(job_id)
        # The same document written as a local artifact must analyse
        # byte-identically through both CLI paths.
        artifact = tmp_path / "spans.json"
        artifact.write_text(remote_text, encoding="utf-8")
        code_local, out_local = _run_cli(["spans", str(artifact)])
        code_remote, out_remote = _run_cli(
            ["spans", "--url",
             f"{service.url}/v1/jobs/{job_id}/spans"])
        assert code_local == code_remote == 0
        assert out_local == out_remote
        assert "critical path" in out_remote

    def test_remote_tree_matches_local_run(self, service, client):
        from repro.analysis.spans import decode_spans

        job_id = client.submit("table4", OPTIONS)
        client.wait(job_id)
        remote = decode_spans(json.loads(client.spans(job_id)))

        telemetry = Telemetry()
        with obs_runtime.activated(telemetry):
            registry.run_experiment("table4", OPTIONS)
        telemetry.finalize()
        local = decode_spans(telemetry.spans_doc())

        def normalized(span):
            return {"name": span.name, "kind": span.kind,
                    "children": [normalized(child)
                                 for child in span.children]}

        remote_tree = json.dumps([normalized(r) for r in remote.roots],
                                 sort_keys=True)
        local_tree = json.dumps([normalized(r) for r in local.roots],
                                sort_keys=True)
        assert remote_tree == local_tree

    def test_spans_before_done_is_409(self, service, client):
        job_id = client.submit("table4", OPTIONS)
        status, _body, _headers = _get(
            f"{service.url}/v1/jobs/{job_id}/spans")
        # Depending on timing the job may already be done; only the
        # not-done answer is 409.
        record = client.job(job_id)
        if record["state"] in ("queued", "running"):
            assert status == 409
        client.wait(job_id)
        assert client.spans(job_id)  # now available

    def test_spans_unknown_job_404(self, service, client):
        with pytest.raises(ServiceError, match="404") as excinfo:
            client.spans("j999")
        assert excinfo.value.status == 404

    def test_spans_disabled_404(self):
        with JobScheduler(SweepExecutor(), spans=False) as scheduler:
            with pytest.raises(SpansUnavailable):
                scheduler.spans_text("j1")
            with ServiceThread(scheduler) as service:
                client = SweepClient(service.url)
                job_id = client.submit("table4", OPTIONS)
                client.wait(job_id)
                with pytest.raises(ServiceError, match="404"):
                    client.spans(job_id)


class TestDeterminismContract:
    def test_results_identical_with_plane_on_and_off(self):
        texts = []
        for spans in (True, False):
            with JobScheduler(SweepExecutor(), spans=spans) as sched, \
                    ServiceThread(sched) as service:
                client = SweepClient(service.url)
                job_id = client.submit("table4", OPTIONS)
                client.wait(job_id)
                texts.append(client.result(job_id))
        assert texts[0] == texts[1]

    def test_remote_result_matches_local_run(self, client):
        job_id = client.submit("table4", OPTIONS)
        remote = client.result(job_id)
        local = registry.run_experiment("table4", OPTIONS).to_json()
        assert remote == local


class TestAccessLog:
    def test_records_written_with_job_attribution(self, scheduler,
                                                  tmp_path):
        log_path = tmp_path / "access.jsonl"
        with ServiceThread(scheduler,
                           access_log=AccessLog(str(log_path))) \
                as service:
            client = SweepClient(service.url)
            job_id = client.submit("table4", OPTIONS)
            client.wait(job_id)
            client.result(job_id)
            _get(f"{service.url}/v1/nope")
        records = [json.loads(line) for line
                   in log_path.read_text().splitlines()]
        assert records, "no access records written"
        for record in records:
            assert record["v"] == 1
            assert record["kind"] == "access"
            assert record["duration_us"] >= 0
            assert record["bytes"] > 0
        submit = next(r for r in records if r["method"] == "POST")
        assert submit["path"] == "/v1/jobs"
        assert submit["job"] == job_id
        assert submit["status"] == 200
        missing = next(r for r in records if r["path"] == "/v1/nope")
        assert missing["status"] == 404
        result = next(r for r in records
                      if r["path"].endswith("/result"))
        assert result["job"] == job_id

    def test_stats_cli_summarises(self, scheduler, tmp_path, capsys):
        log_path = tmp_path / "access.jsonl"
        with ServiceThread(scheduler,
                           access_log=AccessLog(str(log_path))) \
                as service:
            client = SweepClient(service.url)
            client.wait(client.submit("table4", OPTIONS))
        code = cli.main(["stats", "--access-log", str(log_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "GET /v1/jobs/<id>" in out  # job ids folded per route
        assert "POST /v1/jobs" in out
        assert "p95_us" in out

    def test_stats_requires_exactly_one_input(self, capsys, tmp_path):
        assert cli.main(["stats"]) == 2
        assert "exactly one input" in capsys.readouterr().err
        log = tmp_path / "a.jsonl"
        log.write_text('{"kind": "access", "v": 1}\n')
        assert cli.main(["stats", "journal.jsonl",
                         "--access-log", str(log)]) == 2

    def test_newer_schema_refused(self, tmp_path, capsys):
        log = tmp_path / "future.jsonl"
        log.write_text('{"kind": "access", "v": 99}\n')
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["stats", "--access-log", str(log)])
        assert excinfo.value.code == 2
        assert "upgrade repro" in capsys.readouterr().err


class TestTopDashboard:
    def test_once_against_live_service_non_tty(self, service, client,
                                               capsys):
        client.wait(client.submit("table4", OPTIONS))
        code = cli.main(["top", "--once", "--url", service.url])
        out = capsys.readouterr().out
        assert code == 0
        assert service.url in out
        assert "done=1" in out
        assert "queue=0" in out
        assert "rss=" in out
        assert "\x1b[2J" not in out  # non-TTY: no clear-screen

    def test_once_unreachable_exits_2(self, capsys):
        code = cli.main(["top", "--once",
                         "--url", "http://127.0.0.1:9"])
        out = capsys.readouterr().out
        assert code == 2
        assert "UNREACHABLE" in out

    def test_tty_mode_clears_screen_and_rates(self):
        from repro.analysis.top import InstanceSample, TopDashboard

        class TtyStream(io.StringIO):
            def isatty(self):
                return True

        cells = iter((100, 250))

        def fake_fetch(url, timeout_s=None):
            return InstanceSample(url=url, ok=True, worker_up=True,
                                  states={"done": 1},
                                  cells_total=next(cells),
                                  cache_hits=3, cache_misses=1,
                                  rss_bytes=1 << 20)

        clock_values = iter((0.0, 1.0))
        stream = TtyStream()
        dashboard = TopDashboard(["http://a:1"], interval_s=0.0,
                                 stream=stream, fetch=fake_fetch,
                                 clock=lambda: next(clock_values),
                                 sleep=lambda _s: None)
        assert dashboard.interactive is True
        code = dashboard.run(max_rounds=2)
        out = stream.getvalue()
        assert code == 0
        assert out.count("\x1b[2J") == 2
        assert "cells/s=-" in out       # first poll: no baseline
        assert "cells/s=150.0" in out   # (250-100)/1s
        assert "cache=75%" in out
        assert "rss=1.0MiB" in out
