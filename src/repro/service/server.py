"""Asyncio HTTP server exposing the sweep service's v1 job API.

Hand-rolled on ``asyncio.start_server`` — no third-party dependency,
no ``http.server`` thread-per-connection machinery.  The endpoint
surface (all request/response bodies are JSON unless noted):

==========================================  ===========================
``GET  /v1/experiments``                    registered experiment names
``POST /v1/jobs``                           submit: ``{"experiment":
                                            name, "options": {...}}``
                                            → the queued job record
``GET  /v1/jobs``                           ``{"jobs": [records...]}``
``GET  /v1/jobs/<id>``                      one job record (state
                                            machine + exec counters)
``GET  /v1/jobs/<id>/events[?after=N]``     NDJSON stream of the job's
                                            events with ``seq > N``,
                                            live until the terminal
                                            ``state`` event
``GET  /v1/jobs/<id>/result``               the deterministic merged
                                            result JSON, byte-identical
                                            to local ``run_experiment``
``GET  /v1/jobs/<id>/spans``                the finished job's span
                                            document (``repro spans
                                            --url`` input)
``GET  /v1/healthz``                        liveness: 200 while the
                                            process serves requests
``GET  /v1/readyz``                         readiness: 200 when the
                                            worker is alive, the cache
                                            dir writable and the queue
                                            below the high-water mark;
                                            503 (+ ``Retry-After``)
                                            otherwise
``GET  /v1/metrics``                        Prometheus text exposition
                                            of scheduler/executor/
                                            cache/resource metrics
==========================================  ===========================

Error taxonomy: 400 bad submission (unknown experiment, invalid
options) or malformed request (request line, ``Content-Length``), 404
unknown job or path, 409 result requested before the job is done, 410
result of a failed job, 413 oversized body, 503 submission while not
ready (the ``Retry-After`` header and ``retry_after_s`` body
field say when to retry) — every error body is ``{"error": message}``.

The compute itself happens on the scheduler's worker threads (up to
``--job-concurrency`` jobs at once); the event loop only parses
requests and serialises records, so status and stream requests stay
responsive while jobs simulate.  Because the loop is single-threaded,
the readiness check inside a submission and the enqueue are atomic with
respect to other submissions — concurrent clients cannot overshoot the
queue limit through the API.  Event streaming polls
the scheduler's append-only per-job event log (cursor = last ``seq``),
which is also what makes client reconnects exact: the ``after`` query
parameter resumes the stream without loss or duplication.

With ``access_log`` configured every request additionally appends one
schema-versioned JSONL record (method, path, status, duration_us, job
id, wire bytes) — summarised by ``repro stats --access-log``.  The
exposition/health/log surfaces are wall-clock-bearing and explicitly
outside the byte-identity determinism contract.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time

from repro.experiments import registry
from repro.experiments.common import RunOptions
from repro.obs.resource import ResourceSampler
from repro.service.jobs import (BadSubmission, JobFailedError, JobNotDone,
                                JobScheduler, SpansUnavailable, UnknownJob)

#: Largest accepted request body (a submission is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

#: Seconds between event-log polls while streaming a live job.
STREAM_POLL_S = 0.02

#: Default readiness high-water mark: queued-but-not-started jobs at or
#: beyond this depth flip ``/v1/readyz`` (and submissions) to 503.
DEFAULT_QUEUE_LIMIT = 64

#: ``Retry-After`` seconds advertised with a 503.
RETRY_AFTER_S = 1

#: Version stamped into every access-log record; bump on breaking
#: schema changes.
ACCESS_LOG_SCHEMA_VERSION = 1

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
            413: "Payload Too Large", 500: "Internal Server Error",
            503: "Service Unavailable"}


class AccessLog:
    """Append-only JSONL request log.

    One record per served request::

        {"v": 1, "kind": "access", "ts": 1754650000.123,
         "method": "GET", "path": "/v1/jobs/j1", "status": 200,
         "duration_us": 812, "job": "j1", "bytes": 631}

    Each record is a single ``write()`` of one complete line on an
    ``O_APPEND`` handle, flushed immediately — so concurrent writers
    cannot interleave partial lines and a killed service never leaves a
    torn record (the JSONL analogue of the run cache's atomic-replace
    discipline).  ``repro stats --access-log FILE`` summarises the file
    through the shared artifact taxonomy.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.written = 0
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")

    def record(self, method: str, path: str, status: int,
               duration_us: int, job: str | None,
               response_bytes: int) -> None:
        """Append one access record."""
        line = json.dumps(
            {"v": ACCESS_LOG_SCHEMA_VERSION, "kind": "access",
             "ts": round(time.time(), 6), "method": method,
             "path": path, "status": status,
             "duration_us": duration_us, "job": job,
             "bytes": response_bytes},
            sort_keys=True) + "\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            self._handle.close()


class _LoggedWriter:
    """StreamWriter proxy accounting method/path (``-`` until a request
    line splits) and status/bytes/job for one request."""

    __slots__ = ("_writer", "method", "path", "status", "sent", "job")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.method = "-"
        self.path = "-"
        self.status: int | None = None
        self.sent = 0
        self.job: str | None = None

    def write(self, data: bytes) -> None:
        self.sent += len(data)
        self._writer.write(data)

    async def drain(self) -> None:
        await self._writer.drain()

    def close(self) -> None:
        self._writer.close()

    async def wait_closed(self) -> None:
        await self._writer.wait_closed()


class SweepService:
    """The HTTP front half: routes requests onto a :class:`JobScheduler`.

    ``port=0`` binds an ephemeral port; the bound port is available as
    :attr:`port` after :meth:`start`.
    """

    def __init__(self, scheduler: JobScheduler,
                 host: str = "127.0.0.1", port: int = 0,
                 access_log: AccessLog | None = None,
                 queue_limit: int | None = None) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.access_log = access_log
        self.queue_limit = DEFAULT_QUEUE_LIMIT if queue_limit is None \
            else queue_limit
        self.resources = ResourceSampler(scheduler.registry)
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      raw_writer: asyncio.StreamWriter) -> None:
        writer = _LoggedWriter(raw_writer)
        request = None
        started = time.perf_counter()
        try:
            request = await self._read_request(reader, writer)
            if request is not None:
                method, path, query, body = request
                await self._route(writer, method, path, query, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except Exception as exc:  # noqa: BLE001 — keep the server up
            try:
                self._respond_json(writer, 500,
                                   {"error": f"{type(exc).__name__}: "
                                             f"{exc}"})
            except ConnectionError:
                pass
        finally:
            # Every response written gets a record, those refused
            # before routing included, and so does every routed
            # request; a connection answered nothing gets none.
            if self.access_log is not None and (
                    request is not None or writer.status is not None):
                duration_us = int((time.perf_counter() - started) * 1e6)
                self.access_log.record(
                    writer.method, writer.path, writer.status or 0,
                    duration_us, writer.job, writer.sent)
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader, writer):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            self._respond_json(writer, 400,
                               {"error": "malformed request line"})
            return None
        path, _, raw_query = target.partition("?")
        writer.method, writer.path = method.upper(), path
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            self._respond_json(writer, 400,
                               {"error": f"malformed Content-Length: "
                                         f"{raw_length!r}"})
            return None
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            self._respond_json(writer, 413, {"error": "body too large"})
            return None
        body = await reader.readexactly(length) if length else b""
        query: dict[str, str] = {}
        for pair in raw_query.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                query[key] = value
        return method.upper(), path, query, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, writer, method: str, path: str,
                     query: dict[str, str], body: bytes) -> None:
        parts = [part for part in path.split("/") if part]
        if parts == ["v1", "experiments"] and method == "GET":
            self._respond_json(writer, 200,
                               {"experiments": registry.names()})
            return
        if parts == ["v1", "healthz"] and method == "GET":
            self._respond_json(writer, 200, {"ok": True})
            return
        if parts == ["v1", "readyz"] and method == "GET":
            ready, checks = self._readiness()
            if ready:
                self._respond_json(writer, 200,
                                   {"ok": True, "checks": checks})
            else:
                self._respond_unready(writer, checks)
            return
        if parts == ["v1", "metrics"] and method == "GET":
            from repro.obs.exporter import EXPOSITION_CONTENT_TYPE
            self._respond(writer, 200,
                          self._metrics_text().encode("utf-8"),
                          EXPOSITION_CONTENT_TYPE)
            return
        if parts == ["v1", "jobs"]:
            if method == "POST":
                self._submit(writer, body)
            elif method == "GET":
                self._respond_json(writer, 200,
                                   {"jobs": self.scheduler.list()})
            else:
                self._respond_json(writer, 405,
                                   {"error": f"{method} not allowed"})
            return
        if len(parts) in (3, 4) and parts[:2] == ["v1", "jobs"] \
                and method == "GET":
            job_id = parts[2]
            tail = parts[3] if len(parts) == 4 else None
            writer.job = job_id
            try:
                if tail is None:
                    self._respond_json(writer, 200,
                                       self.scheduler.get(job_id))
                elif tail == "events":
                    await self._stream_events(writer, job_id, query)
                elif tail == "result":
                    text = self.scheduler.result_text(job_id)
                    self._respond(writer, 200, text.encode("utf-8"),
                                  "application/json")
                elif tail == "spans":
                    text = self.scheduler.spans_text(job_id)
                    self._respond(writer, 200, text.encode("utf-8"),
                                  "application/json")
                else:
                    self._respond_json(writer, 404,
                                       {"error": f"unknown endpoint "
                                                 f"{path!r}"})
            except UnknownJob:
                self._respond_json(writer, 404,
                                   {"error": f"unknown job {job_id!r}"})
            except SpansUnavailable as disabled:
                self._respond_json(writer, 404, {"error": str(disabled)})
            except JobNotDone as pending:
                self._respond_json(writer, 409,
                                   {"error": f"job {job_id} has no "
                                             f"result yet",
                                    "state": str(pending)})
            except JobFailedError as failure:
                self._respond_json(writer, 410,
                                   {"error": str(failure),
                                    "state": "failed"})
            return
        self._respond_json(writer, 404,
                           {"error": f"unknown endpoint {path!r}"})

    def _submit(self, writer, body: bytes) -> None:
        ready, checks = self._readiness()
        if not ready:
            self._respond_unready(writer, checks)
            return
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("submission body must be a JSON object")
            experiment = payload.get("experiment")
            if not isinstance(experiment, str):
                raise ValueError("submission needs an 'experiment' name")
            options = RunOptions.from_dict(payload.get("options", {}))
            record = self.scheduler.submit(experiment, options)
        except (ValueError, BadSubmission) as error:
            self._respond_json(writer, 400, {"error": str(error)})
            return
        writer.job = record.get("job")
        self._respond_json(writer, 200, record)

    # ------------------------------------------------------------------
    # Observability surfaces
    # ------------------------------------------------------------------
    def _readiness(self) -> tuple[bool, dict]:
        """Evaluate the readiness checks (worker, cache dir, queue)."""
        checks = {
            "worker_alive": self.scheduler.worker_alive(),
            "cache_writable": self._cache_writable(),
            "queue_below_limit":
                self.scheduler.queue_depth() < self.queue_limit,
        }
        return all(checks.values()), checks

    def _cache_writable(self) -> bool:
        cache = getattr(self.scheduler.executor, "cache", None)
        if cache is None:
            return True  # nothing to write; the check is vacuous
        path = cache.root
        # The cache dir is created lazily on first store — walk up to
        # the nearest existing ancestor and ask whether we could write.
        while not path.exists():
            parent = path.parent
            if parent == path:
                break
            path = parent
        return os.access(path, os.W_OK)

    def _respond_unready(self, writer, checks: dict) -> None:
        failed = sorted(name for name, ok in checks.items() if not ok)
        self._respond_json(
            writer, 503,
            {"error": "service not ready: "
                      + (", ".join(failed) or "unknown"),
             "checks": checks, "retry_after_s": RETRY_AFTER_S},
            extra_headers={"Retry-After": str(RETRY_AFTER_S)})

    def _metrics_text(self) -> str:
        """Render the full Prometheus exposition document."""
        from repro.obs.exporter import Exposition

        expo = Exposition()
        stats = self.scheduler.stats()
        expo.counter("repro_jobs", stats["jobs_total"],
                     help_text="Jobs submitted over the scheduler "
                               "lifetime.")
        for state, count in sorted(stats["states"].items()):
            expo.gauge("repro_jobs_state", count,
                       labels={"state": state},
                       help_text="Jobs currently in each lifecycle "
                                 "state.")
        expo.gauge("repro_queue_depth", stats["queue_depth"],
                   help_text="Jobs queued but not yet started.")
        expo.gauge("repro_scheduler_worker_up",
                   int(self.scheduler.worker_alive()),
                   help_text="1 while at least one scheduler worker "
                             "thread is alive.")
        expo.gauge("repro_scheduler_concurrency",
                   stats.get("concurrency", 1),
                   help_text="Configured job worker threads "
                             "(--job-concurrency).")
        expo.gauge("repro_scheduler_workers_alive",
                   stats.get("workers_alive",
                             int(self.scheduler.worker_alive())),
                   help_text="Job worker threads currently alive.")
        expo.gauge("repro_scheduler_inflight_cells",
                   stats.get("inflight_cells", 0),
                   help_text="Unique cell fingerprints being computed "
                             "right now across all running jobs.")
        executor = self.scheduler.executor
        exec_stats = getattr(executor, "stats", None)
        if exec_stats is not None:
            for field in ("cells", "computed", "memo_hits",
                          "dedup_hits", "retries", "timeouts", "failed",
                          "fallbacks", "engine_events"):
                expo.counter(f"repro_executor_{field}",
                             getattr(exec_stats, field),
                             help_text=f"Executor lifetime "
                                       f"{field.replace('_', ' ')}.")
            expo.counter("repro_executor_engine_seconds",
                         exec_stats.engine_seconds,
                         help_text="Seconds spent inside engine "
                                   "simulation calls.")
        cache = getattr(executor, "cache", None)
        if cache is not None:
            for field in ("hits", "misses", "stores", "corrupt"):
                expo.counter(f"repro_cache_{field}",
                             getattr(cache.stats, field),
                             help_text=f"Run-cache {field} since "
                                       f"startup.")
        self.resources.sample()
        self.scheduler.collect_metrics(expo)
        return expo.render()

    async def _stream_events(self, writer, job_id: str,
                             query: dict[str, str]) -> None:
        try:
            after = int(query.get("after", "-1"))
        except ValueError:
            after = -1
        # Existence check before committing to a streaming response.
        events, terminal = self.scheduler.events_since(job_id, after)
        head = (f"HTTP/1.1 200 OK\r\n"
                f"Content-Type: application/x-ndjson\r\n"
                f"Connection: close\r\n\r\n")
        writer.status = 200
        writer.write(head.encode("latin-1"))
        while True:
            for event in events:
                writer.write(json.dumps(event, sort_keys=True)
                             .encode("utf-8") + b"\n")
                after = event["seq"]
            await writer.drain()
            if terminal and not events:
                return
            if not terminal:
                await asyncio.sleep(STREAM_POLL_S)
            events, terminal = self.scheduler.events_since(job_id, after)

    # ------------------------------------------------------------------
    # Response helpers
    # ------------------------------------------------------------------
    def _respond(self, writer, status: int, payload: bytes,
                 content_type: str,
                 extra_headers: dict[str, str] | None = None) -> None:
        reason = _REASONS.get(status, "")
        extras = "".join(f"{name}: {value}\r\n"
                         for name, value in (extra_headers or {}).items())
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"{extras}"
                f"Connection: close\r\n\r\n")
        writer.status = status
        writer.write(head.encode("latin-1") + payload)

    def _respond_json(self, writer, status: int, payload: dict,
                      extra_headers: dict[str, str] | None = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n") \
            .encode("utf-8")
        self._respond(writer, status, body, "application/json",
                      extra_headers)


class ServiceThread:
    """An in-process service on a background thread (tests, embedding).

    Context-managing a :class:`ServiceThread` starts the asyncio loop
    on a daemon thread, binds the server, and exposes ``host``/``port``/
    ``url``; exiting stops the server, the loop, and the scheduler.
    """

    def __init__(self, scheduler: JobScheduler,
                 host: str = "127.0.0.1", port: int = 0,
                 **service_kwargs) -> None:
        self.scheduler = scheduler
        self.service = SweepService(scheduler, host=host, port=port,
                                    **service_kwargs)
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._main,
                                        name="repro-service-http",
                                        daemon=True)

    @property
    def host(self) -> str:
        return self.service.host

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def url(self) -> str:
        return self.service.url

    def __enter__(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()
        self.scheduler.close()
        if self.service.access_log is not None:
            self.service.access_log.close()

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.service.start()
        except BaseException as error:  # noqa: BLE001 — surface to caller
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.service.stop()
