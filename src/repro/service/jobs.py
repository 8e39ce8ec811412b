"""Job scheduler: submit-and-stream sweep jobs over one shared executor.

A *job* is one ``run_experiment(name, options)`` invocation promoted to
an asynchronous unit of work with a stable identity and a four-state
lifecycle::

    queued -> running -> done
                      -> failed

The scheduler owns exactly one :class:`~repro.exec.SweepExecutor` and
``concurrency`` worker threads (default 1, ``repro serve
--job-concurrency N``).  Workers claim queued jobs in submission order;
with ``concurrency > 1`` up to N jobs run at once, their cells sharing
the executor's single process pool.  The executor splits that pool
fairly across the active jobs (each keeps roughly ``jobs/active``
cells outstanding — a deficit-style window rather than first-flooder
wins) and its lifetime memo (plus optional
:class:`~repro.exec.cache.RunCache`) is shared across *all* jobs.

That shared reuse layer is the service's cache-coalescing guarantee,
and it survives concurrency via the executor's in-flight deduplication:
two identical submissions perform the sweep's cell work once *even when
they race* — whichever job's scan loses the claim attaches to the
winner's in-flight cells and finishes with ``computed=0`` and
``memo_hits == cells`` (each hit also marked in ``dedup_hits``).  Raced,
not ordered.  Because every cell is deterministic and results merge in
fixed cell order, a job's result JSON is byte-identical to a local
``run_experiment`` call with the same options — cold, warm, serial or
concurrent.

Per-job knobs ride the :class:`~repro.experiments.common.RunOptions`
wire record into :func:`~repro.experiments.registry.run_experiment`, which
overrides the executor's cell policy with them for that job only,
through the thread-local :meth:`~repro.exec.SweepExecutor.scoped`.  The
job's own enclosing scope yields its **attributed counters**: exactly
the cells/computed/memo work this job generated, with no snapshot
arithmetic against global totals that neighbouring jobs are mutating.
Resubmitting an interrupted job needs no option: the shared memo and
cache serve its completed cells warm.

Every cell-level event the executor reports (submitted / computed /
memo or cache hit / retried / failed) is appended to the
job's ordered event log with a monotonically increasing ``seq``, which
is what the server's NDJSON stream — and the client's
reconnect-with-cursor — ride on.  Event logs are strictly per-job even
under concurrency: the progress sink is part of the job's scoped
binding, so a neighbour's cells can never bleed into this job's stream.

**Observability plane.**  Unless constructed with ``spans=False``, each
job runs under its own ambient :class:`~repro.obs.Telemetry` with span
tracing on: the finished job keeps its merged span document (served at
``GET /v1/jobs/<id>/spans`` for ``repro spans --url``), and the job's
deterministic simulated-time metrics fold into the scheduler-lifetime
:attr:`JobScheduler.registry`, which the server's ``/v1/metrics``
exposition renders.  Ambient telemetry is thread-local
(:mod:`repro.obs.runtime`), so concurrent jobs' planes stay disjoint.
Telemetry never perturbs results — job result JSON stays byte-identical
with the plane on or off (pinned by ``tests/test_service_obs.py``).
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from repro.exec import runtime as exec_runtime
from repro.exec.executor import SweepExecutor
from repro.exec.resilience import SweepFailure
from repro.experiments import registry
from repro.experiments.common import RunOptions
from repro.obs import Telemetry
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import merge_registry

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Terminal states: the job record and its events are final.
TERMINAL_STATES = ("done", "failed")

#: Executor counters copied into each job record from the job's scoped
#: :class:`~repro.exec.executor.ExecutorStats`.
COUNTER_FIELDS = ("cells", "computed", "memo_hits", "dedup_hits",
                  "replayed", "retries", "timeouts", "failed")


class UnknownJob(KeyError):
    """No job with the requested id."""


class BadSubmission(ValueError):
    """A submission the scheduler rejects (unknown experiment, invalid
    options, shutting down); the server maps this to HTTP 400."""


class SpansUnavailable(Exception):
    """Span capture is disabled on this scheduler (HTTP 404)."""


@dataclass
class Job:
    """One submitted experiment run (mutable; guarded by the scheduler
    lock)."""

    id: str
    experiment: str
    options: RunOptions
    state: str = "queued"
    submitted_unix: float = 0.0
    error: str | None = None
    result_json: str | None = None
    spans_json: str | None = None
    counters: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)

    def record(self, queue_position: int | None = None) -> dict:
        """The job's public record (the ``GET /v1/jobs/<id>`` body).

        ``queue_position`` is the job's 0-based place in the start
        queue, supplied by the scheduler for queued jobs and ``None``
        once the job has started — under concurrency it is the only way
        to read "how far back am I" off a listing.
        """
        return {
            "job": self.id,
            "experiment": self.experiment,
            "state": self.state,
            "submitted_unix": round(self.submitted_unix, 6),
            "queue_position": queue_position,
            "options": self.options.to_dict(),
            "counters": dict(self.counters),
            "events": len(self.events),
            "error": self.error,
        }


class _JobProgress:
    """Adapter feeding one job's event log from the executor's progress
    hook (the same interface :class:`~repro.obs.progress.SweepProgress`
    implements)."""

    def __init__(self, scheduler: "JobScheduler", job: Job) -> None:
        self.scheduler = scheduler
        self.job = job

    def add_cells(self, count: int) -> None:
        self.scheduler._append_event(self.job, "cells", count=count)

    def record(self, kind: str, seconds: float | None = None) -> None:
        fields = {} if seconds is None else {"seconds": round(seconds, 6)}
        self.scheduler._append_event(self.job, kind, **fields)

    def finish(self) -> None:
        """Sweep end is implied by the job's terminal state event."""


class JobScheduler:
    """Concurrent job queue over one shared :class:`SweepExecutor`.

    Parameters
    ----------
    executor:
        The executor every job runs through.  Its memo (and cache, if
        configured) is the coalescing layer shared across jobs, and its
        policy is every job's, overridden by the job's own knobs; each
        job binds its progress sink through the executor's
        thread-local :meth:`~SweepExecutor.scoped` scope.  Defaults to
        a serial cacheless executor.
    spans:
        Run each job under a per-job span-tracing telemetry (default).
        The finished job keeps its span document for the
        ``/v1/jobs/<id>/spans`` endpoint, and job metrics fold into
        :attr:`registry`.  ``False`` turns the whole per-job telemetry
        plane off (``repro serve --no-spans``).
    concurrency:
        Worker threads claiming queued jobs (default 1, which preserves
        the strict in-order single-worker behaviour exactly).  With
        ``N > 1``, up to N jobs run at once over the shared executor —
        fairness, coalescing and determinism are the executor's
        contract (see ``docs/service.md``, "Concurrency model").
    """

    def __init__(self, executor: SweepExecutor | None = None,
                 spans: bool = True, concurrency: int = 1) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.executor = executor if executor is not None \
            else SweepExecutor()
        self.spans_enabled = spans
        self.concurrency = concurrency
        #: Scheduler-lifetime metrics: every finished job's telemetry
        #: registry folds in here (simulated-time counters plus the
        #: cache-hit latency histogram), rendered by ``GET /v1/metrics``.
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._queue: deque[Job] = deque()
        self._seq = 0
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker,
                             name=f"repro-service-worker-{index}",
                             daemon=True)
            for index in range(concurrency)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (after their current jobs) and the
        executor."""
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join()
        self.executor.close()

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission API (server-facing)
    # ------------------------------------------------------------------
    def submit(self, experiment: str, options: RunOptions | None = None) \
            -> dict:
        """Queue one job; returns its (queued) record.

        Raises :class:`BadSubmission` for unknown experiments or once the
        scheduler is shutting down.
        """
        if options is None:
            options = RunOptions()
        if experiment not in registry.EXPERIMENTS:
            raise BadSubmission(
                f"unknown experiment {experiment!r}; "
                f"see GET /v1/experiments")
        with self._wake:
            if self._closed:
                raise BadSubmission("service is shutting down")
            self._seq += 1
            job = Job(id=f"j{self._seq}", experiment=experiment,
                      options=options, submitted_unix=time.time())
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._queue.append(job)
            self._append_event_locked(job, "state", state="queued")
            self._wake.notify_all()
            return job.record(
                queue_position=self._queue_position_locked(job))

    def get(self, job_id: str) -> dict:
        """The job's current record; raises :class:`UnknownJob`."""
        with self._lock:
            job = self._job(job_id)
            return job.record(
                queue_position=self._queue_position_locked(job))

    def list(self) -> list[dict]:
        """Records of every job in submission order, queued jobs
        carrying their current queue position."""
        with self._lock:
            return [self._jobs[job_id].record(
                        queue_position=self._queue_position_locked(
                            self._jobs[job_id]))
                    for job_id in self._order]

    def _queue_position_locked(self, job: Job) -> int | None:
        """0-based start-queue position, or ``None`` once started."""
        if job.state != "queued":
            return None
        for position, queued in enumerate(self._queue):
            if queued is job:
                return position
        return None

    def events_since(self, job_id: str, after: int = -1) \
            -> tuple[list[dict], bool]:
        """Events with ``seq > after`` plus whether the job is terminal.

        The event list is append-only, so polling with the last seen
        ``seq`` as the cursor never misses or duplicates an event —
        which is exactly the contract the streaming endpoint and the
        reconnecting client rely on.
        """
        with self._lock:
            job = self._job(job_id)
            events = [event for event in job.events
                      if event["seq"] > after]
            return events, job.state in TERMINAL_STATES

    def result_text(self, job_id: str) -> str:
        """The finished job's result JSON, byte-identical to a local
        ``run_experiment(...).to_json()``.

        Raises :class:`UnknownJob` for unknown ids, :class:`JobNotDone`
        (HTTP 409) while the job is still queued/running, and
        :class:`JobFailedError` (HTTP 410) for terminally failed jobs.
        """
        with self._lock:
            job = self._job(job_id)
            if job.state == "failed":
                raise JobFailedError(job.error or "job failed")
            if job.result_json is None:
                raise JobNotDone(job.state)
            return job.result_json

    def spans_text(self, job_id: str) -> str:
        """The finished job's span document as JSON text.

        Raises :class:`SpansUnavailable` when the scheduler runs with
        ``spans=False``, :class:`UnknownJob` for unknown ids,
        :class:`JobNotDone` while queued/running, and
        :class:`JobFailedError` for failed jobs — mapped by the server
        to 404/404/409/410 respectively.
        """
        if not self.spans_enabled:
            raise SpansUnavailable(
                "span capture is disabled on this service "
                "(started with --no-spans)")
        with self._lock:
            job = self._job(job_id)
            if job.state == "failed":
                raise JobFailedError(job.error or "job failed")
            if job.spans_json is None:
                raise JobNotDone(job.state)
            return job.spans_json

    def _job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    # ------------------------------------------------------------------
    # Observability accessors (the server's metrics/readiness surface)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Point-in-time scheduler load figures for exposition and
        readiness: total jobs ever submitted, per-state counts, the
        queue depth (jobs submitted but not yet started), the worker
        head-count, and the executor's in-flight cell table size."""
        with self._lock:
            states = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            stats = {"jobs_total": len(self._jobs),
                     "states": states,
                     "queue_depth": len(self._queue),
                     "concurrency": self.concurrency,
                     "workers_alive": sum(
                         1 for thread in self._threads
                         if thread.is_alive())}
        stats["inflight_cells"] = self.executor.inflight_cells()
        return stats

    def queue_depth(self) -> int:
        """Jobs queued but not yet running."""
        with self._lock:
            return len(self._queue)

    def worker_alive(self) -> bool:
        """Whether at least one worker thread can still run jobs."""
        return not self._closed and \
            any(thread.is_alive() for thread in self._threads)

    def collect_metrics(self, exposition, prefix: str = "repro") -> None:
        """Render the merged job registry into an
        :class:`~repro.obs.exporter.Exposition` (under the scheduler
        lock, so a concurrent job-completion fold cannot tear the
        iteration)."""
        from repro.obs.exporter import collect_registry

        with self._lock:
            collect_registry(exposition, self.registry, prefix=prefix)

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def _append_event(self, job: Job, kind: str, **fields) -> None:
        with self._lock:
            self._append_event_locked(job, kind, **fields)

    def _append_event_locked(self, job: Job, kind: str, **fields) -> None:
        event = {"seq": len(job.events), "job": job.id, "kind": kind}
        event.update(fields)
        job.events.append(event)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._closed:
                    self._wake.wait()
                if self._closed and not self._queue:
                    return
                job = self._queue.popleft()
                job.state = "running"
                self._append_event_locked(job, "state", state="running")
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        executor = self.executor
        telemetry = Telemetry() if self.spans_enabled else None
        state, error, result_json = "done", None, None
        spans_json = None
        with executor.scoped(progress=_JobProgress(self, job)) as scope:
            try:
                with exec_runtime.activated(executor), \
                        obs_runtime.activated(telemetry):
                    result = registry.run_experiment(job.experiment,
                                                     job.options)
                result_json = result.to_json()
                if telemetry is not None:
                    spans_json = json.dumps(telemetry.spans_doc(),
                                            sort_keys=True)
            except SweepFailure as failure:
                state, error = "failed", str(failure)
            except Exception as exc:  # noqa: BLE001 — job isolation
                state = "failed"
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc()
        with self._lock:
            job.counters = {name: getattr(scope.stats, name)
                            for name in COUNTER_FIELDS}
            job.state = state
            job.error = error
            job.result_json = result_json
            job.spans_json = spans_json
            if telemetry is not None:
                merge_registry(self.registry, telemetry.registry)
            fields = {"state": state}
            if error is not None:
                fields["error"] = error
            self._append_event_locked(job, "state", **fields)


class JobNotDone(Exception):
    """The job exists but has no result yet (HTTP 409); the message is
    the job's current state."""


class JobFailedError(Exception):
    """The job failed terminally (HTTP 410); the message is the job's
    error."""
