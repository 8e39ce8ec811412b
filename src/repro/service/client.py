"""Typed client for the sweep service: submit / wait / stream / result.

:class:`SweepClient` speaks the v1 job API over stdlib ``http.client``
with a **deterministic** retry/backoff discipline on transport errors:

* Only transport-level failures are retried — refused/reset
  connections, a server that closed before answering, a torn read.
  HTTP-level errors (400/404/409/410/...) are *protocol* answers and
  raise immediately.  A ``POST`` (job creation is not idempotent) is
  retried only while its connection cannot be opened: once the request
  may have reached the service, a transport error raises instead of
  risking a duplicate job.
* The backoff schedule is a fixed tuple (:data:`RETRY_BACKOFF_S`), not
  wall-clock- or random-jittered: attempt *n* always sleeps
  ``RETRY_BACKOFF_S[n]``.  Tests inject a recording ``sleep`` and
  assert the schedule verbatim.
* The schedule resets whenever an attempt makes progress (a response
  arrives; a streamed event is received), so long-lived streams get the
  full budget for every interruption, while a genuinely dead service
  exhausts it and raises :class:`ServiceError`.

Streaming reconnects are exact: every event carries a monotonically
increasing ``seq``, and :meth:`SweepClient.stream` resumes a dropped
stream with ``?after=<last seq>`` — no event is lost or duplicated, so
a mid-stream disconnect is invisible to the consumer, and
:meth:`SweepClient.result` after any number of reconnects returns the
byte-identical result JSON.
"""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import urlsplit

from repro.experiments.common import RunOptions

#: Fixed transport-retry backoff schedule in seconds; attempt ``n``
#: sleeps ``RETRY_BACKOFF_S[n]`` before reconnecting.  Exhausting the
#: schedule raises :class:`ServiceError`.
RETRY_BACKOFF_S = (0.05, 0.1, 0.2, 0.4, 0.8)

#: Default per-request socket timeout.
DEFAULT_TIMEOUT_S = 60.0

#: Default poll cadence for :meth:`SweepClient.wait`.
DEFAULT_POLL_S = 0.05

#: Errors that mean "the transport failed", hence retryable.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class ServiceError(Exception):
    """The service is unreachable (transport retries exhausted) or
    answered with an HTTP error status.

    A 503 (service not ready) additionally carries ``retry_after_s`` —
    taken from the ``Retry-After`` header or the body's
    ``retry_after_s`` field — so callers can implement their own
    resubmission policy.  The client itself never retries a 503 on
    ``POST /v1/jobs``: job creation is not idempotent, so a POST is
    retried only when its connection could not be opened, and a
    transport error after that (a timeout, a reset, a torn answer)
    raises this error rather than risk submitting the job twice.
    """

    def __init__(self, message: str, status: int | None = None,
                 retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


class JobFailed(ServiceError):
    """The submitted job failed terminally; the message is the job's
    error."""


class SweepClient:
    """Client for one sweep service base URL.

    Parameters
    ----------
    base_url:
        ``http://host:port`` (the path must be empty or ``/``).
    timeout_s:
        Per-request socket timeout.
    backoff_s:
        Transport-retry schedule; defaults to :data:`RETRY_BACKOFF_S`.
    sleep:
        Injection point for the backoff sleeper (tests pass a recorder;
        production uses ``time.sleep``).
    """

    def __init__(self, base_url: str,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 backoff_s: tuple[float, ...] = RETRY_BACKOFF_S,
                 sleep=time.sleep) -> None:
        split = urlsplit(base_url)
        if split.scheme not in ("http", "") or split.path.strip("/"):
            raise ValueError(f"base_url must be http://host:port, "
                             f"got {base_url!r}")
        netloc = split.netloc or split.path
        host, _, port = netloc.partition(":")
        if not host or not port:
            raise ValueError(f"base_url must name host and port, "
                             f"got {base_url!r}")
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        self.backoff_s = tuple(backoff_s)
        self.sleep = sleep

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Job API
    # ------------------------------------------------------------------
    def experiments(self) -> list[str]:
        """Experiment names the service will accept."""
        return self._request_json("GET", "/v1/experiments")["experiments"]

    def submit(self, experiment: str,
               options: RunOptions | None = None) -> str:
        """Submit one job; returns the job id."""
        if options is None:
            options = RunOptions()
        body = json.dumps({"experiment": experiment,
                           "options": options.to_dict()},
                          sort_keys=True)
        return self._request_json("POST", "/v1/jobs", body=body)["job"]

    def job(self, job_id: str) -> dict:
        """The job's current record (state + exec counters)."""
        return self._request_json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        """Records of every job on the service, in submission order."""
        return self._request_json("GET", "/v1/jobs")["jobs"]

    def wait(self, job_id: str, poll_s: float = DEFAULT_POLL_S,
             timeout_s: float | None = None) -> dict:
        """Poll until the job reaches a terminal state; returns the
        terminal record.  ``timeout_s`` bounds the wait (a
        :class:`ServiceError` is raised on expiry)."""
        waited = 0.0
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed"):
                return record
            if timeout_s is not None and waited >= timeout_s:
                raise ServiceError(
                    f"job {job_id} still {record['state']} after "
                    f"{timeout_s:g}s")
            self.sleep(poll_s)
            waited += poll_s

    def wait_many(self, job_ids: list[str],
                  poll_s: float = DEFAULT_POLL_S,
                  timeout_s: float | None = None) -> dict[str, dict]:
        """Poll until *every* job is terminal; returns id → terminal
        record.

        The concurrent-submission companion to :meth:`wait`: one shared
        poll loop (and one shared ``timeout_s`` budget) instead of
        serial per-job waits, so the wall time tracks the *slowest* job
        rather than the sum — which is the whole point of
        ``serve --job-concurrency``.
        """
        records: dict[str, dict] = {}
        waited = 0.0
        while True:
            for job_id in job_ids:
                if job_id in records:
                    continue
                record = self.job(job_id)
                if record["state"] in ("done", "failed"):
                    records[job_id] = record
            if len(records) == len(set(job_ids)):
                return {job_id: records[job_id] for job_id in job_ids}
            if timeout_s is not None and waited >= timeout_s:
                laggards = sorted(set(job_ids) - set(records))
                raise ServiceError(
                    f"jobs {', '.join(laggards)} still not terminal "
                    f"after {timeout_s:g}s")
            self.sleep(poll_s)
            waited += poll_s

    def stream(self, job_id: str):
        """Yield the job's events in order, live, until the terminal
        ``state`` event (inclusive).

        Mid-stream disconnects reconnect with the last seen ``seq`` as
        the cursor after the deterministic backoff, so the yielded
        sequence is gapless and duplicate-free regardless of transport
        faults.
        """
        cursor = -1
        attempt = 0
        while True:
            connection, response = self._open_stream(job_id, cursor)
            progressed = False
            try:
                while True:
                    line = response.readline()
                    if not line:
                        break  # EOF: disconnect (terminal event returns)
                    try:
                        event = json.loads(line)
                    except ValueError:
                        break  # torn mid-line write: reconnect
                    cursor = event["seq"]
                    progressed = True
                    yield event
                    if event.get("kind") == "state" and \
                            event.get("state") in ("done", "failed"):
                        return
            except TRANSPORT_ERRORS:
                pass  # reconnect below
            finally:
                connection.close()
            if progressed:
                attempt = 0  # progress restores the full backoff budget
            elif attempt >= len(self.backoff_s):
                raise ServiceError(
                    f"event stream for job {job_id} kept dying "
                    f"({attempt} reconnects)")
            self.sleep(self.backoff_s[attempt])
            if not progressed:
                attempt += 1

    def result(self, job_id: str, wait: bool = True) -> str:
        """The job's result JSON text, byte-identical to the local
        ``run_experiment(...).to_json()`` for the same submission.

        ``wait=True`` (default) blocks until the job is terminal first;
        a failed job raises :class:`JobFailed`.
        """
        if wait:
            record = self.wait(job_id)
            if record["state"] == "failed":
                raise JobFailed(record.get("error") or "job failed")
        status, body, headers = self._request(
            "GET", f"/v1/jobs/{job_id}/result")
        if status == 200:
            return body.decode("utf-8")
        self._raise_http(status, body, headers)

    def spans(self, job_id: str) -> str:
        """The finished job's span-document JSON text (the same shape
        ``repro run --spans FILE`` writes locally); input for
        ``repro spans --url``."""
        status, body, headers = self._request(
            "GET", f"/v1/jobs/{job_id}/spans")
        if status == 200:
            return body.decode("utf-8")
        self._raise_http(status, body, headers)

    # ------------------------------------------------------------------
    # Observability API
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness: the parsed ``/v1/healthz`` body (200 expected)."""
        return self._request_json("GET", "/v1/healthz")

    def ready(self) -> dict:
        """Readiness: the parsed ``/v1/readyz`` body with a ``ready``
        key added, returned for **both** 200 and 503 answers (other
        statuses raise :class:`ServiceError`)."""
        status, body, headers = self._request("GET", "/v1/readyz")
        if status not in (200, 503):
            self._raise_http(status, body, headers)
        doc = json.loads(body)
        doc["ready"] = status == 200
        return doc

    def metrics_text(self) -> str:
        """The raw ``/v1/metrics`` Prometheus exposition document."""
        status, body, headers = self._request("GET", "/v1/metrics")
        if status != 200:
            self._raise_http(status, body, headers)
        return body.decode("utf-8")

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)

    def _attempts(self):
        """Yield per-attempt backoff delays: one initial attempt plus
        one retry per schedule entry."""
        yield None
        for delay in self.backoff_s:
            yield delay

    def _request(self, method: str, path: str,
                 body: str | None = None) \
            -> tuple[int, bytes, dict[str, str]]:
        """One request with transport retries; returns (status, body,
        headers).  Header names are lower-cased.

        Retries cover *transport* failures only — once any HTTP status
        arrives it is returned as-is, so non-idempotent requests
        (``POST /v1/jobs``) are never replayed on a 503 or any other
        protocol-level answer.  A POST is retried only when its
        connection could not be opened: after that the service may have
        the request, so a transport error raises :class:`ServiceError`.
        """
        error: Exception | None = None
        for delay in self._attempts():
            if delay is not None:
                self.sleep(delay)
            connection = self._connect()
            opened = False
            try:
                connection.connect()
                opened = True
                headers = {"Content-Type": "application/json"} \
                    if body is not None else {}
                connection.request(method, path, body=body,
                                   headers=headers)
                response = connection.getresponse()
                response_headers = {name.lower(): value for name, value
                                    in response.getheaders()}
                return response.status, response.read(), response_headers
            except TRANSPORT_ERRORS as exc:
                if opened and method == "POST":
                    raise ServiceError(
                        f"{method} {path} to {self.base_url} got no "
                        f"answer ({type(exc).__name__}: {exc}); not "
                        f"retried, since the service may have it") \
                        from None
                error = exc
            finally:
                connection.close()
        raise ServiceError(
            f"cannot reach sweep service at {self.base_url}: "
            f"{type(error).__name__}: {error}")

    def _request_json(self, method: str, path: str,
                      body: str | None = None) -> dict:
        status, payload, headers = self._request(method, path, body=body)
        if status != 200:
            self._raise_http(status, payload, headers)
        return json.loads(payload)

    def _open_stream(self, job_id: str, cursor: int):
        """Open the events response with transport retries; returns
        ``(connection, response)`` with the response left unread."""
        path = f"/v1/jobs/{job_id}/events?after={cursor}"
        error: Exception | None = None
        for delay in self._attempts():
            if delay is not None:
                self.sleep(delay)
            connection = self._connect()
            try:
                connection.request("GET", path)
                response = connection.getresponse()
            except TRANSPORT_ERRORS as exc:
                error = exc
                connection.close()
                continue
            if response.status != 200:
                payload = response.read()
                connection.close()
                self._raise_http(response.status, payload)
            return connection, response
        raise ServiceError(
            f"cannot reach sweep service at {self.base_url}: "
            f"{type(error).__name__}: {error}")

    def _raise_http(self, status: int, payload: bytes,
                    headers: dict[str, str] | None = None):
        doc: dict = {}
        try:
            doc = json.loads(payload)
            message = doc.get("error", "") if isinstance(doc, dict) else ""
        except ValueError:
            message = payload.decode("utf-8", "replace").strip()
        retry_after_s = None
        if status == 503:
            raw = (headers or {}).get("retry-after")
            if raw is None and isinstance(doc, dict):
                raw = doc.get("retry_after_s")
            try:
                retry_after_s = float(raw) if raw is not None else None
            except (TypeError, ValueError):
                retry_after_s = None
        suffix = f" (retry after {retry_after_s:g}s)" \
            if retry_after_s is not None else ""
        raise ServiceError(f"service answered {status}: "
                           f"{message or 'no detail'}{suffix}",
                           status=status, retry_after_s=retry_after_s)
