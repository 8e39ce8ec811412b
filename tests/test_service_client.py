"""Client retry/backoff tests under injected transport faults.

A small in-test TCP proxy sits between a :class:`SweepClient` and a live
in-process service and misbehaves on command: resetting the next K
connections, or tearing a streaming response after N forwarded bytes.
The client is constructed with a *recording* sleep, so the tests assert
the deterministic backoff schedule verbatim — and byte-identity of the
final result after any number of reconnects.
"""

import socket
import struct
import threading
import time

import pytest

from repro.exec.executor import SweepExecutor
from repro.experiments.common import RunOptions
from repro.service import (JobScheduler, RETRY_BACKOFF_S, ServiceError,
                           ServiceThread, SweepClient)
from repro.workloads.builder import clear_cache

OPTIONS = RunOptions(seed=11, requests_per_core=500)


@pytest.fixture(autouse=True)
def _small_world(monkeypatch):
    monkeypatch.setattr("repro.workloads.profiles.QUICK_SUBSET",
                        ("blender", "add"))
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def service():
    with JobScheduler(SweepExecutor()) as scheduler:
        with ServiceThread(scheduler) as thread:
            yield thread


@pytest.fixture
def proxy(service):
    flaky = FlakyProxy(service.port)
    yield flaky
    flaky.close()


class FlakyProxy:
    """TCP proxy with two injectable faults.

    ``reject_next = K`` resets the next K accepted connections before
    any byte flows (the client sees a transport error on request).
    ``cut_next = M`` tears the next M *successful* responses after
    ``cut_after_bytes`` forwarded bytes (the client sees a mid-stream
    disconnect).  Connections beyond the programmed faults pass through
    untouched.
    """

    def __init__(self, upstream_port: int) -> None:
        self.upstream_port = upstream_port
        self.reject_next = 0
        self.cut_next = 0
        self.cut_after_bytes = 300
        self.connections = 0
        self._lock = threading.Lock()
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept_loop, daemon=True).start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass

    def _accept_loop(self) -> None:
        while True:
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(downstream,),
                             daemon=True).start()

    def _handle(self, downstream: socket.socket) -> None:
        with self._lock:
            self.connections += 1
            reject = self.reject_next > 0
            if reject:
                self.reject_next -= 1
            cut = None
            if not reject and self.cut_next > 0:
                self.cut_next -= 1
                cut = self.cut_after_bytes
        if reject:
            _reset(downstream)
            return
        try:
            upstream = socket.create_connection(
                ("127.0.0.1", self.upstream_port))
        except OSError:
            downstream.close()
            return
        threading.Thread(target=_pump, args=(downstream, upstream, None),
                         daemon=True).start()
        _pump(upstream, downstream, cut)

    # _pump/_reset are module-level so both directions share them.


def _pump(source: socket.socket, sink: socket.socket,
          cut: int | None) -> None:
    """Forward source → sink; with ``cut``, hard-close both ends after
    that many forwarded bytes."""
    sent = 0
    try:
        while True:
            data = source.recv(4096)
            if not data:
                break
            if cut is not None and sent + len(data) >= cut:
                sink.sendall(data[:max(0, cut - sent)])
                _reset(sink)
                source.close()
                return
            sink.sendall(data)
            sent += len(data)
    except OSError:
        pass
    finally:
        for sock in (source, sink):
            try:
                sock.close()
            except OSError:
                pass


def _reset(sock: socket.socket) -> None:
    """Close with an RST (SO_LINGER 0) so the peer sees a reset, not a
    tidy EOF.

    The shutdown first wakes any sibling pump thread blocked in
    ``recv`` on this same socket — a blocked syscall holds the kernel's
    file description open, which would defer the RST until the peer
    sent something (for a one-way event stream: never, leaving the
    client-side read to die by socket timeout instead of reset).
    """
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
    except OSError:
        pass
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass
    sock.close()


class SilentServer:
    """Accepts connections and reads each request, but never answers.

    ``methods`` records the request method of every connection, so a
    test can count how often a client sent its request.
    """

    def __init__(self) -> None:
        self.methods: list[str] = []
        self._connections: list[socket.socket] = []
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept_loop, daemon=True).start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def _accept_loop(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
                self._connections.append(connection)
                request = connection.recv(65536)
            except OSError:
                return
            self.methods.append(request.split(b" ", 1)[0].decode())

    def close(self) -> None:
        for sock in (self._listener, *self._connections):
            sock.close()


def _dead_port() -> int:
    """A local port with no listener: every connect is refused."""
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()
    return port


def _recording_client(url: str) -> tuple[SweepClient, list[float]]:
    sleeps: list[float] = []
    return SweepClient(url, sleep=sleeps.append), sleeps


class TestBackoffSchedule:
    def test_published_schedule(self):
        assert RETRY_BACKOFF_S == (0.05, 0.1, 0.2, 0.4, 0.8)
        client = SweepClient("http://127.0.0.1:1")
        assert client.backoff_s == RETRY_BACKOFF_S

    def test_connection_resets_retry_on_schedule(self, proxy):
        client, sleeps = _recording_client(proxy.url)
        proxy.reject_next = 3
        names = client.experiments()
        assert "table4" in names
        assert sleeps == list(RETRY_BACKOFF_S[:3])

    def test_exhausted_schedule_raises(self):
        client, sleeps = _recording_client(
            f"http://127.0.0.1:{_dead_port()}")
        with pytest.raises(ServiceError, match="cannot reach"):
            client.experiments()
        assert sleeps == list(RETRY_BACKOFF_S)

    def test_refused_submission_retries_on_schedule(self):
        # A refused connection never carried the request, so resending
        # it cannot create a second job.
        client, sleeps = _recording_client(
            f"http://127.0.0.1:{_dead_port()}")
        with pytest.raises(ServiceError, match="cannot reach"):
            client.submit("table1")
        assert sleeps == list(RETRY_BACKOFF_S)

    def test_unanswered_submission_is_sent_once(self):
        # The service may hold a request it never answered, so a resent
        # POST could queue the job twice: it raises instead.
        server = SilentServer()
        try:
            sleeps: list[float] = []
            client = SweepClient(server.url, timeout_s=0.2,
                                 sleep=sleeps.append)
            with pytest.raises(ServiceError, match="not retried"):
                client.submit("table1")
            deadline = time.monotonic() + 5
            while not server.methods and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.methods == ["POST"]
            assert sleeps == []
        finally:
            server.close()

    def test_http_errors_are_not_retried(self, service):
        client, sleeps = _recording_client(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.job("j99")
        assert excinfo.value.status == 404
        assert sleeps == []


class TestStreamReconnect:
    def test_mid_stream_disconnects_are_invisible(self, proxy):
        client, sleeps = _recording_client(proxy.url)
        job_id = client.submit("ablation-atm", OPTIONS)
        del sleeps[:]
        proxy.cut_next = 3
        events = list(client.stream(job_id))
        # Gapless and duplicate-free despite three torn connections.
        assert [event["seq"] for event in events] == \
            list(range(len(events)))
        assert events[-1] == {"seq": events[-1]["seq"], "job": job_id,
                              "kind": "state", "state": "done"}
        assert proxy.connections >= 4  # initial + >= 1 per cut
        # Every reconnect made progress (>= 1 event arrived before the
        # cut), so each one slept exactly the schedule's first step.
        assert sleeps == [RETRY_BACKOFF_S[0]] * (proxy.connections - 2)

    def test_result_byte_identical_after_reconnects(self, proxy, service):
        flaky_client, _ = _recording_client(proxy.url)
        job_id = flaky_client.submit("ablation-atm", OPTIONS)
        proxy.cut_next = 2
        list(flaky_client.stream(job_id))  # terminal ⇒ job is done
        via_proxy = flaky_client.result(job_id, wait=False)
        direct = SweepClient(service.url).result(job_id, wait=False)
        assert via_proxy == direct

    def test_dead_stream_exhausts_and_raises(self, service):
        client, sleeps = _recording_client(service.url)
        job_id = client.submit("table4")
        client.wait(job_id)
        del sleeps[:]
        # Reconnect-storm a stream that never progresses: cursor far
        # past the log end on a terminal job still terminates...
        events = list(client.stream(job_id))
        assert events[-1]["state"] == "done"
        # ...but a stream whose transport always dies gives up after
        # the full schedule.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()
        dead_client, dead_sleeps = _recording_client(
            f"http://127.0.0.1:{dead_port}")
        with pytest.raises(ServiceError, match="cannot reach"):
            list(dead_client.stream("j1"))
        assert dead_sleeps == list(RETRY_BACKOFF_S)
