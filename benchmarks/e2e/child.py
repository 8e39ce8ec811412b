"""One benchmark workload, run in a fresh process started by ``run.py``.

Usage: ``python child.py {setup,prep,run} CONFIG_JSON``.  ``run.py``
sets ``PYTHONPATH`` to the repository's ``src``; the config names the
workload, seed, run length, work directory and result file.  The child
writes one JSON document to the result file and exits 0 even when
operations fail: failures are data, counted by ``run.py``.

* ``setup`` imports the program, builds the workload's executor, and
  records when it was ready to submit.
* ``prep`` fills the warm-rerun cache with one untimed pass.
* ``run`` repeats timed passes of the workload until ``seconds`` have
  gone by, always at least one.

The local workloads drive the path ``repro run`` takes: an ambient
``SweepExecutor`` and ``registry.run_experiment`` in registry order.
The service workload drives ``repro serve`` over HTTP.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Executor shape of each local workload (``jobs`` is capped by run.py).
LOCAL = {
    "cold-serial": {"backend": "scalar", "warm": False},
    "cold-parallel": {"backend": "auto", "warm": False},
    "warm-rerun": {"backend": "scalar", "warm": True},
}

#: Seconds between ``GET /v1/jobs`` polls of the service client.
POLL_S = 0.05

#: Seconds a stopped server gets to shut its pool down before SIGKILL.
STOP_GRACE_S = 30.0


def _cpu() -> tuple[float, float]:
    """User+sys CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            reaped.ru_utime + reaped.ru_stime)


def _peak_rss_kb() -> int:
    """Largest max-RSS of this process or any reaped descendant."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _proc_cpu(pid: int) -> float:
    """CPU seconds process ``pid`` has used so far (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rpartition(")")[2].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _op(name: str, started: float, digest: str | None = None,
        error: str | None = None) -> dict:
    return {"name": name, "done_s": time.monotonic() - started,
            "digest": digest, "error": error}


class Workload:
    """The workload one child runs, built from run.py's config."""

    def __init__(self, config: dict) -> None:
        from repro.experiments import registry
        from repro.experiments.common import RunOptions

        self.config = config
        self.work = Path(config["work"])
        self.names = config["experiments"] or registry.names()
        self.options = RunOptions(seed=config["seed"],
                                  requests_per_core=config["requests"])
        self.traced = config["traced"]
        self.pass_index = 0

    def trace_pass(self) -> Path | None:
        """Send this pass's spans to a directory of their own (traced
        runs only); returns it."""
        if not self.traced:
            return None
        import tracer

        path = self.work / f"trace-{self.config['tag']}-{self.pass_index}"
        path.mkdir()
        tracer.set_directory(path)
        return path

    # ------------------------------------------------------------------
    # Local workloads
    # ------------------------------------------------------------------
    def executor(self, jobs: int | None = None):
        """A fresh executor of this workload's shape."""
        from repro.exec.cache import RunCache
        from repro.exec.executor import SweepExecutor

        shape = LOCAL[self.config["workload"]]
        if shape["warm"]:
            cache_dir = self.work / "warm-cache"
        else:
            cache_dir = self.work / (f"cold-cache-{self.config['tag']}-"
                                     f"{self.pass_index}")
        return SweepExecutor(jobs=jobs or self.config["jobs"],
                             cache=RunCache(cache_dir),
                             backend=shape["backend"])

    def local_pass(self, executor) -> dict:
        """Every experiment once through ``executor``, which is closed
        (and its pool reaped) before CPU is read."""
        from repro.exec import runtime as exec_runtime
        from repro.experiments import registry

        trace_dir = self.trace_pass()
        ops = []
        cpu_before = _cpu()
        started = time.monotonic()
        with executor, exec_runtime.activated(executor):
            for name in self.names:
                try:
                    text = registry.run_experiment(name,
                                                   self.options).to_json()
                except Exception as exc:  # noqa: BLE001 — a failed op
                    ops.append(_op(name, started,
                                   error=f"{type(exc).__name__}: {exc}"))
                    continue
                ops.append(_op(name, started, digest=_digest(text)))
        cpu_after = _cpu()
        if trace_dir is not None:
            import tracer
            tracer.flush_executors()
        return {"wall_s": max(op["done_s"] for op in ops),
                "cpu_self_s": cpu_after[0] - cpu_before[0],
                "cpu_children_s": cpu_after[1] - cpu_before[1],
                "ops": ops, "jobs": [],
                "trace_dir": None if trace_dir is None else str(trace_dir)}

    # ------------------------------------------------------------------
    # Service workload
    # ------------------------------------------------------------------
    def start_server(self, trace_dir: Path | None):
        """Launch ``repro serve`` and wait for ``/v1/readyz`` to answer
        200.  Returns the process, a client, and the set-up seconds."""
        from repro.service.client import SweepClient

        port_file = self.work / f"port-{time.monotonic_ns()}"
        serve_args = ["serve", "--port", "0", "--port-file", str(port_file),
                      "--jobs", str(self.config["jobs"]),
                      "--job-concurrency", "2"]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [sys.executable, str(HERE / "serve.py"),
                       str(trace_dir), *serve_args]
        log = open(self.work / "server.log", "ab")
        spawned = time.monotonic()
        server = subprocess.Popen(command, stdout=log, stderr=log)
        log.close()
        try:
            # The port line is complete once its newline is there.
            while not (port_file.exists() and
                       port_file.read_text().endswith("\n")):
                self._check_alive(server)
                time.sleep(0.005)
            port = int(port_file.read_text())
            client = SweepClient(f"http://127.0.0.1:{port}")
            while not client.ready()["ready"]:
                self._check_alive(server)
                time.sleep(0.005)
        except BaseException:
            self.stop_server(server)
            raise
        return server, client, time.monotonic() - spawned

    def _check_alive(self, server) -> None:
        if server.poll() is not None:
            raise RuntimeError(f"server exited with {server.returncode}; "
                               f"see {self.work / 'server.log'}")
        if time.monotonic() > self.config["deadline"]:
            raise RuntimeError("server did not become ready in time")

    @staticmethod
    def stop_server(server) -> None:
        """SIGINT (a clean shutdown that reaps the pool), then wait."""
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()

    def service_pass(self) -> dict:
        """Two waves of every experiment, all due at t=0, against a
        fresh server; one client polls and fetches results."""
        from repro.service.client import ServiceError

        trace_dir = self.trace_pass()
        server, client, setup_s = self.start_server(trace_dir)
        try:
            server_setup_cpu = _proc_cpu(server.pid)
            cpu_before = _cpu()
            started = time.monotonic()
            ops, pending, records = [], {}, {}
            for name in self.names * 2:
                try:
                    pending[client.submit(name, self.options)] = name
                except ServiceError as error:
                    ops.append(_op(name, started, error=str(error)))
            submit_lag_s = time.monotonic() - started
            tick = started
            while pending and time.monotonic() < self.config["deadline"]:
                tick += POLL_S
                time.sleep(max(0.0, tick - time.monotonic()))
                try:
                    listing = client.jobs()
                except ServiceError as error:
                    ops.extend(_op(name, started, error=str(error))
                               for name in pending.values())
                    pending.clear()
                    break
                for record in listing:
                    job_id = record["job"]
                    if job_id not in pending or \
                            record["state"] not in ("done", "failed"):
                        continue
                    name = pending.pop(job_id)
                    records[job_id] = record
                    if record["state"] == "failed":
                        ops.append(_op(name, started,
                                       error=record.get("error")
                                       or "job failed"))
                        continue
                    try:
                        text = client.result(job_id, wait=False)
                    except ServiceError as error:
                        ops.append(_op(name, started, error=str(error)))
                        continue
                    ops.append(_op(name, started, digest=_digest(text)))
            ops.extend(_op(name, started, error="no result before deadline")
                       for name in pending.values())
        finally:
            self.stop_server(server)
        cpu_after = _cpu()
        return {"wall_s": max(op["done_s"] for op in ops),
                "cpu_self_s": cpu_after[0] - cpu_before[0],
                "cpu_children_s": (cpu_after[1] - cpu_before[1]
                                   - server_setup_cpu),
                "ops": ops, "jobs": list(records.values()),
                "setup_s": setup_s, "submit_lag_s": submit_lag_s,
                "trace_dir": None if trace_dir is None else str(trace_dir)}

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def run(self, first_executor) -> dict:
        """Timed passes until ``seconds`` are used up (at least one)."""
        from repro.workloads import builder

        service = self.config["workload"] == "service-burst"
        passes = []
        started = time.monotonic()
        while True:
            pass_started = time.monotonic()
            if service:
                passes.append(self.service_pass())
            else:
                builder.clear_cache()
                executor = first_executor if first_executor is not None \
                    else self.executor()
                first_executor = None
                passes.append(self.local_pass(executor))
            self.pass_index += 1
            now = time.monotonic()
            cost = now - pass_started
            if now - started + cost > self.config["seconds"] or \
                    now + cost > self.config["deadline"]:
                break
        setup = [p["setup_s"] for p in passes] if service else []
        while service and not self.traced and len(setup) < 3:
            server, _, setup_s = self.start_server(None)
            self.stop_server(server)
            setup.append(setup_s)
        return {"passes": passes, "setup_s": setup,
                "peak_rss_kb": _peak_rss_kb()}

    def prep(self) -> dict:
        """One untimed pass with ``prep_jobs`` workers filling the
        warm-rerun cache; its digests are checked like any other."""
        executor = self.executor(jobs=self.config["prep_jobs"])
        return {"passes": [self.local_pass(executor)]}


def main(argv: list[str]) -> int:
    mode, config = argv[0], json.loads(argv[1])
    if config["traced"]:
        import tracer
        tracer.install(Path(config["work"]))
    workload = Workload(config)
    executor = None
    if config["workload"] in LOCAL and mode != "prep":
        executor = workload.executor()
    document = {"ready": time.monotonic(), "pid": os.getpid()}
    if mode == "run":
        document.update(workload.run(executor))
    elif mode == "prep":
        document.update(workload.prep())
    Path(config["result"]).write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
