"""Out-of-program layer tracing for the end-to-end benchmark.

The benchmark attributes time to the repository's layers without
touching ``src/``: :func:`install` wraps each layer's public entry point
and records one span per call.  Spans are never taken from
``Telemetry(spans=True)``, because telemetry changes the execution path
(the executor routes batched members through the scalar engine and
treats cache entries without a telemetry sidecar as misses), so a run
traced that way would measure a different program.

Every process appends one JSON line per finished call to
``spans-<pid>.jsonl`` in the trace directory.  Forked pool workers
inherit the wrappers but never run ``atexit``, so nothing is buffered
across calls.  A span's parent comes from a per-thread stack that is
reset in a forked child, so a worker's spans are roots of their own and
never subtract from the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

#: Layer name -> (module, attribute path) of the wrapped entry point.
ENTRY_POINTS = {
    "experiments.run": ("repro.experiments.registry", "run_experiment"),
    "exec.run_cells": ("repro.exec.executor", "SweepExecutor.run_cells"),
    "workloads.build": ("repro.workloads.builder", "build_traces"),
    "sim.scalar": ("repro.sim.runner", "run_simulation"),
    "sim.batched": ("repro.sim.batched", "run_batch"),
    "cache.get": ("repro.exec.cache", "RunCache.get"),
    "cache.get_telemetry": ("repro.exec.cache",
                            "RunCache.get_with_telemetry"),
    "cache.put": ("repro.exec.cache", "RunCache.put"),
    "cache.put_telemetry": ("repro.exec.cache", "RunCache.put_telemetry"),
    "service.submit": ("repro.service.client", "SweepClient.submit"),
    "service.jobs": ("repro.service.client", "SweepClient.jobs"),
    "service.result": ("repro.service.client", "SweepClient.result"),
}


class _Recorder:
    """Span sink and per-thread parent stacks for one traced process."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.lock = threading.Lock()
        self.local = threading.local()
        self.fd: int | None = None
        self.fd_pid: int | None = None
        self.next_id = 0
        self.executors: dict[int, object] = {}

    def stack(self) -> list[int]:
        pid = os.getpid()
        if getattr(self.local, "pid", None) != pid:
            self.local.pid = pid
            self.local.stack = []
        return self.local.stack

    def new_id(self) -> int:
        with self.lock:
            self.next_id += 1
            return self.next_id

    def write(self, record: dict) -> None:
        # Unbuffered appends: no buffer (or buffer lock) can be caught
        # half-written by a fork, and a worker's lines are on disk even
        # though it exits without running atexit.
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        with self.lock:
            pid = os.getpid()
            if self.fd_pid != pid:
                if self.fd is not None:
                    os.close(self.fd)  # a forked worker's copy
                self.fd = os.open(self.directory / f"spans-{pid}.jsonl",
                                  os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                                  0o644)
                self.fd_pid = pid
            os.write(self.fd, line)

    def close(self) -> None:
        with self.lock:
            if self.fd is not None:
                os.close(self.fd)
            self.fd = self.fd_pid = None


_recorder: _Recorder | None = None
_installed: list[tuple[object, str, object, object]] = []


def _reset_lock_after_fork() -> None:
    """A fork from one service job thread can catch another thread
    holding the recorder lock; the child must not inherit it held."""
    if _recorder is not None:
        _recorder.lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock_after_fork)


def _annotate(layer: str, args: tuple, kwargs: dict, result) -> dict:
    """Per-layer counts recorded with a finished span."""
    if layer == "sim.scalar":
        policy = args[3] if len(args) > 3 else \
            kwargs.get("policy_factory")
        return {"mit": policy is not None,
                "ev": result.requests_completed,
                "mc": result.mitigation_commands}
    if layer == "sim.batched":
        done = [item for item in result if hasattr(item, "requests_completed")]
        return {"n": len(args[1]), "ev": sum(r.requests_completed
                                             for r in done),
                "mc": sum(r.mitigation_commands for r in done)}
    if layer in ("cache.get", "cache.get_telemetry"):
        hit = result is not None
        size = os.path.getsize(args[0].path_for(args[1])) if hit else 0
        return {"hit": hit, "b": size}
    if layer in ("cache.put", "cache.put_telemetry"):
        path = args[0].path_for(args[1]) if layer == "cache.put" \
            else args[0].telemetry_path_for(args[1])
        return {"b": os.path.getsize(path)}
    if layer == "exec.run_cells":
        return {"n": len(args[1])}
    return {}


def _wrap(layer: str, original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        recorder = _recorder
        if recorder is None:
            return original(*args, **kwargs)
        if layer == "exec.run_cells":
            recorder.executors[id(args[0])] = args[0]
        stack = recorder.stack()
        span_id = recorder.new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        started = time.perf_counter()
        extra: dict = {"err": True}
        try:
            result = original(*args, **kwargs)
            extra = _annotate(layer, args, kwargs, result)
            return result
        finally:
            ended = time.perf_counter()
            stack.pop()
            record = {"l": layer, "t0": started, "t1": ended,
                      "id": span_id, "p": parent, "pid": os.getpid()}
            record.update(extra)
            recorder.write(record)

    traced.__e2e_layer__ = layer
    return traced


def install(directory: str | os.PathLike) -> None:
    """Wrap every entry point and rebind every alias of it.

    Modules import some entry points by name (``fig23`` and the
    ablations hold their own ``run_simulation``), so every loaded
    ``repro.*`` module attribute that *is* an original is rebound too.
    Call before anything forks, so pool workers inherit the wrappers.
    """
    global _recorder
    if _installed:
        raise RuntimeError("tracer already installed")
    for module_name, _ in ENTRY_POINTS.values():
        importlib.import_module(module_name)
    _recorder = _Recorder(Path(directory))
    originals = {}
    for layer, (module_name, path) in ENTRY_POINTS.items():
        owner = sys.modules[module_name]
        *owner_path, attr = path.split(".")
        for name in owner_path:
            owner = getattr(owner, name)
        original = owner.__dict__[attr]
        wrapper = _wrap(layer, original)
        originals[id(original)] = (original, wrapper)
        _installed.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            pair = originals.get(id(value))
            if pair is not None and pair[0] is value:
                _installed.append((module, attr, value, pair[1]))
                setattr(module, attr, pair[1])


def set_directory(directory: str | os.PathLike) -> None:
    """Send this process's later spans to ``directory``."""
    _recorder.close()
    _recorder.directory = Path(directory)


def flush_executors() -> None:
    """Record the public stats of every executor seen since the last
    flush, then forget them."""
    for executor in _recorder.executors.values():
        record = {"l": "executor", "pid": os.getpid(),
                  "jobs": executor.jobs}
        record.update(vars(executor.stats))
        _recorder.write(record)
    _recorder.executors.clear()


def uninstall() -> None:
    """Restore every original, including aliases taken after install."""
    global _recorder
    wrappers = {id(wrapper): original
                for _, _, original, wrapper in _installed}
    for owner, attr, original, _ in reversed(_installed):
        setattr(owner, attr, original)
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and \
                    getattr(value, "__e2e_layer__", None):
                setattr(module, attr, wrappers[id(value)])
    _installed.clear()
    if _recorder is not None:
        _recorder.close()
    _recorder = None


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None and
            (name == "repro" or name.startswith("repro."))]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def load(directory: str | os.PathLike) -> tuple[list[dict], list[dict]]:
    """Spans and executor records written under ``directory``."""
    spans: list[dict] = []
    executors: list[dict] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            (executors if record["l"] == "executor" else spans).append(
                record)
    return spans, executors


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the time its child spans cover."""
    self_s = {(span["pid"], span["id"]): span["t1"] - span["t0"]
              for span in spans}
    for span in spans:
        if span["p"] is not None:
            key = (span["pid"], span["p"])
            if key in self_s:
                self_s[key] -= span["t1"] - span["t0"]
    return self_s


def summarize(directory: str | os.PathLike, jobs: list[dict]) -> dict:
    """Per-layer metrics of one pass from its trace directory.

    ``jobs`` are the service job records of a service pass (empty for
    the local workloads); their attributed executor counters give the
    coalescing figures the client sees.
    """
    spans, executors = load(directory)
    self_s = self_times(spans)
    layer_of = {(span["pid"], span["id"]): span["l"] for span in spans}

    def parent_layer(span: dict) -> str | None:
        if span["p"] is None:
            return None
        return layer_of.get((span["pid"], span["p"]))

    def of(*layers: str) -> list[dict]:
        return [span for span in spans if span["l"] in layers]

    def duration(group: list[dict]) -> float:
        return sum(span["t1"] - span["t0"] for span in group)

    def self_sum(group: list[dict]) -> float:
        return sum(self_s[(span["pid"], span["id"])] for span in group)

    def per_event_us(group: list[dict]) -> float:
        events = sum(span.get("ev", 0) for span in group)
        return duration(group) / events * 1e6 if events else 0.0

    def median_ms(group: list[dict]) -> float:
        if not group:
            return 0.0
        return statistics.median(span["t1"] - span["t0"]
                                 for span in group) * 1e3

    ok = [span for span in spans if not span.get("err")]
    builds = of("workloads.build")
    scalar = [span for span in ok if span["l"] == "sim.scalar"]
    pilots = [span for span in scalar
              if parent_layer(span) == "workloads.build"]
    sims = [span for span in scalar
            if parent_layer(span) != "workloads.build"]
    mitigated = [span for span in sims if span["mit"]]
    baseline = [span for span in sims if not span["mit"]]
    batched = [span for span in ok if span["l"] == "sim.batched"]
    gets = of("cache.get", "cache.get_telemetry")
    puts = of("cache.put", "cache.put_telemetry")
    hits = [span for span in gets if span.get("hit")]
    submits = of("service.submit")

    cells = sum(record["cells"] for record in executors)
    memo_hits = sum(record["memo_hits"] for record in executors)
    busy = sum(record["wall_seconds"] * record["jobs"]
               for record in executors)
    engine = sum(record["engine_seconds"] for record in executors)
    scalar_events = sum(span["ev"] for span in sims)
    return {
        "workloads.build_s": duration(builds),
        "workloads.build_self_s": self_sum(builds),
        "workloads.pilot_s": duration(pilots),
        "workloads.build_calls": len(builds),
        "sim.scalar_s": duration(sims),
        "sim.scalar_calls": len(sims),
        "sim.scalar_events": scalar_events,
        "sim.baseline_us_per_event": per_event_us(baseline),
        "sim.mitigated_us_per_event": per_event_us(mitigated),
        "sim.events_per_s": (scalar_events / duration(sims)
                             if sims else 0.0),
        "policy.extra_us_per_event": (per_event_us(mitigated)
                                      - per_event_us(baseline)
                                      if mitigated and baseline else 0.0),
        "policy.mitigated_cells": len(mitigated),
        "policy.mitigations": sum(span["mc"] for span in sims + batched),
        "sim.batched_s": duration(batched),
        "sim.batched_cells": sum(span["n"] for span in batched),
        "sim.batched_us_per_event": per_event_us(batched),
        "exec.run_cells_s": duration(of("exec.run_cells")),
        "exec.self_s": self_sum(of("exec.run_cells")),
        "exec.cells": cells,
        "exec.computed": sum(record["computed"] for record in executors),
        "exec.memo_hits": memo_hits,
        "exec.dedup_hits": sum(record["dedup_hits"]
                               for record in executors),
        "exec.batched": sum(record["batched"] for record in executors),
        "exec.memo_hit_ratio": memo_hits / cells if cells else 0.0,
        "exec.pool_efficiency": engine / busy if busy else 0.0,
        "cache.gets": len(gets),
        "cache.hits": len(hits),
        "cache.hit_ratio": len(hits) / len(gets) if gets else 0.0,
        "cache.get_s": duration(gets),
        "cache.get_us_p50": median_ms(gets) * 1e3,
        "cache.puts": len(puts),
        "cache.put_s": duration(puts),
        "cache.bytes": sum(span.get("b", 0) for span in gets + puts),
        "experiments.self_s": self_sum(of("experiments.run")),
        "experiments.direct_sim_s": duration(
            [span for span in sims
             if parent_layer(span) == "experiments.run"]),
        "service.submit_ms_p50": median_ms(submits),
        "service.submit_ms_max": max(
            ((span["t1"] - span["t0"]) * 1e3 for span in submits),
            default=0.0),
        "service.result_ms_p50": median_ms(of("service.result")),
        "service.http_s": duration(of("service.submit", "service.jobs",
                                      "service.result")),
        "service.polls": len(of("service.jobs")),
        "service.coalesced_jobs": sum(
            1 for job in jobs
            if job["counters"].get("cells") and
            not job["counters"].get("computed")),
        "service.dedup_hits": sum(job["counters"].get("dedup_hits", 0)
                                  for job in jobs),
    }


def root_coverage(directory: str | os.PathLike, pid: int) -> float:
    """Sum of every layer's self time in process ``pid``: the time its
    root spans cover, which a full attribution makes equal to wall."""
    spans = [span for span in load(directory)[0] if span["pid"] == pid]
    self_s = self_times(spans)
    return sum(self_s.values())
