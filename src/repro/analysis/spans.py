"""Analysis of sweep span traces (the ``repro spans`` subcommand).

Input is the JSON document written by ``--spans FILE``
(:meth:`repro.obs.Telemetry.write_spans`): a schema-versioned span
forest.  Three reductions live here:

* **critical path** — the longest dependency chain through the tree.
  Sibling spans are sequential by construction (the tracer lays grafted
  cell subtrees out back to back), so the chain total equals the sweep's
  serialized work: it matches the summed phase spans for a serial sweep
  and measures *total work* (not elapsed wall time) for a parallel
  one.
* **worker breakdown** — per-process attribution of attempt time into
  engine time, trace building and dispatch overhead (pickling, queueing,
  snapshot capture), the figure the ROADMAP's distributed-execution work
  needs to defend DREAM's low-overhead claim end to end.
* **Chrome trace export** — ``trace_event``-format JSON loadable in
  Perfetto (or ``chrome://tracing``): one process track per worker pid
  plus a dispatcher track for sweep/cell merge spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.spans import (ENGINE_LOOP, KIND_ATTEMPT, KIND_ENGINE,
                             SPANS_SCHEMA_VERSION, Span, span_from_doc,
                             span_profile)

#: Synthetic pid of the dispatcher track (sweep + merge spans that run
#: in the parent but outside any worker attempt).
DISPATCHER_PID = 0


@dataclass
class SpansDoc:
    """Decoded ``--spans`` file: the span forest."""

    schema: int
    roots: list[Span]

    def span_count(self) -> int:
        return sum(1 for root in self.roots for _ in root.walk())

    def cell_count(self) -> int:
        return sum(1 for root in self.roots for span in root.walk()
                   if span.kind == "cell")

    def phase_seconds(self) -> float:
        """Total phase wall time, summed over the tree's phase spans."""
        phases = span_profile(self.roots)["phases"]
        return sum(entry["seconds"] for entry in phases.values())


class SpansFormatError(ValueError):
    """The spans file is unreadable, malformed, or from the future."""


def load_spans(path: str) -> SpansDoc:
    """Decode a ``--spans`` output file.

    Raises :class:`SpansFormatError` with a self-explanatory message on
    any problem; a schema *newer* than this build gets its own message
    so the fix ("upgrade repro") is obvious, rather than a misleading
    "malformed file".
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpansFormatError(f"cannot read spans file: {exc}") from exc
    except ValueError as exc:
        raise SpansFormatError(
            f"spans file is not valid JSON: {exc}") from exc
    return decode_spans(doc, source="--spans FILE")


def decode_spans(doc, source: str = "a spans producer") -> SpansDoc:
    """Decode an already-parsed spans document.

    The shared back half of :func:`load_spans` and the remote
    ``/v1/jobs/<id>/spans`` path — both a local artifact file and the
    service endpoint serve the same schema-versioned document, so both
    validate and decode identically here.  ``source`` names the
    expected producer in the missing-section message.
    """
    if not isinstance(doc, dict) or "spans" not in doc:
        raise SpansFormatError(
            f"not a spans document (missing the 'spans' section); "
            f"expected output of {source}")
    schema = doc.get("schema")
    if not isinstance(schema, int):
        raise SpansFormatError("spans document has no integer 'schema'")
    if schema > SPANS_SCHEMA_VERSION:
        raise SpansFormatError(
            f"spans schema v{schema} is newer than the supported "
            f"v{SPANS_SCHEMA_VERSION}; upgrade repro to read this file")
    span_docs = doc.get("spans")
    if not isinstance(span_docs, list):
        raise SpansFormatError("'spans' section must be a list")
    roots = []
    for index, span_doc in enumerate(span_docs):
        span = span_from_doc(span_doc)
        if span is None:
            raise SpansFormatError(f"malformed span document at "
                                   f"index {index}")
        roots.append(span)
    return SpansDoc(schema=schema, roots=roots)


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
@dataclass
class CriticalPath:
    """The sweep's longest dependency chain."""

    total_s: float
    #: Dominant chain from the root down (one span per depth level).
    steps: list[Span] = field(default_factory=list)


def _chain_total(spans: list[Span]) -> float:
    """Max total duration over a non-overlapping chain of siblings.

    Tracer-produced siblings are already sequential, so this is simply
    their sum; the DP keeps the figure honest for overlapping input
    (e.g. hand-edited or foreign trace files).
    """
    closed = sorted((span for span in spans if span.t1_s is not None),
                    key=lambda span: span.t1_s)
    best: list[float] = []
    for index, span in enumerate(closed):
        prior = max((best[j] for j in range(index)
                     if closed[j].t1_s <= span.t0_s + 1e-9),
                    default=0.0)
        best.append(prior + span.duration_s)
    return max(best, default=0.0)


def critical_path(roots: list[Span]) -> CriticalPath:
    """Total serialized work plus the dominant root-to-leaf chain."""
    total = _chain_total(roots)
    steps: list[Span] = []
    level = roots
    while level:
        closed = [span for span in level if span.t1_s is not None]
        if not closed:
            break
        heaviest = max(closed, key=lambda span: span.duration_s)
        steps.append(heaviest)
        level = heaviest.children
    return CriticalPath(total_s=total, steps=steps)


# ----------------------------------------------------------------------
# Worker breakdown
# ----------------------------------------------------------------------
@dataclass
class WorkerBreakdown:
    """Where one worker process spent its attempt time."""

    pid: int
    cells: int = 0
    busy_s: float = 0.0
    engine_s: float = 0.0
    build_s: float = 0.0

    @property
    def overhead_s(self) -> float:
        """Dispatch overhead: busy time not in the engine or builder
        (policy wiring, snapshot capture, result assembly)."""
        return max(0.0, self.busy_s - self.engine_s - self.build_s)

    @property
    def overhead_pct(self) -> float:
        if self.busy_s <= 0:
            return 0.0
        return 100.0 * self.overhead_s / self.busy_s


def worker_breakdown(roots: list[Span]) -> list[WorkerBreakdown]:
    """Per-pid attempt-time attribution, ordered by pid.

    Attempt spans carry the recording worker's pid; their subtree splits
    into engine time (``engine:event_loop`` spans), trace building
    (``build_traces`` phases) and the dispatch overhead in between.
    Serial sweeps show a single pid — the parent process.
    """
    workers: dict[int, WorkerBreakdown] = {}
    for root in roots:
        for span in root.walk():
            if span.kind != KIND_ATTEMPT:
                continue
            pid = int(span.meta.get("pid", -1))
            worker = workers.get(pid)
            if worker is None:
                worker = workers[pid] = WorkerBreakdown(pid=pid)
            worker.cells += 1
            worker.busy_s += span.duration_s
            for inner in span.walk():
                if inner.kind == KIND_ENGINE and \
                        inner.name == ENGINE_LOOP:
                    worker.engine_s += inner.duration_s
                elif inner.name == "build_traces":
                    worker.build_s += inner.duration_s
    return [workers[pid] for pid in sorted(workers)]


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def chrome_trace(roots: list[Span]) -> dict:
    """The forest as Chrome ``trace_event`` JSON (Perfetto-loadable).

    One process track per worker pid (attempt subtrees are drawn in the
    process that executed them) plus a dispatcher track for everything
    parent-side.  Complete ("X") events carry start/duration in µs and
    the span meta as ``args``; span events become instant ("i") events.
    """
    events: list[dict] = []
    pids: dict[int, str] = {DISPATCHER_PID: "sweep dispatcher"}
    tid_counter = [0]

    def emit(span: Span, pid: int, tid: int) -> None:
        if span.kind == KIND_ATTEMPT:
            pid = int(span.meta.get("pid", pid))
            pids.setdefault(pid, f"worker {pid}")
        if span.t1_s is not None:
            events.append({
                "name": span.name, "cat": span.kind, "ph": "X",
                "ts": round(span.t0_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": pid, "tid": tid, "args": dict(span.meta),
            })
        for record in span.events:
            event = {
                "name": record.get("name", "?"), "cat": "event",
                "ph": "i", "s": "t",
                "ts": round(record.get("t_s", 0.0) * 1e6, 3),
                "pid": pid, "tid": tid,
            }
            meta = record.get("meta")
            if meta:
                event["args"] = dict(meta)
            events.append(event)
        for child in span.children:
            child_tid = tid
            if child.kind == "cell":
                tid_counter[0] += 1
                child_tid = tid_counter[0]
            emit(child, pid, child_tid)

    for root in roots:
        emit(root, DISPATCHER_PID, 0)
    metadata = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                 "args": {"name": name}}
                for pid, name in sorted(pids.items())]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_spans(doc: SpansDoc, top: int = 10) -> str:
    """Human-readable report: shape, critical path, worker breakdown."""
    path = critical_path(doc.roots)
    lines = [f"spans: {doc.span_count()} total, "
             f"{doc.cell_count()} cells, schema v{doc.schema}"]
    phase_s = doc.phase_seconds()
    lines.append(f"critical path: {path.total_s:.3f}s serialized work"
                 + (f" (profiled phases: {phase_s:.3f}s)"
                    if phase_s else ""))
    for depth, span in enumerate(path.steps[:top]):
        lines.append(f"  {'  ' * depth}{span.name} "
                     f"[{span.kind}] {span.duration_s:.3f}s")
    workers = worker_breakdown(doc.roots)
    if workers:
        lines.append("per-worker breakdown "
                     "(busy = engine + build + dispatch overhead):")
        for worker in workers:
            lines.append(
                f"  pid {worker.pid}: cells={worker.cells} "
                f"busy={worker.busy_s:.3f}s "
                f"engine={worker.engine_s:.3f}s "
                f"build={worker.build_s:.3f}s "
                f"overhead={worker.overhead_s:.3f}s "
                f"({worker.overhead_pct:.1f}%)")
    return "\n".join(lines)
