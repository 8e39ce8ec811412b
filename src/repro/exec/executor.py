"""Parallel sweep executor with memoised, cache-backed, fault-tolerant cells.

A *cell* is one independent unit of experiment work, of one of two
kinds:

* a :class:`Cell` is a closed-loop simulation: build the (deterministic,
  calibrated) traces for a workload profile or mix, then run one policy
  configuration on them, returning a
  :class:`~repro.sim.results.RunResult`;
* a :class:`StudyCell` is any other run — an attack-harness outcome, a
  queued-scheduler replay — named as a module-level function plus
  canonical arguments, returning plain JSON data.

Every experiment decomposes its work into flat lists of cells —
``sweep_designs`` submits ``(1 baseline + N designs) × workloads`` — and
:class:`SweepExecutor` executes such lists with three layers of reuse:

1. an **in-memory memo** spanning the executor's lifetime, so the shared
   unprotected baseline of a (workload, system, sim) triple is computed
   once per CLI invocation no matter how many experiments need it;
2. an optional **content-addressed disk cache**
   (:class:`~repro.exec.cache.RunCache`), making warm re-runs
   near-instant across invocations;
3. a **process pool** (``jobs > 1``) fanning the remaining cells out.

Every cell is deterministic — traces and policies derive all randomness
from the cell's own seeds — so execution order cannot change any result:
serial, parallel and cached paths return byte-identical results, and
the caller merges them back in its own fixed order.

On top of the reuse layers sits a **resilience layer**
(:mod:`repro.exec.resilience`): each cell runs under a
:class:`~repro.exec.resilience.CellPolicy` (per-attempt timeout, bounded
retries with deterministic fingerprint-jittered backoff); a cell that
exhausts its budget becomes a :class:`~repro.exec.resilience.FailedCell`
terminal record and the sweep finishes everything else before raising
one :class:`~repro.exec.resilience.SweepFailure`.  Results crossing the
process boundary are structurally validated, and a repeatedly broken
worker pool degrades to in-process serial execution with a loud warning.
Every completed cell reaches the cache before a failure is raised, so
relaunching an interrupted sweep over the same cache computes only the
cells it lacks.  Failure paths are exercised deterministically via
:mod:`repro.exec.faults` (``REPRO_FAULTS``).

Cells whose policy is not a :class:`~repro.exec.spec.PolicySpec` (a bare
closure) cannot cross a process boundary or be fingerprinted; they are
executed inline in the parent and never cached — correct, just without
the speedups.

The executor is **thread-safe**: any number of threads may call
:meth:`SweepExecutor.run_cells` concurrently on one shared instance (the
sweep service runs up to ``--job-concurrency`` jobs this way).  Shared
state — memo, stats, the worker pool, the in-flight table — sits behind
one lock; per-run knobs (cell policy, progress sink) and
attributed per-run stats bind through :meth:`SweepExecutor.scoped`,
which is thread-local, so concurrent runs never see each other's
configuration.  Concurrent runs share the pool fairly: with more than
one sweep active, each throttles its pooled submissions to roughly
``jobs / active_runs`` outstanding cells instead of flooding the queue.

Concurrent lookups of the *same* fingerprint deduplicate in flight
(singleflight): the first run to scan a missing fingerprint claims it,
later runs attach to the claim and wait for the one computation instead
of redoing it.  The scan is atomic per sweep, so two identical sweeps
racing each other partition cleanly — one computes everything, the other
attaches to everything and finishes with ``computed=0`` and a memo hit
(plus a ``dedup_hits`` mark) per cell: raced, not ordered, same totals.

Telemetry (:mod:`repro.obs`) composes with every layer above.  When
ambient telemetry is active the executor ships a picklable
:class:`~repro.obs.snapshot.CaptureSpec` with each cell; the cell
records into a private in-memory telemetry (worker- or parent-side) and
returns a :class:`~repro.obs.snapshot.TelemetrySnapshot` alongside its
result.  Snapshots ride the memo, are persisted as content-addressed
artifacts next to the cache entry (replayed on warm hits), and are
merged into the ambient telemetry in cell submission order — so serial,
parallel, cached and relaunched sweeps produce byte-identical merged
metrics and journals (see ``docs/observability.md``).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import (BrokenExecutor, Future,
                                ProcessPoolExecutor)
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable

from repro.exec import faults
from repro.exec.cache import RunCache
from repro.exec.fingerprint import (FingerprintError, canonical,
                                    fingerprint)
from repro.exec.resilience import (CellPolicy, CellTimeout, FailedCell,
                                   SweepFailure, validate_result,
                                   validate_snapshot, validate_study_value)
from repro.exec.spec import PolicySpec, resolve_ref
from repro.obs import runtime as obs_runtime
from repro.obs.progress import SweepProgress
from repro.obs.snapshot import (CaptureSpec, TelemetrySnapshot,
                                capture_snapshot, merge_snapshot)
from repro.obs.spans import KIND_ATTEMPT, KIND_CELL, KIND_SWEEP
from repro.sim.batched import check_backend
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.results import RunResult
from repro.workloads.mixes import MixRecipe
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class Cell:
    """One independent simulation: workload × system × sim × policy.

    ``workload`` is the trace recipe: a profile, or a
    :class:`~repro.workloads.mixes.MixRecipe` for a multi-program mix.
    ``trace_system`` is the system the traces are built (and calibrated)
    for; ``run_system`` is the system the run executes on.  They differ
    for designs like PRAC that override hardware timings while keeping
    the baseline's traces, which is how the paper pairs those runs, and
    for the page-policy ablation, which runs closed-page controllers on
    the open-page traces.
    """

    workload: WorkloadProfile | MixRecipe
    trace_system: SystemConfig
    run_system: SystemConfig
    sim: SimConfig
    policy: PolicySpec | Callable | None
    policy_name: str

    def key(self) -> dict:
        """The cell's identity as canonical-encodable parts."""
        return {
            "workload": self.workload,
            "trace_system": self.trace_system,
            "run_system": self.run_system,
            "sim": self.sim,
            "policy": self.policy,
            "policy_name": self.policy_name,
        }

    @property
    def workload_name(self) -> str:
        return self.workload.name


@dataclass(frozen=True)
class StudyCell:
    """One run that is not a closed-loop simulation.

    ``ref`` names a module-level function (``"module:qualname"``) and
    ``kwargs`` holds its sorted keyword arguments, which must be
    canonically encodable — the way a
    :class:`~repro.exec.spec.PolicySpec` names a policy factory.  The
    function returns plain JSON data (see
    :func:`~repro.exec.resilience.validate_study_value`), which the run
    cache stores as is.  ``workload_name`` and ``policy_name`` label the
    cell in spans and failure reports; they are not part of its
    identity.
    """

    ref: str
    kwargs: tuple
    workload_name: str
    policy_name: str

    @classmethod
    def of(cls, fn: Callable, workload_name: str, policy_name: str,
           **kwargs) -> "StudyCell":
        """The study cell calling module-level ``fn(**kwargs)``."""
        return cls(ref=f"{fn.__module__}:{fn.__qualname__}",
                   kwargs=tuple(sorted(kwargs.items())),
                   workload_name=workload_name, policy_name=policy_name)

    def key(self) -> dict:
        """The cell's identity as canonical-encodable parts."""
        return {"study": self.ref, "kwargs": dict(self.kwargs)}

    def run(self):
        """Call the study function (resolved afresh, like a spec)."""
        return resolve_ref(self.ref)(**dict(self.kwargs))


def cell_fingerprint(cell: Cell | StudyCell) -> str | None:
    """Content fingerprint of ``cell``, or ``None`` if not spec-backed."""
    if isinstance(cell, Cell) and not (
            cell.policy is None or isinstance(cell.policy, PolicySpec)):
        return None
    try:
        return fingerprint(**cell.key())
    except FingerprintError:
        return None


def _worker_init() -> None:
    """Worker bootstrap: never inherit ambient telemetry across a fork,
    and arm process-killing fault kinds (they must never fire inline)."""
    obs_runtime.deactivate()
    faults.mark_worker()


def _execute_cell(cell: Cell | StudyCell, fp: str | None = None,
                  attempt: int = 0, capture: CaptureSpec | None = None) \
        -> tuple[object, float, TelemetrySnapshot | None]:
    """Run one cell to completion (worker- and parent-side entry point).

    Returns the result, the engine wall-seconds (excluding trace
    building — they feed the executor's aggregate events/sec figure;
    zero for a study, which runs no engine), and — when ``capture`` is
    given — the cell's telemetry snapshot.  The capture telemetry is
    private to this call and passed explicitly, so an ambient parent
    telemetry can never double-count an inline cell.
    ``fp``/``attempt`` key deterministic fault injection
    (:mod:`repro.exec.faults`); with no plan active they are inert.
    """
    corrupt = faults.inject_before(fp, attempt)
    if corrupt is not None:
        return faults.CORRUPT_SENTINEL, 0.0, None
    if capture is None:
        return (*_compute(cell, None), None)
    local = capture.build()
    # The attempt span is exec-side: which attempt succeeded and in
    # which process is execution detail, spliced out of the normalized
    # tree while its phase children survive.
    attempt_span = local.spans.begin(
        "attempt", kind=KIND_ATTEMPT, exec_side=True,
        meta={"attempt": attempt, "pid": os.getpid()})
    try:
        result, seconds = _compute(cell, local)
    finally:
        local.spans.end(attempt_span)
    return result, seconds, capture_snapshot(local)


def _compute(cell: Cell | StudyCell, telemetry) -> tuple[object, float]:
    """The cell's own work and its engine seconds, recorded as phases
    of ``telemetry`` when given."""
    def phase(name: str):
        return nullcontext() if telemetry is None else \
            telemetry.phase(name)

    if isinstance(cell, StudyCell):
        with phase(f"study:{cell.policy_name}"):
            return cell.run(), 0.0
    from repro.sim.runner import run_simulation
    from repro.workloads.builder import build_traces

    with phase("build_traces"):
        traces = build_traces(cell.workload, cell.trace_system, cell.sim)
    started = time.perf_counter()
    with phase(f"run:{cell.policy_name}"):
        result = run_simulation(cell.run_system, traces, cell.sim,
                                cell.policy, cell.policy_name,
                                telemetry=telemetry)
    return result, time.perf_counter() - started


def _problem(cell: Cell | StudyCell, result, snap,
             capture: CaptureSpec | None) -> str | None:
    """Why an attempt's outcome is unusable, or ``None``; under capture
    a structurally missing snapshot counts like a corrupt result."""
    if isinstance(cell, StudyCell):
        problem = validate_study_value(result)
    else:
        problem = validate_result(result)
    if problem is None and capture is not None:
        problem = validate_snapshot(snap)
    return problem


@dataclass
class ExecutorStats:
    """Work accounting across one executor's lifetime."""

    cells: int = 0
    computed: int = 0
    inline: int = 0
    #: Always 0: there is one engine.  Kept only because the e2e
    #: benchmark's tracer still reads it (see :mod:`repro.sim.batched`).
    batched: int = 0
    memo_hits: int = 0
    #: memo hits that were *raced*: the fingerprint was in flight on
    #: another run when this run scanned it, so this run attached to the
    #: one computation instead of redoing it.  Every dedup hit is also
    #: counted as a memo hit — dedup refines the hit, it does not
    #: replace it.
    dedup_hits: int = 0
    retries: int = 0
    timeouts: int = 0
    failed: int = 0
    fallbacks: int = 0
    engine_events: int = 0
    engine_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def events_per_sec(self) -> float:
        """Aggregate engine throughput over all computed cells."""
        if self.engine_seconds <= 0:
            return 0.0
        return self.engine_events / self.engine_seconds

    def describe(self) -> str:
        line = (f"cells={self.cells} computed={self.computed} "
                f"memo_hits={self.memo_hits} inline={self.inline} "
                f"retries={self.retries} timeouts={self.timeouts}")
        if self.dedup_hits:
            line += f" dedup_hits={self.dedup_hits}"
        if self.failed:
            line += f" failed={self.failed}"
        if self.fallbacks:
            line += f" fallbacks={self.fallbacks}"
        line += (f" wall={self.wall_seconds:.1f}s "
                 f"engine={self.events_per_sec:,.0f} events/s")
        return line


class _Flight:
    """One in-flight fingerprint computation other runs can attach to.

    ``outcome`` is published before ``done`` is set: a
    :class:`FailedCell` for a terminal failure, else ``None`` — waiters
    distinguish success from abandonment by whether the memo holds the
    result when they re-check, and re-claim the fingerprint themselves
    if it does not.
    """

    __slots__ = ("done", "outcome")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.outcome: FailedCell | None = None


@dataclass
class ScopedRun:
    """One thread's private view of a shared :class:`SweepExecutor`.

    Produced by :meth:`SweepExecutor.scoped`: while the binding is
    active on a thread, that thread's ``run_cells`` calls use these
    knobs (``None`` falls back to the executor default) and every stat
    the run generates is *additionally* accumulated into ``stats``, and
    into the ``stats`` of every enclosing binding — attributed deltas,
    with no snapshot arithmetic against the global counters that
    concurrent runs are mutating at the same time.
    """

    policy: CellPolicy | None = None
    progress: SweepProgress | None = None
    stats: ExecutorStats = field(default_factory=ExecutorStats)
    #: The binding this one nests in, or ``None`` at the outermost.
    parent: "ScopedRun | None" = field(default=None, init=False,
                                       repr=False)


class SweepExecutor:
    """Executes cell lists with memoisation, caching and a worker pool.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs every cell inline in the
        parent, which is the reference execution mode.
    cache:
        Optional :class:`RunCache`; hits skip the cell's work and
        fresh results are persisted for future invocations.
    policy:
        Per-cell :class:`CellPolicy` (timeout, retries, backoff).  The
        default retries twice with no timeout — a clean run is a single
        attempt with zero overhead.
    progress:
        Optional :class:`~repro.obs.progress.SweepProgress` fed with
        cell-level events (submitted / hit / computed / retried /
        failed) for live reporting.
    backend:
        Deprecated and ignored: ``"batched"`` or ``"auto"`` warns once
        and every cell still runs on the scalar engine; an unknown value
        is a :class:`ValueError`.  Kept only for the e2e benchmark (see
        :mod:`repro.sim.batched`).
    """

    #: Pool breakages tolerated before degrading to serial execution.
    POOL_FAILURE_LIMIT = 2

    def __init__(self, jobs: int = 1, cache: RunCache | None = None,
                 policy: CellPolicy | None = None,
                 progress: SweepProgress | None = None,
                 backend: str = "scalar") -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        check_backend(backend, "SweepExecutor(backend=...)")
        self.jobs = jobs
        self.cache = cache
        self._policy = policy if policy is not None else CellPolicy()
        self._progress_sink = progress
        self.stats = ExecutorStats()
        #: fingerprint -> (result, snapshot-or-None); snapshots are kept
        #: so a memo hit under telemetry can replay the cell's capture.
        self._memo: dict[str, tuple[object,
                                    TelemetrySnapshot | None]] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._pool_breaks = 0
        self._pool_disabled = False
        #: One reentrant lock guards all cross-thread state: memo,
        #: global stats, the pool handle and the in-flight table.  Held
        #: across each sweep's whole scan phase so claim-or-attach is
        #: atomic per sweep.
        self._lock = threading.RLock()
        #: fingerprint -> _Flight for cells being computed right now.
        self._inflight: dict[str, _Flight] = {}
        self._active_runs = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Per-thread scoped bindings
    # ------------------------------------------------------------------
    def _binding(self) -> ScopedRun | None:
        return getattr(self._local, "binding", None)

    @contextmanager
    def scoped(self, policy: CellPolicy | None = None,
               progress: SweepProgress | None = None):
        """Bind per-thread knobs and attributed stats for a ``with``
        block.

        Yields a :class:`ScopedRun` whose ``stats`` accumulate exactly
        the work this thread's ``run_cells`` calls generate — the way
        the sweep service attributes counters to one job while other
        jobs share the same executor.  Bindings nest: a knob left
        ``None`` inherits the enclosing binding's value (the executor's
        own at the outermost), every stat also accumulates into each
        enclosing binding, and the enclosing binding is restored on
        exit.  Bindings never leak across threads.
        """
        outer = self._binding()
        if outer is not None:
            policy = policy if policy is not None else outer.policy
            progress = progress if progress is not None \
                else outer.progress
        binding = ScopedRun(policy=policy, progress=progress)
        binding.parent = outer
        self._local.binding = binding
        try:
            yield binding
        finally:
            self._local.binding = outer

    @property
    def policy(self) -> CellPolicy:
        """This thread's cell policy: its binding's, else the
        executor's own."""
        binding = self._binding()
        if binding is not None and binding.policy is not None:
            return binding.policy
        return self._policy

    @property
    def progress(self) -> SweepProgress | None:
        """This thread's progress sink: its binding's, else the
        executor's own."""
        binding = self._binding()
        if binding is not None and binding.progress is not None:
            return binding.progress
        return self._progress_sink

    def _stat(self, name: str, amount=1) -> None:
        """Bump one stat globally and on the thread's bindings, if any."""
        with self._lock:
            setattr(self.stats, name, getattr(self.stats, name) + amount)
        binding = self._binding()
        while binding is not None:
            setattr(binding.stats, name,
                    getattr(binding.stats, name) + amount)
            binding = binding.parent

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _pool_handle(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, initializer=_worker_init)
            return self._pool

    def _pool_usable(self) -> bool:
        with self._lock:
            return self.jobs > 1 and not self._pool_disabled

    def _note_pool_failure(self, pool: ProcessPoolExecutor | None) -> None:
        """Record one pool breakage; degrade to serial past the limit.

        ``pool`` is the executor the failed future came from: a stale
        pool that was already replaced is ignored, so one breakage never
        counts once per in-flight future.
        """
        with self._lock:
            if pool is None or pool is not self._pool:
                return
            self._pool_breaks += 1
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._pool = None
            if self._pool_breaks < self.POOL_FAILURE_LIMIT or \
                    self._pool_disabled:
                return
            self._pool_disabled = True
            breaks = self._pool_breaks
        self._stat("fallbacks")
        self._span_event("pool_fallback", {"breaks": breaks})
        print(f"[repro.exec] worker pool failed {breaks} times; "
              f"falling back to in-process serial execution",
              file=sys.stderr)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_cells(self, cells: list[Cell | StudyCell]) -> list:
        """Execute ``cells`` and return results in submission order: a
        :class:`RunResult` per :class:`Cell`, the plain value per
        :class:`StudyCell`.

        Cells that fail terminally (retry budget exhausted) are reported
        in one :class:`SweepFailure` raised *after* every other cell has
        completed and been cached, so a relaunch over the same cache
        redoes only the losers.

        With ambient telemetry active, every cell additionally captures
        a :class:`TelemetrySnapshot` (in the worker, inline, or replayed
        from memo/cache) and the snapshots are merged into the ambient
        telemetry here, in submission order — one merged run per cell
        occurrence, whatever the execution mode.
        """
        started = time.perf_counter()
        self._stat("cells", len(cells))
        failures: list[FailedCell] = []
        telemetry = obs_runtime.active()
        capture = CaptureSpec.from_telemetry(telemetry) \
            if telemetry is not None else None
        sweep_span = None if telemetry is None else telemetry.spans.begin(
            "sweep", kind=KIND_SWEEP, meta={"cells": len(cells)})
        if self.progress is not None:
            self.progress.add_cells(len(cells))
        with self._lock:
            self._active_runs += 1
        try:
            try:
                results, snaps = self._run(cells, failures, capture)
            finally:
                if self.progress is not None:
                    self.progress.finish()
            if telemetry is not None:
                self._merge_all(telemetry, cells, snaps)
        finally:
            with self._lock:
                self._active_runs -= 1
            if sweep_span is not None:
                telemetry.spans.end(sweep_span)
        self._stat("wall_seconds", time.perf_counter() - started)
        if failures:
            raise SweepFailure(failures)
        return results

    def _merge_all(self, telemetry, cells: list[Cell],
                   snaps: list[TelemetrySnapshot | None]) -> None:
        """Merge cell snapshots in submission order.

        Each snapshot is merged inside a ``cell`` span so the
        worker-recorded subtree (attempt → phases → engine) grafts under
        it; cell spans carry only structural metadata, so the normalized
        tree is identical across execution modes.
        """
        tracer = telemetry.spans
        for index, snap in enumerate(snaps):
            if snap is None:
                continue
            cell = cells[index]
            span = tracer.begin(
                f"{cell.workload_name}/{cell.policy_name}",
                kind=KIND_CELL,
                meta={"workload": cell.workload_name,
                      "policy": cell.policy_name, "index": index},
                rebase=True)
            try:
                merge_snapshot(telemetry, snap)
            finally:
                tracer.end(span)

    def _run(self, cells: list[Cell], failures: list[FailedCell],
             capture: CaptureSpec | None):
        results: list = [None] * len(cells)
        snaps: list[TelemetrySnapshot | None] = [None] * len(cells)
        #: fingerprint -> indices this run will compute itself (owned).
        pending: dict[str, list[int]] = {}
        #: fingerprint -> indices attached to another run's computation.
        attached: dict[str, list[int]] = {}
        #: owned fingerprint -> its claim in the shared in-flight table.
        flights: dict[str, _Flight] = {}
        inline: list[int] = []
        # The scan holds the lock end to end so claim-or-attach is
        # atomic per sweep: two identical concurrent sweeps partition
        # cleanly — whichever scans first owns every cell, the other
        # attaches to every cell — never an interleaved split.
        with self._lock:
            for index, cell in enumerate(cells):
                fp = cell_fingerprint(cell)
                if fp is None:
                    inline.append(index)
                    continue
                if fp in pending:
                    pending[fp].append(index)
                    continue
                if fp in attached:
                    attached[fp].append(index)
                    continue
                known = self._lookup(fp, capture)
                if known is not None:
                    results[index], snaps[index] = known
                    continue
                flight = self._inflight.get(fp)
                if flight is not None:
                    attached[fp] = [index]
                    continue
                flights[fp] = self._inflight[fp] = _Flight()
                pending[fp] = [index]

        try:
            self._run_owned(cells, pending, flights, inline, results,
                            snaps, failures, capture)
            for fp, indices in attached.items():
                outcome = self._await_flight(fp, cells[indices[0]],
                                             capture)
                if isinstance(outcome, FailedCell):
                    failures.append(outcome)
                    continue
                result, snap = outcome
                for index in indices:
                    results[index] = result
                    snaps[index] = snap
        finally:
            # Abandon mop-up: if anything above raised, release every
            # claim this run still holds so attached runs re-claim and
            # compute instead of waiting forever.
            for fp, flight in flights.items():
                self._finish_flight(fp, flight)
        return results, snaps

    def _run_owned(self, cells: list[Cell],
                   pending: dict[str, list[int]],
                   flights: dict[str, "_Flight"], inline: list[int],
                   results: list, snaps: list,
                   failures: list[FailedCell],
                   capture: CaptureSpec | None) -> None:
        """Compute every fingerprint this run owns (claimed at scan)."""
        owned = list(pending.items())
        with self._lock:
            shared = self._active_runs > 1
        use_pool = self._pool_usable() and (shared or len(owned) > 1)

        # Fair-share sliding window: a lone run submits every cell
        # eagerly (the historical behaviour); with other runs active,
        # each keeps only about jobs/active_runs cells outstanding so
        # one big sweep cannot flood the shared pool and starve its
        # neighbours.  The window re-fills as cells resolve, and adapts
        # as runs start and finish.
        futures: dict[str, tuple[Future, ProcessPoolExecutor]] = {}
        cursor = 0

        def fill_window() -> None:
            nonlocal cursor
            while cursor < len(owned):
                with self._lock:
                    active = max(1, self._active_runs)
                if active > 1 and \
                        len(futures) >= -(-self.jobs // active) + 1:
                    return
                fp, indices = owned[cursor]
                submitted = self._submit(cells[indices[0]], fp, 0,
                                         capture)
                if submitted is None:
                    return  # pool unusable; resolve loop runs inline
                futures[fp] = submitted
                cursor += 1

        if use_pool:
            fill_window()

        # Spec-less cells run while the pool churns in the background.
        for index in inline:
            result, seconds, snap = _execute_cell(cells[index],
                                                  capture=capture)
            self._account_computed(result, seconds, inline=True)
            results[index] = result
            snaps[index] = snap

        for fp, indices in owned:
            future, pool = futures.pop(fp, (None, None))
            outcome = self._resolve_cell(fp, cells[indices[0]], future,
                                         pool, capture)
            if use_pool:
                fill_window()
            if isinstance(outcome, FailedCell):
                failures.append(outcome)
                self._finish_flight(fp, flights[fp], failed=outcome)
                continue
            result, seconds, snap = outcome
            self._account_computed(result, seconds)
            self._store(fp, cells[indices[0]], result, snap)
            self._finish_flight(fp, flights[fp])
            for index in indices:
                results[index] = result
                snaps[index] = snap

    # ------------------------------------------------------------------
    # In-flight deduplication (singleflight)
    # ------------------------------------------------------------------
    def _finish_flight(self, fp: str, flight: "_Flight",
                       failed: FailedCell | None = None) -> None:
        """Retire ``fp``'s claim and wake attached waiters (idempotent).

        The identity check keeps a late mop-up from evicting a *new*
        claim another run installed after this one abandoned the
        fingerprint.
        """
        with self._lock:
            if self._inflight.get(fp) is flight:
                del self._inflight[fp]
        if not flight.done.is_set():
            flight.outcome = failed
            flight.done.set()

    def _await_flight(self, fp: str, cell: Cell,
                      capture: CaptureSpec | None):
        """Take ``fp`` from the run that owns it (or inherit the claim).

        Returns ``(result, snapshot)`` — counted as a memo hit plus a
        dedup hit, since the fingerprint was raced rather than replayed
        from an earlier run — or the owner's :class:`FailedCell`.  If
        the owner abandoned the claim without publishing a result, this
        run re-claims and computes the cell itself.
        """
        while True:
            with self._lock:
                known = self._lookup(fp, capture)
                if known is not None:
                    self._stat("dedup_hits")
                    self._span_event("dedup_hit",
                                     {"fingerprint": fp[:12]})
                    return known
                flight = self._inflight.get(fp)
                if flight is None:
                    flight = self._inflight[fp] = _Flight()
                    claimed = True
                else:
                    claimed = False
            if claimed:
                break
            flight.done.wait()
            if flight.outcome is not None:
                self._stat("failed")
                self._progress("failed")
                return flight.outcome
            # outcome None: success (memo will hit on re-check) or an
            # abandoned claim (re-check finds nothing and re-claims).
        outcome = self._resolve_cell(fp, cell, None, None, capture)
        if isinstance(outcome, FailedCell):
            self._finish_flight(fp, flight, failed=outcome)
            return outcome
        result, seconds, snap = outcome
        self._account_computed(result, seconds)
        self._store(fp, cell, result, snap)
        self._finish_flight(fp, flight)
        return result, snap

    def inflight_cells(self) -> int:
        """Unique fingerprints currently being computed, across all
        concurrent runs (the ``repro_scheduler_inflight_cells`` gauge)."""
        with self._lock:
            return len(self._inflight)

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------
    def _resolve_cell(self, fp: str | None, cell: Cell,
                      future: Future | None,
                      pool: ProcessPoolExecutor | None,
                      capture: CaptureSpec | None = None):
        """Drive one cell through the retry policy.

        Returns ``(result, seconds, snapshot)`` on success or a
        :class:`FailedCell` once the attempt budget is spent.  ``future``
        is the already in-flight first attempt (pooled path); retries
        re-submit to the pool while it is healthy and drop to inline
        execution otherwise.  Under telemetry capture, a structurally
        missing snapshot is treated exactly like a corrupt result.
        """
        attempt = 0
        while True:
            kind = error = None
            try:
                if future is not None:
                    result, seconds, snap = future.result(
                        timeout=self.policy.timeout_s)
                else:
                    result, seconds, snap = self._attempt_inline(
                        cell, fp, attempt, capture)
                problem = _problem(cell, result, snap, capture)
                if problem is None:
                    return result, seconds, snap
                kind, error = "corrupt", problem
            except (FuturesTimeout, CellTimeout) as exc:
                kind = "timeout"
                error = str(exc) or (
                    f"attempt exceeded {self.policy.timeout_s:g}s"
                    if self.policy.timeout_s else "attempt timed out")
                self._stat("timeouts")
                self._span_event("timeout",
                                 {"policy": cell.policy_name,
                                  "attempt": attempt})
            except BrokenExecutor as exc:
                kind = "pool"
                error = f"{type(exc).__name__}: {exc}"
                self._note_pool_failure(pool)
            except Exception as exc:
                kind = "crash"
                error = f"{type(exc).__name__}: {exc}"

            attempt += 1
            if attempt >= self.policy.attempts:
                self._stat("failed")
                self._progress("failed")
                self._span_event("cell_failed",
                                 {"policy": cell.policy_name,
                                  "kind": kind})
                return FailedCell(
                    fingerprint=fp or "(unfingerprintable)",
                    workload=cell.workload_name,
                    policy_name=cell.policy_name,
                    attempts=attempt, kind=kind, error=error)
            self._stat("retries")
            self._progress("retried")
            self._span_event("retry", {"policy": cell.policy_name,
                                       "kind": kind,
                                       "attempt": attempt})
            time.sleep(self.policy.backoff(fp or cell.policy_name,
                                           attempt))
            submitted = self._submit(cell, fp, attempt, capture)
            future, pool = submitted if submitted else (None, None)

    def _submit(self, cell: Cell, fp: str | None, attempt: int,
                capture: CaptureSpec | None = None) \
            -> tuple[Future, ProcessPoolExecutor] | None:
        """Submit one attempt to the pool, or ``None`` for inline."""
        if not self._pool_usable():
            return None
        try:
            pool = self._pool_handle()
            return pool.submit(_execute_cell, cell, fp, attempt,
                               capture), pool
        except Exception:
            self._note_pool_failure(self._pool)
            return None

    def _attempt_inline(self, cell: Cell, fp: str | None, attempt: int,
                        capture: CaptureSpec | None = None):
        """One in-process attempt, under the policy timeout if set.

        The timeout runs the cell on a daemon watchdog thread and
        abandons it on expiry — the thread finishes (or sleeps out an
        injected hang) in the background while the retry proceeds.
        """
        timeout = self.policy.timeout_s
        if timeout is None:
            return _execute_cell(cell, fp, attempt, capture)
        box: list = []

        def target() -> None:
            try:
                box.append(("ok", _execute_cell(cell, fp, attempt,
                                                capture)))
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                box.append(("err", exc))

        thread = threading.Thread(
            target=target, daemon=True,
            name=f"repro-cell-{(fp or cell.policy_name)[:12]}")
        thread.start()
        thread.join(timeout)
        if not box:
            raise CellTimeout(f"inline attempt exceeded {timeout:g}s")
        status, payload = box[0]
        if status == "err":
            raise payload
        return payload

    def _span_event(self, name: str, meta: dict | None = None) -> None:
        """Record an exec-side event on the open sweep span, if any."""
        telemetry = obs_runtime.active()
        if telemetry is not None:
            telemetry.spans.event(name, meta)

    def _progress(self, kind: str, seconds: float | None = None) -> None:
        if self.progress is not None:
            self.progress.record(kind, seconds)

    # ------------------------------------------------------------------
    # Reuse layers
    # ------------------------------------------------------------------
    def _lookup(self, fp: str, capture: CaptureSpec | None = None) \
            -> tuple[object, TelemetrySnapshot | None] | None:
        """Serve ``fp`` from memo or cache (call with ``_lock`` held).

        Under telemetry capture a known result only counts when its
        snapshot is also available (memoised or as the cache's telemetry
        artifact) — otherwise the cell recomputes so the merged
        telemetry stays complete.  Without capture, any stored snapshot
        is withheld from the return value so nothing gets merged.
        """
        entry = self._memo.get(fp)
        if entry is not None:
            result, snap = entry
            if capture is None or snap is not None:
                self._stat("memo_hits")
                self._progress("hit")
                self._span_event("memo_hit", {"fingerprint": fp[:12]})
                return result, (snap if capture is not None else None)
        if self.cache is not None:
            if capture is not None:
                cached = self.cache.get_with_telemetry(fp)
            else:
                plain = self.cache.get(fp)
                cached = None if plain is None else (plain, None)
            if cached is not None:
                result, snap = cached
                self._progress("hit")
                self._span_event("cache_hit", {"fingerprint": fp[:12]})
                self._memo[fp] = (result, snap)
                return result, snap
        return None

    def _store(self, fp: str, cell: Cell | StudyCell, result,
               snap: TelemetrySnapshot | None = None) -> None:
        with self._lock:
            self._memo[fp] = (result, snap)
            if self.cache is not None:
                self.cache.put(fp, result, key=canonical(cell.key()))
                if snap is not None:
                    self.cache.put_telemetry(fp, snap)

    def _account_computed(self, result, seconds: float,
                          inline: bool = False) -> None:
        self._stat("computed")
        if inline:
            self._stat("inline")
        if isinstance(result, RunResult):
            self._stat("engine_events", result.requests_completed)
        self._stat("engine_seconds", seconds)
        self._progress("computed", seconds)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line executor + cache summary for end-of-run reporting."""
        line = f"executor[jobs={self.jobs}]: {self.stats.describe()}"
        if self.cache is not None:
            line += f"; {self.cache.describe()}"
        return line
