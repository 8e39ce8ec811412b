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

A :class:`Cell`'s policy is a :class:`~repro.exec.spec.PolicySpec`
(what every ``@spec_factory`` factory returns) or ``None``: a bare
closure can neither cross a process boundary nor key the cache, so
:func:`cell_fingerprint` refuses it with a ``FingerprintError``.

The executor is **thread-safe**: any number of threads may call
:meth:`SweepExecutor.run_cells` concurrently on one shared instance (the
sweep service runs up to ``--job-concurrency`` jobs this way).  Shared
state — the claim table, stats, the worker pool — sits behind one lock;
per-run knobs (cell policy, progress sink) and attributed per-run stats
bind through :meth:`SweepExecutor.scoped`, which is thread-local, so
concurrent runs never see each other's configuration.  Concurrent runs
share the pool fairly: with more than one sweep active, each throttles
its pooled submissions to roughly ``jobs / active_runs`` outstanding
cells instead of flooding the queue.

One table maps each fingerprint to an entry; it is both the memo and
the singleflight registry.  The first run to scan a fingerprint that
nothing serves *claims* it; later runs *attach* and wait for the one
computation.  The owner settles the entry with its result (a settled
entry is the memo) or with a terminal failure its followers report too;
if its run raises first, the followers scan the cell again.  The scan
is atomic per sweep, so two identical sweeps racing each other
partition cleanly: one computes everything, the other attaches to
everything and finishes with ``computed=0`` and a memo hit (plus a
``dedup_hits`` mark) per cell — raced, not ordered, same totals.

Telemetry (:mod:`repro.obs`) composes with every layer above.  When
ambient telemetry is active the executor ships a picklable
:class:`~repro.obs.snapshot.CaptureSpec` with each cell; the cell
records into a private in-memory telemetry (worker- or parent-side) and
returns a :class:`~repro.obs.snapshot.TelemetrySnapshot` alongside its
result.  Snapshots ride the memo, are persisted as content-addressed
artifacts next to the cache entry (replayed on warm hits; a snapshot
taken at another sample period is not a hit), and are
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
from repro.exec.resilience import (CellPolicy, FailedCell, SweepFailure,
                                   validate_result, validate_snapshot,
                                   validate_study_value)
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
    policy: PolicySpec | None
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


def cell_fingerprint(cell: Cell | StudyCell) -> str:
    """Content fingerprint of ``cell``.

    Raises :class:`FingerprintError` for a :class:`Cell` whose policy is
    neither a :class:`PolicySpec` nor ``None``, or for any part without
    a canonical encoding.
    """
    if isinstance(cell, Cell) and not (
            cell.policy is None or isinstance(cell.policy, PolicySpec)):
        raise FingerprintError(
            f"cell {cell.workload_name}/{cell.policy_name}: the policy "
            f"must be a PolicySpec (decorate its factory with "
            f"@spec_factory), got {type(cell.policy).__name__}")
    return fingerprint(**cell.key())


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
                f"memo_hits={self.memo_hits} retries={self.retries} "
                f"timeouts={self.timeouts}")
        if self.dedup_hits:
            line += f" dedup_hits={self.dedup_hits}"
        if self.failed:
            line += f" failed={self.failed}"
        if self.fallbacks:
            line += f" fallbacks={self.fallbacks}"
        line += (f" wall={self.wall_seconds:.1f}s "
                 f"engine={self.events_per_sec:,.0f} events/s")
        return line


class _Entry:
    """One fingerprint of the executor's claim table.

    In flight until its owner settles it with ``value`` — the
    ``(result, snapshot)`` pair, which makes the entry the memo — or a
    terminal ``failure`` its followers report.  A claim to recompute a
    memoised cell (for a snapshot the memo lacks) carries the old value,
    which still serves runs that need no such snapshot.
    """

    __slots__ = ("settled", "value", "failure")

    def __init__(self, value: tuple | None = None,
                 settled: bool = False) -> None:
        self.settled = settled
        self.value = value
        self.failure: FailedCell | None = None


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
        #: The claim table: fingerprint -> _Entry, in flight or settled.
        self._entries: dict[str, _Entry] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._pool_breaks = 0
        self._pool_disabled = False
        #: One reentrant lock guards all cross-thread state: the claim
        #: table, global stats and the pool handle.  Held across each
        #: sweep's whole scan phase so claim-or-attach is atomic per
        #: sweep.
        self._lock = threading.RLock()
        #: Notified, under ``_lock``, each time an owner settles a claim.
        self._claim_settled = threading.Condition(self._lock)
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

        A cell :func:`cell_fingerprint` refuses raises before this run
        claims, counts or computes anything.  Cells that fail
        terminally (retry budget exhausted) are reported in one
        :class:`SweepFailure` raised *after* every other cell has
        completed and been cached, so a relaunch over the same cache
        redoes only the losers.

        With ambient telemetry active, every cell additionally captures
        a :class:`TelemetrySnapshot` (in the worker, inline, or replayed
        from memo/cache) and the snapshots are merged into the ambient
        telemetry here, in submission order — one merged run per cell
        occurrence, whatever the execution mode.
        """
        started = time.perf_counter()
        fps = [cell_fingerprint(cell) for cell in cells]
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
                results, snaps = self._run(cells, fps, failures,
                                           capture)
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

    def _run(self, cells: list[Cell], fps: list[str],
             failures: list[FailedCell], capture: CaptureSpec | None):
        results: list = [None] * len(cells)
        snaps: list[TelemetrySnapshot | None] = [None] * len(cells)
        todo = list(range(len(cells)))
        while todo:
            owned, attached = self._scan(fps, todo, results, snaps,
                                         capture)
            try:
                self._run_owned(cells, owned, results, snaps, failures,
                                capture)
            finally:
                # Abandon mop-up: if anything above raised, release every
                # claim this run still holds so its followers scan those
                # cells again instead of waiting forever.
                for fp, (entry, _) in owned.items():
                    self._settle(fp, entry)
            todo = []
            for fp, (entry, indices) in attached.items():
                outcome = self._follow(fp, entry, capture)
                if outcome is None:
                    todo.extend(indices)
                elif isinstance(outcome, FailedCell):
                    failures.append(outcome)
                else:
                    for index in indices:
                        results[index], snaps[index] = outcome
        return results, snaps

    def _scan(self, fps: list[str], todo: list[int], results: list,
              snaps: list, capture: CaptureSpec | None):
        """Serve, attach to or claim the cells at ``todo``.

        Returns the claimed and the attached fingerprints, each mapped
        to ``(entry, indices)``.  The scan holds the lock end to end so
        claim-or-attach is atomic per sweep: two identical concurrent
        sweeps partition cleanly — whichever scans first owns every
        cell, the other attaches to every cell — never an interleaved
        split.
        """
        owned: dict[str, tuple[_Entry, list[int]]] = {}
        attached: dict[str, tuple[_Entry, list[int]]] = {}
        with self._lock:
            for index in todo:
                fp = fps[index]
                known = owned.get(fp) or attached.get(fp)
                if known is not None:
                    known[1].append(index)
                    continue
                served = self._served(fp, capture) or \
                    self._from_cache(fp, capture)
                if served is not None:
                    results[index], snaps[index] = served
                    continue
                entry = self._entries.get(fp)
                if entry is None or entry.settled:
                    carried = None if entry is None else entry.value
                    entry = self._entries[fp] = _Entry(carried)
                    owned[fp] = (entry, [index])
                else:
                    attached[fp] = (entry, [index])
        return owned, attached

    def _run_owned(self, cells: list[Cell],
                   owned: dict[str, tuple[_Entry, list[int]]],
                   results: list, snaps: list,
                   failures: list[FailedCell],
                   capture: CaptureSpec | None) -> None:
        """Compute every fingerprint this run claimed at its scan."""
        owned = list(owned.items())
        with self._lock:
            shared = self._active_runs > 1
        use_pool = shared or len(owned) > 1

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
            while use_pool and cursor < len(owned):
                with self._lock:
                    active = max(1, self._active_runs)
                if active > 1 and \
                        len(futures) >= -(-self.jobs // active) + 1:
                    return
                fp, (_, indices) = owned[cursor]
                submitted = self._submit(cells[indices[0]], fp, 0,
                                         capture)
                if submitted is None:
                    return  # pool unusable; the attempt runs inline
                futures[fp] = submitted
                cursor += 1

        fill_window()
        for fp, (entry, indices) in owned:
            cell = cells[indices[0]]
            future, pool = futures.pop(fp, None) or \
                self._attempt_inline(cell, fp, 0, capture)
            outcome = self._resolve_cell(fp, cell, future, pool, capture)
            fill_window()
            if isinstance(outcome, FailedCell):
                failures.append(outcome)
                self._settle(fp, entry, failure=outcome)
                continue
            result, seconds, snap = outcome
            self._account_computed(result, seconds)
            self._settle(fp, entry, (result, snap), cell)
            for index in indices:
                results[index], snaps[index] = result, snap

    # ------------------------------------------------------------------
    # The claim table: memo and singleflight
    # ------------------------------------------------------------------
    def _served(self, fp: str, capture: CaptureSpec | None) \
            -> tuple[object, TelemetrySnapshot | None] | None:
        """What the table serves this run for ``fp`` — counted as a memo
        hit — or ``None`` (call with ``_lock`` held).

        An entry serves when it holds a result and, under telemetry
        capture, a snapshot taken at the capture's sample period;
        otherwise the cell recomputes so the merged telemetry stays
        complete.  Without capture no snapshot is served, so nothing
        gets merged.
        """
        entry = self._entries.get(fp)
        if entry is None or entry.value is None:
            return None
        result, snap = entry.value
        if capture is not None and not capture.accepts(snap):
            return None
        self._stat("memo_hits")
        self._progress("hit")
        self._span_event("memo_hit", {"fingerprint": fp[:12]})
        return result, (snap if capture is not None else None)

    def _from_cache(self, fp: str, capture: CaptureSpec | None) \
            -> tuple[object, TelemetrySnapshot | None] | None:
        """Serve ``fp`` from the disk cache into the table, or ``None``
        (call with ``_lock`` held).  Under capture only a result with a
        sidecar taken at the capture's period is a hit."""
        if self.cache is None:
            return None
        if capture is not None:
            cached = self.cache.get_with_telemetry(fp, capture)
        else:
            plain = self.cache.get(fp)
            cached = None if plain is None else (plain, None)
        if cached is not None:
            self._progress("hit")
            self._span_event("cache_hit", {"fingerprint": fp[:12]})
            # Into the memo; an entry in flight keeps its owner.
            self._entries.setdefault(fp, _Entry(settled=True)).value = \
                cached
        return cached

    def _settle(self, fp: str, entry: _Entry, value: tuple | None = None,
                cell: Cell | StudyCell | None = None,
                failure: FailedCell | None = None) -> None:
        """Settle this run's claim on ``fp`` and wake its followers
        (idempotent).

        A computed ``value`` becomes the memo and reaches the cache.  A
        claim settled without one — a terminal ``failure``, or abandoned
        by a run that raised — leaves the table unless it carries an
        earlier result, so the next scan claims the cell afresh.
        """
        with self._lock:
            if entry.settled:
                return
            if value is not None:
                entry.value = value
                if self.cache is not None:
                    result, snap = value
                    self.cache.put(fp, result, key=canonical(cell.key()))
                    if snap is not None:
                        self.cache.put_telemetry(fp, snap)
            elif entry.value is None:
                del self._entries[fp]
            entry.failure = failure
            entry.settled = True
            self._claim_settled.notify_all()

    def _follow(self, fp: str, entry: _Entry,
                capture: CaptureSpec | None):
        """Wait for the run that owns ``fp`` and take its outcome.

        Returns the owner's :class:`FailedCell`, or ``(result,
        snapshot)`` — counted as a memo hit plus a dedup hit, since the
        fingerprint was raced rather than replayed from an earlier run —
        or ``None`` when nothing serves this run (the owner abandoned
        its claim), so the caller scans the cell again.
        """
        with self._lock:
            self._claim_settled.wait_for(lambda: entry.settled)
            if entry.failure is not None:
                self._stat("failed")
                self._progress("failed")
                return entry.failure
            served = self._served(fp, capture)
            if served is not None:
                self._stat("dedup_hits")
                self._span_event("dedup_hit", {"fingerprint": fp[:12]})
        return served

    def inflight_cells(self) -> int:
        """Unique fingerprints currently being computed, across all
        concurrent runs (the ``repro_scheduler_inflight_cells`` gauge)."""
        with self._lock:
            return sum(not entry.settled
                       for entry in self._entries.values())

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------
    def _resolve_cell(self, fp: str, cell: Cell, future: Future,
                      pool: ProcessPoolExecutor | None,
                      capture: CaptureSpec | None = None):
        """Drive one cell through the retry policy.

        Returns ``(result, seconds, snapshot)`` on success or a
        :class:`FailedCell` once the attempt budget is spent.
        ``future`` is the first attempt and ``pool`` the worker pool it
        runs on (``None`` inline); retries re-submit to the pool while
        it is healthy and run inline otherwise.  Under telemetry
        capture, a structurally missing snapshot is treated exactly like
        a corrupt result.
        """
        attempt = 0
        while True:
            kind = error = None
            try:
                result, seconds, snap = future.result(
                    timeout=self.policy.timeout_s)
                problem = _problem(cell, result, snap, capture)
                if problem is None:
                    return result, seconds, snap
                kind, error = "corrupt", problem
            except FuturesTimeout as exc:
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
                    fingerprint=fp,
                    workload=cell.workload_name,
                    policy_name=cell.policy_name,
                    attempts=attempt, kind=kind, error=error)
            self._stat("retries")
            self._progress("retried")
            self._span_event("retry", {"policy": cell.policy_name,
                                       "kind": kind,
                                       "attempt": attempt})
            time.sleep(self.policy.backoff(fp, attempt))
            future, pool = self._submit(cell, fp, attempt, capture) or \
                self._attempt_inline(cell, fp, attempt, capture)

    def _submit(self, cell: Cell, fp: str, attempt: int,
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

    def _attempt_inline(self, cell: Cell, fp: str, attempt: int,
                        capture: CaptureSpec | None = None) \
            -> tuple[Future, None]:
        """One in-process attempt as a future (with no pool).

        It runs to completion here, or — under a policy timeout — on a
        daemon watchdog thread that the resolve loop abandons on expiry:
        the thread finishes (or sleeps out an injected hang) in the
        background while the retry proceeds.
        """
        future: Future = Future()

        def run() -> None:
            try:
                future.set_result(_execute_cell(cell, fp, attempt,
                                                capture))
            except BaseException as exc:  # noqa: BLE001 — result() raises
                future.set_exception(exc)

        if self.policy.timeout_s is None:
            run()
        else:
            threading.Thread(target=run, daemon=True,
                             name=f"repro-cell-{fp[:12]}").start()
        return future, None

    def _span_event(self, name: str, meta: dict | None = None) -> None:
        """Record an exec-side event on the open sweep span, if any."""
        telemetry = obs_runtime.active()
        if telemetry is not None:
            telemetry.spans.event(name, meta)

    def _progress(self, kind: str, seconds: float | None = None) -> None:
        if self.progress is not None:
            self.progress.record(kind, seconds)

    def _account_computed(self, result, seconds: float) -> None:
        self._stat("computed")
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
