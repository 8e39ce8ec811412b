"""Observability subsystem: metrics, timelines, journaling, profiling.

Telemetry is strictly **opt-in**: nothing in this package runs unless a
:class:`Telemetry` instance is constructed and handed to (or activated
for) a simulation.  Every instrumented hot-path site in the simulator
guards on a single ``is None`` check, so the disabled path costs one
pointer comparison.

The :class:`Telemetry` facade ties eight modules together:

* :mod:`repro.obs.metrics`   — counters / gauges / histograms with
  hierarchical names (``mc.sc0.drfm_sb_issued``);
* :mod:`repro.obs.timeline`  — per-sub-channel ``sample`` journal
  records taken every N tREFI of *simulated* time;
* :mod:`repro.obs.journal`   — schema-versioned JSONL run journal
  (file-backed or in-memory);
* :mod:`repro.obs.profiling` — the wall-clock phase table and engine
  events/sec, rendered from the span tree;
* :mod:`repro.obs.trace`     — bounded copy of the journal's mitigation
  records (deprecated in 3.4: ``repro trace`` reads the journal);
* :mod:`repro.obs.snapshot`  — picklable per-cell snapshots plus the
  deterministic cross-process merge used by ``repro.exec``;
* :mod:`repro.obs.progress`  — TTY-aware live sweep progress reporter;
* :mod:`repro.obs.spans`     — hierarchical span tracing across the
  sweep fabric, the only wall-clock record (exported by
  ``repro spans``).

Telemetry never perturbs simulation results: it only reads simulator
state and maintains its own side structures, so identical seeds produce
identical :class:`~repro.sim.results.RunResult`\\ s with telemetry on or
off (enforced by ``tests/test_obs_determinism.py``).

Telemetry composes with parallel and cached execution: workers capture
per-cell :class:`~repro.obs.snapshot.TelemetrySnapshot`\\ s which the
parent merges deterministically in cell submission order, so serial,
``--jobs N``, warm-cache and relaunched sweeps produce byte-identical
merged metrics and journals (``tests/test_obs_parallel.py``).
"""

from __future__ import annotations

import json
import warnings

from repro.dram.commands import Command
from repro.obs import runtime
from repro.obs.atomic import atomic_writer
from repro.obs.journal import (RunJournal, SCHEMA_VERSION, load_journal,
                               read_journal)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               RLP_BUCKETS)
from repro.obs.profiling import ProfileView, Stopwatch
from repro.obs.timeline import DEFAULT_SAMPLE_EVERY_REFI, TimelineSampler
from repro.obs.trace import (DEFAULT_TRACE_LIMIT, BoundedTrace, EventTrace,
                             trace_deprecation)
from repro.obs.snapshot import (CaptureSpec, SNAPSHOT_SCHEMA_VERSION,
                                TelemetrySnapshot, capture_snapshot,
                                merge_snapshot, snapshot_from_doc,
                                snapshot_to_doc)
from repro.obs.progress import SweepProgress
from repro.obs.spans import (SPANS_SCHEMA_VERSION, Span, SpanTracer,
                             normalized_tree, span_from_doc, span_profile,
                             span_to_doc)

__all__ = [
    "CaptureSpec",
    "Command",
    "Counter",
    "DEFAULT_SAMPLE_EVERY_REFI",
    "DEFAULT_TRACE_LIMIT",
    "EventTrace",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RLP_BUCKETS",
    "RunJournal",
    "SCHEMA_VERSION",
    "SNAPSHOT_SCHEMA_VERSION",
    "SPANS_SCHEMA_VERSION",
    "Span",
    "SpanTracer",
    "Stopwatch",
    "SubchannelTelemetry",
    "SweepProgress",
    "Telemetry",
    "TelemetrySnapshot",
    "TimelineSampler",
    "capture_snapshot",
    "load_journal",
    "merge_snapshot",
    "normalized_tree",
    "read_journal",
    "runtime",
    "span_from_doc",
    "span_profile",
    "span_to_doc",
    "snapshot_from_doc",
    "snapshot_to_doc",
]


class SubchannelTelemetry:
    """Pre-bound per-sub-channel instruments (hot-path handle).

    Instrument objects are resolved once at wiring time; recording a
    mitigation is then plain attribute increments plus (when a journal is
    attached) one JSONL record.
    """

    __slots__ = ("index", "journal", "trace", "mitigations",
                 "rows_mitigated", "rlp_hist", "drfm_sb", "drfm_ab", "nrr")

    def __init__(self, telemetry: "Telemetry", index: int) -> None:
        registry = telemetry.registry
        prefix = f"mc.sc{index}."
        self.index = index
        self.journal = telemetry.journal
        self.trace = telemetry.trace
        self.mitigations = registry.counter(prefix + "mitigations")
        self.rows_mitigated = registry.counter(prefix + "rows_mitigated")
        self.rlp_hist = registry.histogram(prefix + "rlp")
        self.drfm_sb = registry.counter(prefix + "drfm_sb_issued")
        self.drfm_ab = registry.counter(prefix + "drfm_ab_issued")
        self.nrr = registry.counter(prefix + "nrr_issued")

    def mitigation(self, policy_name: str, event,
                   valid_dars: int = 0) -> None:
        """Record one executed mitigation command (a MitigationEvent)."""
        rlp = event.rlp
        self.mitigations.inc()
        self.rows_mitigated.inc(rlp)
        self.rlp_hist.observe(rlp)
        command = event.command
        if command is Command.DRFM_SB:
            self.drfm_sb.inc()
        elif command is Command.DRFM_AB:
            self.drfm_ab.inc()
        elif command is Command.NRR:
            self.nrr.inc()
        if self.journal is not None or self.trace is not None:
            record = {"v": SCHEMA_VERSION, "kind": "mitigation",
                      "sc": self.index, "t_ps": event.time_ps,
                      "cmd": command.value, "policy": policy_name,
                      "bank": event.trigger_bank,
                      "blocked": event.blocked_banks,
                      "rlp": rlp, "dars": valid_dars}
            if self.journal is not None:
                self.journal.append_record(record)
            if self.trace is not None:
                self.trace.record(record)


class Telemetry:
    """Facade bundling registry, timeline sampler, journal and span tracer.

    Parameters
    ----------
    journal_path:
        Write a JSONL journal to this file (``None`` disables file
        output).
    journal_memory:
        Keep journal records in memory instead (tests, in-process
        consumers).  Ignored when ``journal_path`` is given.
    sample_every_refi:
        Timeline sampling period in tREFI units.
    profile:
        Whether the caller intends to render wall-clock profiling.  The
        profile is always derivable from :attr:`spans`; the flag only
        gates reporting (including the journal's closing ``profile``
        record — wall-clock is nondeterministic, so it only enters the
        journal on request).
    trace, trace_limit:
        Deprecated in 3.4 (each warns once; pass ``journal_path``):
        keep a bounded copy of the journal's mitigation records, of
        ``trace_limit`` events, as :attr:`trace`.

    :attr:`spans`, a hierarchical :class:`~repro.obs.spans.SpanTracer`
    of sweep execution (exported by ``repro spans``), is always
    recorded.
    """

    def __init__(self, journal_path: str | None = None,
                 journal_memory: bool = False,
                 sample_every_refi: int = DEFAULT_SAMPLE_EVERY_REFI,
                 profile: bool = False,
                 trace: bool = False,
                 trace_limit: int = DEFAULT_TRACE_LIMIT) -> None:
        self.registry = MetricsRegistry()
        self.journal: RunJournal | None = None
        if journal_path is not None:
            self.journal = RunJournal(journal_path)
        elif journal_memory:
            self.journal = RunJournal()
        self.timeline = TimelineSampler(sample_every_refi,
                                        journal=self.journal)
        self.profile = profile
        if trace or trace_limit != DEFAULT_TRACE_LIMIT:
            warnings.warn(
                trace_deprecation("Telemetry(trace=..., trace_limit=...)"),
                DeprecationWarning, stacklevel=2)
        self.trace = BoundedTrace(trace_limit) if trace else None
        self.spans = SpanTracer()
        self.run_index = -1
        self._channels: dict[int, SubchannelTelemetry] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def channel(self, index: int) -> SubchannelTelemetry:
        """The per-sub-channel instrument handle (created on demand)."""
        channel = self._channels.get(index)
        if channel is None:
            channel = SubchannelTelemetry(self, index)
            self._channels[index] = channel
        return channel

    def phase(self, name: str):
        """Context manager timing one wall-clock phase as a ``phase``
        span."""
        return self.spans.span(name)

    @property
    def profiler(self) -> ProfileView:
        """The wall-clock profile, derived from :attr:`spans` on each
        call."""
        return ProfileView(self.spans)

    # ------------------------------------------------------------------
    # Run lifecycle (called by the simulation runner)
    # ------------------------------------------------------------------
    def begin_run(self, workload: str, policy: str, seed: int) -> None:
        """Mark the start of one simulation run."""
        self.run_index += 1
        if self.journal is not None:
            self.journal.write("run_start", run=self.run_index,
                               workload=workload, policy=policy, seed=seed)

    def end_run(self, result, events: int) -> None:
        """Fold one completed run into counters and journal.

        The counters and the journal's ``summary`` record carry
        exclusively simulated numbers (the run's wall-clock lives in its
        ``engine:event_loop`` span), so merged journals and the
        ``metrics`` section stay byte-identical across
        serial/parallel/cached execution.
        """
        registry = self.registry
        registry.counter("sim.runs").inc()
        registry.counter("sim.requests").inc(events)
        if self.journal is not None:
            self.journal.write(
                "summary", run=self.run_index, workload=result.workload,
                policy=result.policy, end_time_ps=result.end_time_ps,
                requests=result.requests_completed,
                activations=result.activations,
                row_hit_rate=round(result.row_hit_rate, 4),
                mitigations=result.mitigation_commands,
                rows_mitigated=result.rows_mitigated,
                rlp=round(result.average_rlp, 3),
                bus_utilization=round(result.bus_utilization, 4))

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Registry plus profile as one JSON-serialisable dict.

        The ``metrics`` section holds only deterministic, simulated-time
        instruments; execution-side instruments (``exec.*``, such as the
        cache-hit latency histogram) are split into ``exec`` and
        wall-clock figures into ``profiling``, so ``metrics`` can be
        compared byte-for-byte across execution modes.
        ``timeline_samples`` counts the timeline ticks taken or merged.
        """
        metrics = {}
        executor = {}
        for name, value in self.registry.snapshot().items():
            if name.startswith("exec."):
                executor[name] = value
            else:
                metrics[name] = value
        return {
            "schema_version": SCHEMA_VERSION,
            "metrics": metrics,
            "exec": executor,
            "profiling": span_profile(self.spans.roots),
            "timeline_samples": self.timeline.ticks,
        }

    def write_metrics(self, path: str) -> None:
        """Dump :meth:`snapshot` as pretty JSON to ``path``, atomically
        (:func:`~repro.obs.atomic.atomic_writer`), so a killed run never
        leaves a half-written metrics file behind."""
        with atomic_writer(path, ".metrics.") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def spans_doc(self) -> dict:
        """The span forest, JSON-serialisable.

        This is the on-disk format of ``--spans FILE`` and the input of
        the ``repro spans`` analyzer.
        """
        return {"schema": SPANS_SCHEMA_VERSION,
                "spans": self.spans.to_docs()}

    def write_spans(self, path: str) -> None:
        """Dump :meth:`spans_doc` as JSON to ``path``, atomically."""
        with atomic_writer(path, ".spans.") as handle:
            json.dump(self.spans_doc(), handle, indent=2)
            handle.write("\n")

    def finalize(self) -> None:
        """Write the closing profile record and close the journal."""
        if self._finalized:
            return
        self._finalized = True
        if self.journal is not None:
            if self.profile:
                profile = span_profile(self.spans.roots)
                if profile["phases"]:
                    self.journal.write("profile", **profile)
            self.journal.close()
