"""Picklable per-cell telemetry snapshots and the deterministic merge.

A sweep cell executed in a worker process records into a private,
in-memory :class:`~repro.obs.Telemetry` built from a :class:`CaptureSpec`
(the picklable recipe the parent ships with the cell).  When the cell
finishes, :func:`capture_snapshot` freezes everything that telemetry
observed — metric values, journal records (``sample`` ticks included)
and the span subtree — into a :class:`TelemetrySnapshot`: a
plain-data record that survives both pickling (worker → parent) and JSON
(the content-addressed telemetry artifact stored next to the
:class:`~repro.exec.cache.RunCache` entry).

The parent folds snapshots into its own telemetry with
:func:`merge_snapshot`, in cell submission order.  The merge is
deterministic by construction:

* **counters** sum;
* **gauges** are last-write-wins in cell order;
* **histograms** merge element-wise (bucket bounds must match);
* **journal records** append in cell order with the per-worker ``run``
  index remapped to the parent's global run sequence, and each
  ``sample`` record counts as one tick of the parent's timeline;
* **span subtrees** graft under the parent's open span, carrying the
  cell's phase and engine spans — and with them its wall-clock profile.

Because every cell's snapshot is itself deterministic (simulated time,
seeded RNG) and the merge order is the fixed submission order, serial,
parallel, cached and relaunched sweeps all produce byte-identical merged
metrics and journals.  Wall-clock quantities are kept out of the
deterministic sections entirely (see ``Telemetry.snapshot``).

Snapshots are *replayable*: merging the same snapshot object several
times (memoised cells appear once per occurrence in a sweep) must leave
the snapshot untouched, so the merge copies every record it adapts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.timeline import DEFAULT_SAMPLE_EVERY_REFI

#: Version stamped into snapshot documents; bump on breaking changes.
#: v2 added the ``spans`` section — v1 sidecars are treated as misses so
#: the cell recomputes and the artifact is rewritten complete.  The
#: ``phases``/``throughput`` keys that 2.1 wrote duplicate the span
#: tree, and the ``timeline`` list that 3.3 wrote duplicates the
#: journal's ``sample`` records; the reader ignores them.
SNAPSHOT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CaptureSpec:
    """Picklable recipe for the worker-side capture telemetry.

    Only the knobs that shape *what gets recorded* travel to the worker;
    output destinations (journal files, metric dumps) stay with the
    parent.  Workers always journal in memory so the snapshot is complete
    regardless of which parent flags requested it — a cached telemetry
    artifact can then serve any later flag combination.
    """

    sample_every_refi: int = DEFAULT_SAMPLE_EVERY_REFI

    @classmethod
    def from_telemetry(cls, telemetry) -> "CaptureSpec":
        """The spec reproducing ``telemetry``'s capture behaviour."""
        return cls(sample_every_refi=telemetry.timeline.sample_every_refi)

    def build(self):
        """A fresh in-memory capture telemetry for one cell."""
        from repro.obs import Telemetry
        return Telemetry(journal_memory=True,
                         sample_every_refi=self.sample_every_refi)


@dataclass
class TelemetrySnapshot:
    """Frozen telemetry of one sweep cell (picklable, JSON-able).

    ``metrics`` maps instrument name to its serialised state
    (``{"kind": "counter"|"gauge", "value": v}`` or
    ``{"kind": "histogram", "bounds": [...], "counts": [...],
    "overflow": n, "count": n, "total": x}``); ``journal`` holds the
    cell's journal records verbatim, its timeline ticks included;
    ``spans`` holds the cell's span subtree in document form (see
    :mod:`repro.obs.spans`).
    """

    metrics: dict = field(default_factory=dict)
    journal: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    schema: int = SNAPSHOT_SCHEMA_VERSION


def _metric_state(instrument) -> dict:
    if isinstance(instrument, Counter):
        return {"kind": "counter", "value": instrument.value}
    if isinstance(instrument, Gauge):
        return {"kind": "gauge", "value": instrument.value}
    if isinstance(instrument, Histogram):
        return {"kind": "histogram",
                "bounds": list(instrument.bounds),
                "counts": list(instrument.counts),
                "overflow": instrument.overflow,
                "count": instrument.count,
                "total": instrument.total}
    raise TypeError(f"unknown instrument type: {type(instrument).__name__}")


def capture_snapshot(telemetry) -> TelemetrySnapshot:
    """Freeze everything ``telemetry`` recorded into a snapshot."""
    registry: MetricsRegistry = telemetry.registry
    metrics = {name: _metric_state(registry.get(name))
               for name in registry.names()}
    journal = [] if telemetry.journal is None \
        else list(telemetry.journal.records)
    return TelemetrySnapshot(metrics=metrics, journal=journal,
                             spans=telemetry.spans.to_docs())


def _merge_metric(registry: MetricsRegistry, name: str,
                  state: dict) -> None:
    kind = state.get("kind")
    if kind == "counter":
        registry.counter(name).inc(state["value"])
    elif kind == "gauge":
        registry.gauge(name).set(state["value"])
    elif kind == "histogram":
        bounds = tuple(state["bounds"])
        histogram = registry.histogram(name, bounds)
        if histogram.bounds != bounds:
            raise ValueError(
                f"histogram {name!r}: snapshot bounds {bounds} are "
                f"incompatible with registered bounds {histogram.bounds}")
        for index, count in enumerate(state["counts"]):
            histogram.counts[index] += count
        histogram.overflow += state["overflow"]
        histogram.count += state["count"]
        histogram.total += state["total"]
    else:
        raise ValueError(f"metric {name!r}: unknown kind {kind!r}")


def merge_registry(target: MetricsRegistry,
                   source: MetricsRegistry) -> None:
    """Fold every instrument of ``source`` into ``target`` with the
    snapshot merge: counters add, gauges take ``source``'s value,
    histograms add bucket-wise (bounds must match)."""
    for name in source.names():
        _merge_metric(target, name, _metric_state(source.get(name)))


def merge_snapshot(telemetry, snapshot: TelemetrySnapshot) -> None:
    """Fold one cell's snapshot into the parent ``telemetry``.

    A snapshot whose journal holds a ``run_start`` counts as one run of
    the parent (``run`` indices in replayed journal records are remapped
    to the parent's sequence); a study cell's snapshot, which runs no
    simulation, uses up no index.  Each replayed ``sample`` record
    counts as one tick of the parent's timeline.  The snapshot is never
    mutated, so the same object can be merged repeatedly — a memoised
    cell contributes once per occurrence in the sweep.
    """
    if any(record.get("kind") == "run_start"
           for record in snapshot.journal):
        telemetry.run_index += 1
    run = telemetry.run_index
    journal = telemetry.journal
    trace = telemetry.trace
    ticks = 0
    for original in snapshot.journal:
        record = dict(original)
        if "run" in record:
            record["run"] = run
        if journal is not None:
            journal.append_record(record)
        kind = record.get("kind")
        if kind == "sample":
            ticks += 1
        elif trace is not None and kind == "mitigation":
            trace.record(record)
    telemetry.timeline.ticks += ticks
    registry = telemetry.registry
    for name in sorted(snapshot.metrics):
        _merge_metric(registry, name, snapshot.metrics[name])
    telemetry.spans.graft_docs(snapshot.spans)


def snapshot_to_doc(snapshot: TelemetrySnapshot) -> dict:
    """JSON-serialisable document form of a snapshot."""
    return {
        "schema": snapshot.schema,
        "metrics": snapshot.metrics,
        "journal": snapshot.journal,
        "spans": snapshot.spans,
    }


def snapshot_from_doc(doc) -> TelemetrySnapshot | None:
    """Rebuild a snapshot from its document form.

    Returns ``None`` on any structural mismatch (wrong schema, missing
    or mistyped sections) so callers can treat a damaged telemetry
    artifact exactly like a cache miss.  Keys outside the sections (a
    2.1 sidecar's ``phases``/``throughput``, a 3.3 sidecar's
    ``timeline``) are ignored.
    """
    if not isinstance(doc, dict):
        return None
    if doc.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        return None
    metrics = doc.get("metrics")
    journal = doc.get("journal")
    spans = doc.get("spans")
    if not isinstance(metrics, dict) or not isinstance(journal, list) \
            or not isinstance(spans, list):
        return None
    if not all(isinstance(record, dict) for record in journal):
        return None
    if not all(isinstance(span, dict) for span in spans):
        return None
    return TelemetrySnapshot(metrics=metrics, journal=journal,
                             spans=spans)
