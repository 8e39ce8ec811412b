"""Unit tests for per-cell telemetry snapshots and the merge layer.

The contract under test: :func:`capture_snapshot` freezes everything a
cell's telemetry observed, :func:`merge_snapshot` folds it into a parent
deterministically (counters sum, gauges last-write-wins, histograms
merge element-wise, journal runs remap, ``sample`` records count as
timeline ticks), and the snapshot itself is never mutated so a memoised
cell can be replayed any number of times.
"""

import json

import pytest

from repro.obs import Telemetry
from repro.obs.snapshot import (CaptureSpec, SNAPSHOT_SCHEMA_VERSION,
                                TelemetrySnapshot, capture_snapshot,
                                merge_snapshot, snapshot_from_doc,
                                snapshot_to_doc)
from repro.obs.spans import ENGINE_LOOP, KIND_ENGINE


def _capture(fill) -> TelemetrySnapshot:
    telemetry = Telemetry(journal_memory=True)
    fill(telemetry)
    return capture_snapshot(telemetry)


def _sample(time_ps: int, tick: int = 0) -> dict:
    """A ``sample`` journal record, as a timeline tick writes one."""
    return {"v": 1, "kind": "sample", "sc": 0, "tick": tick,
            "t_ps": time_ps}


class TestCaptureSpec:
    def test_from_telemetry_copies_sampling_period(self):
        telemetry = Telemetry(sample_every_refi=3)
        spec = CaptureSpec.from_telemetry(telemetry)
        assert spec.sample_every_refi == 3

    def test_build_makes_in_memory_capture(self):
        local = CaptureSpec(sample_every_refi=5).build()
        assert local.journal is not None
        assert local.journal.path is None
        assert local.timeline.sample_every_refi == 5


class TestMergeMetrics:
    def test_counters_sum(self):
        snap = _capture(lambda t: t.registry.counter("sim.runs").inc(2))
        parent = Telemetry()
        parent.registry.counter("sim.runs").inc(5)
        merge_snapshot(parent, snap)
        assert parent.registry.counter("sim.runs").value == 7

    def test_gauges_last_write_wins(self):
        first = _capture(lambda t: t.registry.gauge("g").set(1.0))
        second = _capture(lambda t: t.registry.gauge("g").set(9.0))
        parent = Telemetry()
        merge_snapshot(parent, first)
        merge_snapshot(parent, second)
        assert parent.registry.gauge("g").value == 9.0

    def test_histograms_merge_elementwise(self):
        def fill(telemetry):
            hist = telemetry.registry.histogram("h", (1, 2))
            hist.observe(1)
            hist.observe(2)
            hist.observe(99)

        snap = _capture(fill)
        parent = Telemetry()
        merge_snapshot(parent, snap)
        merge_snapshot(parent, snap)
        hist = parent.registry.histogram("h", (1, 2))
        assert hist.counts == [2, 2]
        assert hist.overflow == 2
        assert hist.count == 6
        assert hist.total == 204

    def test_histogram_bounds_mismatch_raises(self):
        snap = _capture(
            lambda t: t.registry.histogram("h", (1, 2)).observe(1))
        parent = Telemetry()
        parent.registry.histogram("h", (4, 8))
        with pytest.raises(ValueError, match="incompatible"):
            merge_snapshot(parent, snap)

    def test_unknown_metric_kind_raises(self):
        snap = TelemetrySnapshot(metrics={"m": {"kind": "weird"}})
        with pytest.raises(ValueError, match="unknown kind"):
            merge_snapshot(Telemetry(), snap)


class TestMergeJournal:
    def test_run_indices_remap_to_parent_sequence(self):
        def fill(telemetry):
            telemetry.begin_run("mcf", "mint", seed=7)

        first, second = _capture(fill), _capture(fill)
        parent = Telemetry(journal_memory=True)
        merge_snapshot(parent, first)
        merge_snapshot(parent, second)
        assert [r["run"] for r in parent.journal.records] == [0, 1]
        assert parent.run_index == 1

    def test_replayed_snapshot_is_not_mutated(self):
        snap = _capture(lambda t: t.begin_run("mcf", "mint", seed=7))
        before = json.dumps(snap.journal)
        parent = Telemetry(journal_memory=True)
        merge_snapshot(parent, snap)
        merge_snapshot(parent, snap)
        assert json.dumps(snap.journal) == before
        assert snap.journal[0]["run"] == 0

    def test_mitigation_records_feed_parent_trace(self):
        snap = TelemetrySnapshot(journal=[
            {"v": 1, "kind": "mitigation", "cmd": "DRFMsb", "rlp": 3},
            {"v": 1, "kind": "sample", "tick": 0},
        ])
        with pytest.warns(DeprecationWarning, match="--journal FILE"):
            parent = Telemetry(trace=True)
        merge_snapshot(parent, snap)
        assert len(parent.trace) == 1
        assert parent.trace.events[0]["cmd"] == "DRFMsb"


class TestMergeTimeline:
    def test_replayed_sample_records_count_as_ticks(self):
        snap = TelemetrySnapshot(journal=[_sample(100), _sample(200, 1)])
        parent = Telemetry()
        parent.timeline.ticks = 3
        merge_snapshot(parent, snap)
        merge_snapshot(parent, snap)
        assert parent.timeline.ticks == 7
        assert parent.snapshot()["timeline_samples"] == 7


class TestMergeProfiling:
    def test_phase_and_throughput_totals_accumulate(self):
        # The profile rides the grafted span subtree: merging a cell
        # twice doubles its phase calls and engine events.
        local = CaptureSpec().build()
        with local.phase("simulate"):
            loop = local.spans.begin(ENGINE_LOOP, kind=KIND_ENGINE)
            local.spans.end(loop, meta={"events": 100})
        snap = capture_snapshot(local)
        parent = Telemetry()
        merge_snapshot(parent, snap)
        merge_snapshot(parent, snap)
        profile = parent.profiler.snapshot()
        single = local.profiler.snapshot()
        assert profile["phases"]["simulate"]["calls"] == 2
        assert profile["phases"]["simulate"]["seconds"] == pytest.approx(
            2 * single["phases"]["simulate"]["seconds"])
        assert profile["throughput"]["events"] == 200


class TestDocRoundTrip:
    def _real_snapshot(self) -> TelemetrySnapshot:
        def fill(telemetry):
            telemetry.begin_run("mcf", "mint", seed=7)
            telemetry.registry.counter("sim.runs").inc()
            telemetry.registry.histogram("h", (1, 2)).observe(2)
            telemetry.journal.append_record(_sample(100))

        return _capture(fill)

    def test_json_round_trip_preserves_merge_result(self):
        snap = self._real_snapshot()
        doc = json.loads(json.dumps(snapshot_to_doc(snap)))
        restored = snapshot_from_doc(doc)
        assert restored is not None

        def merged(snapshot):
            parent = Telemetry(journal_memory=True)
            merge_snapshot(parent, snapshot)
            return (json.dumps(parent.snapshot()["metrics"],
                               sort_keys=True),
                    json.dumps(parent.journal.records))

        assert merged(restored) == merged(snap)

    def test_wrong_schema_rejected(self):
        doc = snapshot_to_doc(self._real_snapshot())
        doc["schema"] = SNAPSHOT_SCHEMA_VERSION + 1
        assert snapshot_from_doc(doc) is None

    def test_malformed_sections_rejected(self):
        base = snapshot_to_doc(self._real_snapshot())
        for key, bad in [("metrics", []), ("journal", {})]:
            doc = dict(base)
            doc[key] = bad
            assert snapshot_from_doc(doc) is None
        assert snapshot_from_doc("nope") is None


class TestSpansInSnapshots:
    def _spanned_capture(self) -> TelemetrySnapshot:
        local = CaptureSpec(sample_every_refi=5).build()
        with local.spans.span("attempt", exec_side=True):
            with local.spans.span("run:none"):
                pass
        return capture_snapshot(local)

    def test_spans_ride_capture_and_doc_round_trip(self):
        snap = self._spanned_capture()
        assert len(snap.spans) == 1
        doc = json.loads(json.dumps(snapshot_to_doc(snap)))
        restored = snapshot_from_doc(doc)
        assert restored is not None
        assert restored.spans == snap.spans

    def test_merge_grafts_into_spans_enabled_parent(self):
        snap = self._spanned_capture()
        parent = Telemetry()
        merge_snapshot(parent, snap)
        assert [root.name for root in parent.spans.roots] == ["attempt"]
        assert [child.name
                for child in parent.spans.roots[0].children] == \
            ["run:none"]
        # The snapshot itself stays replayable.
        merge_snapshot(Telemetry(), snap)
        assert len(snap.spans) == 1

    def test_malformed_spans_section_rejected(self):
        doc = snapshot_to_doc(self._spanned_capture())
        for bad in ({}, "spans", [17]):
            mutated = dict(doc)
            mutated["spans"] = bad
            assert snapshot_from_doc(mutated) is None

    def test_v1_docs_are_rejected_as_stale(self):
        # Pre-spans sidecars (schema v1) must read as cache misses so
        # the cell recomputes and rewrites a complete artifact.
        doc = snapshot_to_doc(self._spanned_capture())
        doc["schema"] = 1
        assert snapshot_from_doc(doc) is None
