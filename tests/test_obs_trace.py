"""EventTrace capture plus the ``repro trace`` analyzer cross-check.

``EventTrace`` and ``Telemetry(trace=...)`` are deprecated since 3.4
(the journal holds the same records); each use here asserts its
warning.  The load-bearing assertion: the analyzer's per-policy RLP statistics,
reduced purely from journal/trace records, must equal
:func:`repro.analysis.rlp.summarize` over the sub-channel's raw
:class:`~repro.dram.subchannel.MitigationEvent` log for a real Figure-5
design — the two paths observe the same mitigations through entirely
different plumbing.
"""

import json

import pytest

from repro.analysis import rlp
from repro.analysis.harness import AttackHarness
from repro.analysis.trace import analyze_trace, render_trace
from repro.exec.cache import RunCache
from repro.mc.mitigation import coupled_mint_factory
from repro.obs import Telemetry
from repro.obs.journal import load_journal
from repro.obs.snapshot import TelemetrySnapshot
from repro.obs.trace import EventTrace


#: What every deprecated trace spelling's warning points at.
_JOURNAL_HINT = r"--journal FILE \(Telemetry\(journal_path=\.\.\.\)\)"


@pytest.fixture
def hammered():
    """A fig5 coupled-MINT design driven hard enough to mitigate."""
    with pytest.warns(DeprecationWarning, match=_JOURNAL_HINT):
        telemetry = Telemetry(journal_memory=True, trace=True)
    telemetry.begin_run("attack", "mint-drfmsb", seed=99)
    harness = AttackHarness(coupled_mint_factory(500))
    harness.policy.telemetry = telemetry.channel(0)
    pattern = [(bank, row) for _ in range(40)
               for bank in range(4) for row in (10, 20)]
    harness.run(pattern)
    assert harness.subchannel.mitigation_log, "attack never mitigated"
    return telemetry, harness


class TestAnalyzerCrossCheck:
    def test_matches_rlp_summarize(self, hammered):
        telemetry, harness = hammered
        reference = rlp.summarize(harness.subchannel.mitigation_log)
        summary = analyze_trace(telemetry.journal.records)["mint-drfmsb"]
        assert summary.events == reference.commands
        assert summary.mean_rlp == pytest.approx(reference.average)
        assert summary.max_rlp == reference.max_rlp
        assert summary.wasted_bank_stalls == reference.wasted_bank_stalls
        assert summary.stats.efficiency == \
            pytest.approx(reference.efficiency)

    def test_trace_records_equal_journal_mitigations(self, hammered):
        telemetry, _ = hammered
        journal_mitigations = [r for r in telemetry.journal.records
                               if r["kind"] == "mitigation"]
        assert telemetry.trace.events == journal_mitigations

    def test_bucket_counts_cover_every_event(self, hammered):
        telemetry, _ = hammered
        summary = analyze_trace(telemetry.journal.records)["mint-drfmsb"]
        assert sum(summary.rlp_buckets) == summary.events
        assert summary.dars_events == summary.events

    def test_render_mentions_the_paper_quantities(self, hammered):
        telemetry, _ = hammered
        out = render_trace(analyze_trace(telemetry.journal.records))
        assert "== policy: mint-drfmsb ==" in out
        assert "rlp: mean=" in out
        assert "efficiency=" in out
        assert "DAR occupancy" in out


class TestWriteJsonl:
    def test_round_trip_through_file(self, hammered, tmp_path):
        telemetry, _ = hammered
        path = tmp_path / "events.jsonl"
        telemetry.trace.write_jsonl(path)
        records = load_journal(str(path))
        direct = analyze_trace(telemetry.journal.records)["mint-drfmsb"]
        replayed = analyze_trace(records)["mint-drfmsb"]
        assert replayed.events == direct.events
        assert replayed.mean_rlp == pytest.approx(direct.mean_rlp)
        assert replayed.rlp_buckets == direct.rlp_buckets

    def test_write_is_atomic_no_temp_left(self, hammered, tmp_path):
        telemetry, _ = hammered
        telemetry.trace.write_jsonl(tmp_path / "events.jsonl")
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name != "events.jsonl"]
        assert leftovers == []


#: Serialises to nothing: a write that reaches it fails midway, after
#: earlier keys or lines are already in the temp file.
_UNSERIALIZABLE = object()


def _failing_metrics_dump(tmp_path):
    telemetry = Telemetry()
    telemetry.snapshot = lambda: {"a": 1, "z": _UNSERIALIZABLE}
    target = tmp_path / "metrics.json"
    return target, lambda: telemetry.write_metrics(str(target))


def _failing_spans_dump(tmp_path):
    telemetry = Telemetry()
    telemetry.spans_doc = lambda: {"schema": 1,
                                   "spans": [{}, _UNSERIALIZABLE]}
    target = tmp_path / "spans.json"
    return target, lambda: telemetry.write_spans(str(target))


def _failing_trace_dump(tmp_path):
    with pytest.warns(DeprecationWarning):
        trace = EventTrace()
    trace.record({"kind": "mitigation", "rlp": 1})
    trace.record({"kind": "mitigation", "rlp": _UNSERIALIZABLE})
    target = tmp_path / "events.jsonl"
    return target, lambda: trace.write_jsonl(str(target))


def _failing_cache_entry(tmp_path):
    cache = RunCache(tmp_path / "cache")
    fingerprint = "ab" * 32
    snapshot = TelemetrySnapshot(
        journal=[{"kind": "run_start"}, {"kind": _UNSERIALIZABLE}])
    return (cache.telemetry_path_for(fingerprint),
            lambda: cache.put_telemetry(fingerprint, snapshot))


#: Every artifact writer, as ``tmp_path -> (target, failing write)``.
_FAILING_WRITES = {
    "metrics": _failing_metrics_dump,
    "spans": _failing_spans_dump,
    "trace": _failing_trace_dump,
    "cache": _failing_cache_entry,
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", list(_FAILING_WRITES))
    def test_failed_write_keeps_target_and_leaves_no_temp(self, tmp_path,
                                                          writer):
        target, write = _FAILING_WRITES[writer](tmp_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(b"previous contents\n")
        with pytest.raises(TypeError):
            write()
        assert target.read_bytes() == b"previous contents\n"
        assert [path.name for path in target.parent.iterdir()] == \
            [target.name]


class TestDeprecation:
    def test_event_trace_warns_once_and_points_at_the_journal(self):
        with pytest.warns(DeprecationWarning,
                          match=r"EventTrace\(\.\.\.\) is deprecated") \
                as caught:
            EventTrace(limit=3)
        assert len(caught) == 1
        assert "4.0 removes" in str(caught[0].message)
        assert caught[0].filename == __file__

    @pytest.mark.parametrize("kwargs", [{"trace": True},
                                        {"trace_limit": 5},
                                        {"trace": True, "trace_limit": 5}],
                             ids=["trace", "trace_limit", "both"])
    def test_telemetry_trace_knobs_warn_once(self, kwargs):
        with pytest.warns(DeprecationWarning, match=_JOURNAL_HINT) \
                as caught:
            telemetry = Telemetry(**kwargs)
        assert len(caught) == 1
        assert caught[0].filename == __file__
        assert (telemetry.trace is not None) == kwargs.get("trace", False)

    def test_telemetry_without_trace_knobs_is_silent(self, recwarn):
        assert Telemetry(trace=False).trace is None
        assert not recwarn.list


class TestEventTraceBounds:
    def test_capacity_drops_and_counts(self):
        with pytest.warns(DeprecationWarning):
            trace = EventTrace(limit=2)
        for index in range(5):
            trace.record({"kind": "mitigation", "rlp": index})
        assert len(trace) == 2
        assert trace.dropped == 3
        assert [event["rlp"] for event in trace.events] == [0, 1]

    def test_records_are_json_lines(self, tmp_path):
        with pytest.warns(DeprecationWarning):
            trace = EventTrace()
        trace.record({"kind": "mitigation", "cmd": "NRR", "rlp": 1})
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line) for line in lines] == trace.events
