"""The ``repro trace`` analyzer cross-check, plus atomic artifact writes.

The load-bearing assertion: the analyzer's per-policy RLP statistics,
reduced purely from the journal's ``mitigation`` records, must equal
:func:`repro.analysis.rlp.summarize` over the sub-channel's raw
:class:`~repro.dram.subchannel.MitigationEvent` log for a real Figure-5
design — the two paths observe the same mitigations through entirely
different plumbing.
"""

import pytest

from repro.analysis import rlp
from repro.analysis.harness import AttackHarness
from repro.analysis.trace import analyze_trace, render_trace
from repro.exec.cache import RunCache
from repro.mc.mitigation import coupled_mint_factory
from repro.obs import Telemetry
from repro.obs.snapshot import TelemetrySnapshot


@pytest.fixture
def hammered():
    """A fig5 coupled-MINT design driven hard enough to mitigate."""
    telemetry = Telemetry(journal_memory=True)
    telemetry.begin_run("attack", "mint-drfmsb", seed=99)
    harness = AttackHarness(coupled_mint_factory(500))
    harness.controller.journal = telemetry.journal
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
