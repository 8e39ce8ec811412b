"""Telemetry must observe, never perturb.

The load-bearing guarantee of the observability subsystem: a simulation
with telemetry enabled produces a **byte-identical**
:meth:`~repro.sim.results.RunResult.to_json` to the same simulation
without it.  These tests also cover the wiring end-to-end — journal
record kinds, metric totals against the result, the ambient runtime
holder — over a real (scaled-down) mitigated run.
"""

import json

import pytest

from repro.core.dream_c import dream_c_factory
from repro.core.dream_r import dream_r_mint_factory, dream_r_para_factory
from repro.dram.commands import Command
from repro.mc.mitigation import coupled_mint_factory, coupled_para_factory
from repro.obs import Telemetry
from repro.obs import runtime as obs_runtime
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.runner import run_simulation
from repro.trackers.abacus import abacus_factory
from repro.trackers.graphene import graphene_factory
from repro.trackers.prac import moat_factory
from repro.workloads.builder import build_traces

#: One design per policy family, each at a threshold where it
#: mitigates on the fixture traces.
POLICY_FAMILIES = {
    "mint-drfmsb": coupled_mint_factory(500),
    "para-nrr": coupled_para_factory(500, Command.NRR),
    "para-drfmsb": coupled_para_factory(500, Command.DRFM_SB),
    "mint-drfmab": coupled_mint_factory(500, Command.DRFM_AB),
    "para-dream-r": dream_r_para_factory(500),
    "mint-dream-r": dream_r_mint_factory(500),
    "dream-c": dream_c_factory(16, vertical=1),
    "abacus": abacus_factory(64),
    "moat": moat_factory(64),
    "graphene": graphene_factory(64),
}


@pytest.fixture(scope="module")
def system():
    return SystemConfig.baseline(refs_per_window=32, num_cores=2)


@pytest.fixture(scope="module")
def sim():
    return SimConfig(requests_per_core=6_000, seed=7)


@pytest.fixture(scope="module")
def traces(system, sim):
    return build_traces("mcf", system, sim, calibrate=False)


def _run(system, traces, sim, telemetry=None):
    return run_simulation(system, traces, sim,
                          coupled_mint_factory(500), "mint",
                          telemetry=telemetry)


class TestDeterminism:
    def test_result_byte_identical_with_telemetry_on(self, system,
                                                     traces, sim):
        plain = _run(system, traces, sim)
        telemetry = Telemetry(journal_memory=True, sample_every_refi=2)
        instrumented = _run(system, traces, sim, telemetry)
        assert plain.to_json() == instrumented.to_json()
        # The instrumented run really did record things — the equality
        # above is meaningless if telemetry silently stayed off.
        assert telemetry.timeline.ticks
        assert telemetry.journal.kinds().get("mitigation", 0) > 0

    def test_ambient_activation_is_equally_inert(self, system, traces,
                                                 sim):
        plain = _run(system, traces, sim)
        with obs_runtime.activated(Telemetry(journal_memory=True)):
            ambient = _run(system, traces, sim)
        assert plain.to_json() == ambient.to_json()


class TestJournalEndToEnd:
    def test_run_emits_all_core_record_kinds(self, system, traces, sim):
        telemetry = Telemetry(journal_memory=True, sample_every_refi=2)
        _run(system, traces, sim, telemetry)
        kinds = telemetry.journal.kinds()
        assert set(kinds) >= {"run_start", "sample", "mitigation",
                              "summary"}
        assert kinds["run_start"] == 1
        assert kinds["summary"] == 1

    def test_summary_matches_result(self, system, traces, sim):
        telemetry = Telemetry(journal_memory=True)
        result = _run(system, traces, sim, telemetry)
        summary = [r for r in telemetry.journal.records
                   if r["kind"] == "summary"][0]
        assert summary["requests"] == result.requests_completed
        assert summary["mitigations"] == result.mitigation_commands
        assert summary["end_time_ps"] == result.end_time_ps

    def test_file_journal_round_trips(self, system, traces, sim,
                                      tmp_path):
        path = str(tmp_path / "run.jsonl")
        telemetry = Telemetry(journal_path=path, sample_every_refi=2)
        _run(system, traces, sim, telemetry)
        telemetry.finalize()
        from repro.obs.journal import load_journal

        records = load_journal(path)
        kinds = {r["kind"] for r in records}
        assert kinds >= {"run_start", "sample", "mitigation", "summary"}
        for record in records:
            json.dumps(record)  # every record is plain JSON data


class TestMetricsEndToEnd:
    @pytest.mark.parametrize("design", list(POLICY_FAMILIES))
    def test_mitigation_counters_match_result(self, system, traces, sim,
                                              design):
        # The controller's port records each command once; a policy that
        # also recorded its own commands would double the journal and
        # the counters against the result and the policy summaries.
        telemetry = Telemetry(journal_memory=True)
        result = run_simulation(system, traces, sim,
                                POLICY_FAMILIES[design], design,
                                telemetry=telemetry)
        snapshot = telemetry.registry.snapshot()
        counted = sum(snapshot[name] for name in snapshot
                      if name.endswith(".mitigations"))
        rows = sum(snapshot[name] for name in snapshot
                   if name.endswith(".rows_mitigated"))
        summaries = result.policy_summaries
        assert result.mitigation_commands > 0
        assert telemetry.journal.kinds()["mitigation"] == counted == \
            result.mitigation_commands == \
            sum(summary["mitigations"] for summary in summaries)
        assert rows == result.rows_mitigated == \
            sum(summary["rows_mitigated"] for summary in summaries)

    def test_rlp_histogram_mean_matches_result(self, system, traces,
                                               sim):
        telemetry = Telemetry()
        result = _run(system, traces, sim, telemetry)
        hists = [telemetry.registry.get(name) for name in
                 telemetry.registry.names() if name.endswith(".rlp")]
        total = sum(h.total for h in hists)
        count = sum(h.count for h in hists)
        assert count == result.mitigation_commands
        assert total / count == pytest.approx(result.average_rlp)

    def test_run_counters_and_throughput(self, system, traces, sim):
        telemetry = Telemetry()
        result = _run(system, traces, sim, telemetry)
        assert telemetry.registry.counter("sim.runs").value == 1
        assert telemetry.registry.counter("sim.requests").value == \
            result.requests_completed
        throughput = telemetry.profiler.snapshot()["throughput"]
        assert throughput["events"] == result.requests_completed
        assert throughput["events_per_sec"] > 0

    def test_timeline_queue_depth_hook_reset_after_run(self, system,
                                                       traces, sim):
        telemetry = Telemetry(journal_memory=True, sample_every_refi=2)
        _run(system, traces, sim, telemetry)
        assert telemetry.timeline.queue_depth is None
        assert any(record["queue_depth"] >= 0
                   for record in telemetry.journal.records
                   if record["kind"] == "sample")


class TestRuntimeHolder:
    def test_activated_restores_previous(self):
        outer = Telemetry()
        inner = Telemetry()
        assert obs_runtime.active() is None
        with obs_runtime.activated(outer):
            assert obs_runtime.active() is outer
            with obs_runtime.activated(inner):
                assert obs_runtime.active() is inner
            assert obs_runtime.active() is outer
        assert obs_runtime.active() is None

    def test_explicit_argument_beats_ambient(self, system, traces, sim):
        ambient = Telemetry()
        explicit = Telemetry()
        with obs_runtime.activated(ambient):
            _run(system, traces, sim, telemetry=explicit)
        assert explicit.registry.counter("sim.runs").value == 1
        assert "sim.runs" not in ambient.registry
