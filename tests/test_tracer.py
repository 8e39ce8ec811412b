"""Tests for command tracing and DRAM-protocol verification."""

import pytest

from repro.core.dream_c import dream_c_factory
from repro.core.dream_r import dream_r_mint_factory, dream_r_para_factory
from repro.dram.commands import ROW_CLOSING, Command
from repro.dram.subchannel import SubChannel
from repro.mc.controller import MemoryController, SubChannelController
from repro.mc.mitigation import coupled_mint_factory, coupled_para_factory
from repro.mc.tracer import CommandTracer, verify_protocol
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.runner import run_simulation
from repro.trackers.abacus import abacus_factory
from repro.trackers.prac import moat_factory
from repro.workloads.builder import build_traces


def traced_controller(timing, organization, policy=None):
    subchannel = SubChannel(3, timing, organization.banks,
                            organization.banks_per_group)
    controller = SubChannelController(subchannel, timing, policy)
    tracer = CommandTracer()
    subchannel.attach_tracer(tracer)
    return controller, tracer


def early_commands(tracer, timing):
    """Row commands recorded before their bank could start them: a
    precharge before the bank's last ACT + tRAS, or an ACT before its
    last precharge + tRP."""
    not_before, early = {}, []
    for issued in tracer.commands:
        opens = issued.command is Command.ACT
        if opens or issued.command in ROW_CLOSING:
            if issued.time_ps < not_before.get((issued.bank, opens),
                                               issued.time_ps):
                early.append(issued)
            not_before[(issued.bank, not opens)] = issued.time_ps + (
                timing.t_ras if opens else timing.t_rp)
    return early


#: One design per family and the mitigation command it must issue
#: within the end-to-end budget (``None``: it need not act on mcf).
#: MOAT runs on the PRAC system.
END_TO_END_DESIGNS = {
    "para-nrr": (coupled_para_factory(500, Command.NRR), Command.NRR),
    "para-drfmsb": (coupled_para_factory(500), Command.DRFM_SB),
    "para-drfmab": (coupled_para_factory(500, Command.DRFM_AB),
                    Command.DRFM_AB),
    "mint-drfmsb": (coupled_mint_factory(500), Command.DRFM_SB),
    "dream-r-para": (dream_r_para_factory(500), Command.DRFM_SB),
    "dream-r-mint": (dream_r_mint_factory(500), Command.DRFM_SB),
    "dream-c-rand": (dream_c_factory(250), None),
    "abacus": (abacus_factory(125), Command.DRFM_AB),
    "moat-prac": (moat_factory(500), None),
}


class TestTracing:
    def test_act_recorded_per_miss(self, timing, organization):
        controller, tracer = traced_controller(timing, organization)
        finish = controller.service(0, 5, 0)
        controller.service(0, 5, finish)  # row hit: no command
        assert tracer.count(Command.ACT) == 1
        act = tracer.per_bank(0)[0]
        assert (act.command, act.subchannel, act.row) == \
            (Command.ACT, 3, 5)

    def test_conflict_records_pre(self, timing, organization):
        """A conflict PRE on a busy bank is recorded when the bank
        starts it, not when the request arrives."""
        controller, tracer = traced_controller(timing, organization)
        controller.service(0, 5, 0)
        controller.block_bank(0, 10 ** 6)
        controller.service(0, 6, 1)
        assert [(issued.command, issued.time_ps)
                for issued in tracer.per_bank(0)] == [
            (Command.ACT, 0), (Command.PRE, 10 ** 6),
            (Command.ACT, 10 ** 6 + timing.t_rp)]

    def test_attach_passes_index_and_shape(self, timing):
        tracer = CommandTracer()
        SubChannel(1, timing, 16, 2).attach_tracer(tracer)
        assert (tracer.subchannel, tracer.num_banks,
                tracer.banks_per_group) == (1, 16, 2)

    def test_ref_recorded(self, timing, organization):
        controller, tracer = traced_controller(timing, organization)
        controller.service(0, 5, timing.t_refi * 2 + 1)
        assert tracer.count(Command.REF) == 2

    def test_explicit_sample_sequence(self, timing, organization):
        controller, tracer = traced_controller(timing, organization)
        controller.explicit_sample(3, 77, 0)
        kinds = [issued.command for issued in tracer.per_bank(3)]
        assert kinds == [Command.ACT, Command.PRE_SAMPLE]

    def test_mitigation_commands_recorded(self, timing, organization,
                                          context):
        policy = coupled_para_factory(2000)(context)
        policy.probability = 1.0
        controller, tracer = traced_controller(timing, organization,
                                               policy)
        controller.service(0, 5, 0)
        assert tracer.count(Command.DRFM_SB) == 1
        assert tracer.count(Command.PRE_SAMPLE) == 1

    def test_tail_renders(self, timing, organization):
        controller, tracer = traced_controller(timing, organization)
        controller.service(0, 5, 0)
        assert "ACT" in tracer.tail()


class TestProtocolChecker:
    def test_detects_double_act(self):
        tracer = CommandTracer()
        tracer.record(0, Command.ACT, bank=0, row=1)
        tracer.record(10, Command.ACT, bank=0, row=2)
        violations = verify_protocol(tracer)
        assert len(violations) == 1
        assert "ACT while row" in violations[0].reason

    def test_detects_orphan_precharge(self):
        tracer = CommandTracer()
        tracer.record(0, Command.PRE, bank=0)
        violations = verify_protocol(tracer)
        assert violations and "no open row" in violations[0].reason

    @pytest.mark.parametrize("command,closed", [
        (Command.REF, {1, 2, 5}), (Command.DRFM_AB, {1, 2, 5}),
        (Command.DRFM_SB, {1, 5}), (Command.NRR, {1})],
        ids=["REF", "DRFMab", "DRFMsb", "NRR"])
    def test_commands_close_the_banks_they_block(self, command, closed):
        # Banks 1 and 5 hold position 1 of bankgroups 0 and 1; bank 2
        # is outside the DRFMsb footprint.
        tracer = CommandTracer()
        for bank in (1, 2, 5):
            tracer.record(0, Command.ACT, bank=bank, row=1)
        tracer.record(10, command,
                      bank=None if command is Command.REF else 1)
        for bank in (1, 2, 5):
            tracer.record(20, Command.ACT, bank=bank, row=2)
        still_open = {violation.command.bank
                      for violation in verify_protocol(tracer)}
        assert still_open == {1, 2, 5} - closed

    @pytest.mark.parametrize("design", END_TO_END_DESIGNS)
    def test_end_to_end_full_run_is_protocol_clean(self, small_system,
                                                   design, monkeypatch):
        # Trace every sub-channel of a complete closed-loop run: the
        # stream must be DRAM-legal, and no row command may start
        # before its bank's tRAS or tRP has passed.
        factory, command = END_TO_END_DESIGNS[design]
        system = SystemConfig.prac(64, num_cores=2) \
            if design == "moat-prac" else small_system
        sim = SimConfig(requests_per_core=6_000, seed=7)
        tracers = []

        def traced(*args, **kwargs):
            mc = MemoryController(*args, **kwargs)
            for subchannel in mc.device.subchannels:
                tracers.append(CommandTracer())
                subchannel.attach_tracer(tracers[-1])
            return mc

        monkeypatch.setattr("repro.sim.runner.MemoryController", traced)
        run_simulation(system, build_traces("mcf", system, sim,
                                            calibrate=False),
                       sim, factory)
        for tracer in tracers:
            assert verify_protocol(tracer) == []
            assert early_commands(tracer, system.timing) == []
        if command is not None:
            assert sum(tracer.count(command) for tracer in tracers) > 0
