"""Unit tests for the coupled PARA/MINT baselines (Section 2.6)."""

from itertools import islice

import numpy as np
import pytest

from repro.dram.commands import Command
from repro.dram.subchannel import SubChannel
from repro.mc.controller import SubChannelController
from repro.mc.mitigation import (CoupledMintPolicy, CoupledParaPolicy,
                                 coupled_mint_factory, coupled_para_factory)
from repro.mc.policy import (UNIFORM_BLOCK, NoMitigation,
                             no_mitigation_factory, uniform_draws)


def make_controller(timing, organization, policy):
    subchannel = SubChannel(0, timing, organization.banks,
                            organization.banks_per_group,
                            record_mitigations=True)
    controller = SubChannelController(subchannel, timing, policy)
    return controller, subchannel


class TestUniformDraws:
    def test_yields_the_scalar_random_sequence(self):
        n = 3 * UNIFORM_BLOCK + 7
        blocked = list(islice(uniform_draws(np.random.default_rng(9)), n))
        rng = np.random.default_rng(9)
        assert blocked == [rng.random() for _ in range(n)]


class TestNoMitigation:
    def test_never_mitigates(self, timing, organization, context):
        policy = no_mitigation_factory()(context)
        assert isinstance(policy, NoMitigation)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        now = 0
        for row in range(50):
            now = controller.service(0, row, now)
        assert subchannel.stats.mitigation_commands == 0
        assert policy.stats.activations_observed == 50


class TestCoupledPara:
    def test_probability_from_threshold(self, context):
        policy = CoupledParaPolicy(context, t_rh=2000)
        assert policy.probability == pytest.approx(1 / 100)

    def test_probability_override(self, context):
        policy = CoupledParaPolicy(context, t_rh=2000, probability=0.5)
        assert policy.probability == 0.5

    def test_selection_triggers_immediate_drfm(self, timing, organization,
                                               context):
        policy = CoupledParaPolicy(context, t_rh=2000, probability=1.0)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        controller.service(0, 5, 0)
        assert subchannel.stats.mitigation_commands == 1
        event = subchannel.mitigation_log[0]
        assert event.command is Command.DRFM_SB
        assert event.mitigated_rows == ((0, 5),)

    def test_coupled_rlp_is_one(self, timing, organization, context):
        # Sampling and mitigation are coupled: DRFM always fires right
        # after its own DAR write, so it can only ever mitigate one row.
        policy = CoupledParaPolicy(context, t_rh=2000, probability=0.3)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        now = 0
        for i in range(400):
            now = controller.service(i % 32, i, now)
        assert subchannel.stats.mitigation_commands > 0
        assert subchannel.average_rlp == pytest.approx(1.0)

    def test_nrr_variant_mitigates_directly(self, timing, organization,
                                            context):
        policy = CoupledParaPolicy(context, t_rh=2000,
                                   command=Command.NRR, probability=1.0)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        controller.service(2, 9, 0)
        event = subchannel.mitigation_log[0]
        assert event.command is Command.NRR
        assert event.mitigated_rows == ((2, 9),)
        # NRR needs no DAR sampling.
        assert subchannel.banks[2].stats.samples == 0

    def test_rejects_bad_threshold(self, context):
        with pytest.raises(ValueError):
            CoupledParaPolicy(context, t_rh=0)

    def test_factory(self, context):
        policy = coupled_para_factory(2000, Command.DRFM_AB)(context)
        assert policy.command is Command.DRFM_AB
        assert policy.name == "para-drfmab"


class TestCoupledMint:
    def test_window_from_threshold(self, context):
        policy = CoupledMintPolicy(context, t_rh=2000)
        assert policy.window == 100

    def test_one_mitigation_per_window(self, timing, organization,
                                       context):
        policy = CoupledMintPolicy(context, t_rh=2000, window=10)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        now = 0
        for i in range(95):
            now = controller.service(0, i, now)
        # 95 activations to one bank with W=10: windows end at the 11th,
        # 21st, ... activation -> at least 7 mitigations.
        assert 7 <= subchannel.stats.mitigation_commands <= 9

    def test_mitigation_samples_explicitly(self, timing, organization,
                                           context):
        policy = CoupledMintPolicy(context, t_rh=2000, window=5)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        now = 0
        for i in range(20):
            now = controller.service(0, i, now)
        assert subchannel.banks[0].stats.samples >= 1
        event = subchannel.mitigation_log[0]
        assert event.command is Command.DRFM_SB
        assert event.rlp == 1

    def test_per_bank_windows_independent(self, timing, organization,
                                          context):
        policy = CoupledMintPolicy(context, t_rh=2000, window=10)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        now = 0
        for i in range(8):
            now = controller.service(0, i, now)
        for i in range(8):
            now = controller.service(1, i, now)
        # Neither bank's window expired yet.
        assert subchannel.stats.mitigation_commands == 0

    def test_factory(self, context):
        policy = coupled_mint_factory(1000, Command.NRR)(context)
        assert policy.window == 50
        assert policy.name == "mint-nrr"
