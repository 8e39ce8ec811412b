"""Unit tests for the memory controller service path."""

import pytest

from repro.dram.commands import Command
from repro.dram.subchannel import SubChannel
from repro.mc.controller import MemoryController, SubChannelController
from repro.mc.policy import MitigationPolicy


class RecordingPolicy(MitigationPolicy):
    """Test double: records hooks, optionally requests sampling."""

    name = "recording"

    def __init__(self, sample_rows=()):
        super().__init__()
        self.sample_rows = set(sample_rows)
        self.activations = []
        self.sampled = []

    def before_activate(self, bank, row, now_ps):
        self.activations.append((bank, row, now_ps))
        return row in self.sample_rows

    def on_sampled(self, bank, row, now_ps):
        self.sampled.append((bank, row, now_ps))


@pytest.fixture
def controller(timing, organization):
    subchannel = SubChannel(0, timing, organization.banks,
                            organization.banks_per_group)
    return SubChannelController(subchannel, timing, None)


class TestServicePath:
    def test_row_miss_then_hit(self, controller, timing):
        first = controller.service(0, 5, 0)
        assert first >= timing.t_rcd + timing.t_cl
        bank = controller.subchannel.banks[0]
        assert bank.open_row == 5
        second = controller.service(0, 5, first)
        assert bank.stats.row_hits == 1
        assert second > first

    def test_row_conflict_precharges(self, controller):
        controller.service(0, 5, 0)
        finish = controller.service(0, 6, 10 ** 6)
        bank = controller.subchannel.banks[0]
        assert bank.stats.row_conflicts == 1
        assert bank.open_row == 6
        assert finish > 10 ** 6

    def test_conflict_costs_more_than_hit(self, controller):
        controller.service(0, 5, 0)
        t0 = 10 ** 6
        hit = controller.service(0, 5, t0) - t0
        t1 = 2 * 10 ** 6
        conflict = controller.service(0, 6, t1) - t1
        assert conflict > hit

    def test_refresh_advances_lazily(self, controller, timing):
        controller.service(0, 5, timing.t_refi + 1)
        assert controller.subchannel.stats.refreshes == 1


class TestDataBus:
    """The controller is the one model of its sub-channel's data bus."""

    def test_one_burst_occupies_tbus(self, controller, timing):
        finish = controller.service(0, 5, 0)
        assert finish == timing.t_rcd + timing.t_cl + timing.t_bus
        assert controller.bursts == 1

    def test_two_bursts_at_t0_serialize(self, controller, timing):
        first = controller.service(0, 5, 0)
        second = controller.service(1, 5, 0)
        assert second == first + timing.t_bus

    def test_busy_time_is_bursts_times_tbus(self, timing, organization):
        mc = MemoryController(organization, timing)
        mc.service(0, 0, 5, 0)
        mc.service(0, 1, 5, 0)
        mc.service(1, 0, 5, 0)
        assert [sub.bursts for sub in mc.controllers] == [2, 1]
        assert mc.bus_busy_ps() == 3 * timing.t_bus


class TestPolicyHooks:
    def test_hook_only_on_activation(self, timing, organization):
        policy = RecordingPolicy()
        subchannel = SubChannel(0, timing, organization.banks,
                                organization.banks_per_group)
        controller = SubChannelController(subchannel, timing, policy)
        finish = controller.service(0, 5, 0)
        controller.service(0, 5, finish)  # row hit: no hook
        assert len(policy.activations) == 1

    def test_sampling_closes_row_and_notifies(self, timing, organization):
        policy = RecordingPolicy(sample_rows={5})
        subchannel = SubChannel(0, timing, organization.banks,
                                organization.banks_per_group)
        controller = SubChannelController(subchannel, timing, policy)
        controller.service(0, 5, 0)
        bank = subchannel.banks[0]
        assert bank.open_row is None  # Pre+Sample closed it
        assert bank.dar.row == 5
        assert policy.sampled and policy.sampled[0][:2] == (0, 5)


class TestPagePolicies:
    def test_closed_page_precharges_after_access(self, timing,
                                                 organization):
        from repro.mc.page_policy import PagePolicy
        from repro.dram.subchannel import SubChannel

        subchannel = SubChannel(0, timing, organization.banks,
                                organization.banks_per_group)
        controller = SubChannelController(subchannel, timing, None,
                                          page_policy=PagePolicy.CLOSED)
        controller.service(0, 5, 0)
        bank = subchannel.banks[0]
        assert bank.open_row is None
        assert bank.stats.precharges == 1

    def test_closed_page_never_hits(self, timing, organization):
        from repro.mc.page_policy import PagePolicy
        from repro.dram.subchannel import SubChannel

        subchannel = SubChannel(0, timing, organization.banks,
                                organization.banks_per_group)
        controller = SubChannelController(subchannel, timing, None,
                                          page_policy=PagePolicy.CLOSED)
        finish = controller.service(0, 5, 0)
        controller.service(0, 5, finish + 10 ** 6)
        bank = subchannel.banks[0]
        assert bank.stats.row_hits == 0
        assert bank.stats.activations == 2

    def test_policy_descriptions(self):
        from repro.mc.page_policy import PagePolicy, describe

        assert "open" in describe(PagePolicy.OPEN)
        assert "closed" in describe(PagePolicy.CLOSED)
        assert PagePolicy.CLOSED.closes_after_access
        assert not PagePolicy.OPEN.closes_after_access


class TestMitigationPort:
    def test_explicit_sample_populates_dar(self, controller, timing):
        done = controller.explicit_sample(3, 77, 0)
        bank = controller.subchannel.banks[3]
        assert bank.dar.row == 77
        assert bank.open_row is None
        assert done >= timing.t_rc  # ACT + tRAS + PRE

    def test_explicit_sample_closes_conflicting_row(self, controller):
        controller.service(3, 5, 0)
        controller.explicit_sample(3, 77, 10 ** 6)
        assert controller.subchannel.banks[3].dar.row == 77

    def test_issue_routes_to_subchannel(self, controller):
        event = controller.issue(Command.NRR, 2, 0, row=9)
        assert event.mitigated_rows == ((2, 9),)

    def test_block_bank(self, controller):
        controller.block_bank(4, 10 ** 6)
        assert controller.subchannel.banks[4].busy_until_ps == 10 ** 6

    def test_dar_accessor(self, controller):
        assert controller.dar(0) is controller.subchannel.banks[0].dar


class TestMemoryController:
    def test_routes_by_subchannel(self, timing, organization):
        mc = MemoryController(organization, timing)
        mc.service(0, 1, 5, 0)
        mc.service(1, 2, 6, 0)
        assert mc.device.subchannel(0).banks[1].stats.activations == 1
        assert mc.device.subchannel(1).banks[2].stats.activations == 1

    def test_policy_per_subchannel(self, timing, organization):
        created = []

        def factory(context):
            policy = RecordingPolicy()
            created.append((context.subchannel, policy))
            return policy

        mc = MemoryController(organization, timing, factory, seed=1)
        assert [index for index, _ in created] == [0, 1]
        assert len(mc.policies) == 2

    def test_aggregate_stats(self, timing, organization):
        mc = MemoryController(organization, timing)
        finish = mc.service(0, 0, 5, 0)
        mc.service(0, 0, 5, finish)
        mc.service(0, 0, 6, 2 * finish + 10 ** 6)
        assert mc.total_activations() == 2
        assert mc.total_row_hits() == 1
        assert mc.total_row_conflicts() == 1
        assert mc.bus_busy_ps() == 3 * timing.t_bus
