"""Unit tests for DREAM-C (gang tracking, Section 5)."""

import numpy as np
import pytest

from repro.core.dream_c import DreamCPolicy, GangMapper, dream_c_factory
from repro.core.storage import dream_c_config
from repro.dram.commands import Command
from repro.dram.subchannel import SubChannel
from repro.mc.controller import SubChannelController
from repro.mc.policy import PolicyContext


def make_controller(timing, organization, policy):
    subchannel = SubChannel(0, timing, organization.banks,
                            organization.banks_per_group,
                            record_mitigations=True)
    controller = SubChannelController(subchannel, timing, policy)
    return controller, subchannel


class TestGangMapper:
    def _mapper(self, t_rh=500, randomized=True, rows=1024, groups=1):
        config = dream_c_config(t_rh, rows_per_bank=rows)
        return GangMapper(config, randomized, np.random.default_rng(1),
                          bank_groups=groups)

    def test_set_associative_is_identity(self):
        mapper = self._mapper(t_rh=125, randomized=False)
        assert mapper.masks == [[0]] * 32
        assert mapper.gang_of(0, 42) == 42
        assert mapper.gang_of(31, 42) == 42

    def test_randomized_breaks_bank_correlation(self):
        mapper = self._mapper(t_rh=125, randomized=True)
        gangs = {mapper.gang_of(bank, 42) for bank in range(32)}
        assert len(gangs) > 8  # masks differ across banks

    def test_bijection_per_bank(self):
        mapper = self._mapper(t_rh=500, rows=1024)  # V=4, 256 entries
        for bank in (0, 7, 31):
            gangs = [mapper.gang_of(bank, row) for row in range(1024)]
            counts = np.bincount(gangs, minlength=mapper.total_entries)
            assert (counts == mapper.slices).all()

    def test_rows_of_inverts_gang_of(self):
        mapper = self._mapper(t_rh=500, rows=1024)
        for bank in (0, 13):
            for gang in (0, 100, 255):
                for row in mapper.rows_of(bank, gang):
                    assert mapper.gang_of(bank, row) == gang

    def test_gang_size_matches_config(self):
        mapper = self._mapper(t_rh=250, rows=1024)
        assert mapper.gang_size == 64  # 32 banks x V=2

    def test_gang_rows_by_bank(self):
        mapper = self._mapper(t_rh=125, rows=1024)
        membership = mapper.gang_rows_by_bank(5)
        assert len(membership) == 32
        assert all(len(rows) == 1 for rows in membership.values())

    def test_bank_groups_partition_dct(self):
        mapper = self._mapper(t_rh=125, rows=1024, groups=2)
        assert mapper.total_entries == 2048
        low = mapper.gang_of(0, 10)
        high = mapper.gang_of(16, 10)
        assert low < 1024 <= high
        assert mapper.gang_size == 16  # half the banks per gang

    def test_rows_of_foreign_group_is_empty(self):
        mapper = self._mapper(t_rh=125, rows=1024, groups=2)
        assert mapper.rows_of(16, 0) == []  # bank 16 is in group 1

    def test_masks_are_the_integers_draw_as_python_ints(self):
        mapper = self._mapper(t_rh=500, rows=1024)  # V=4, 256 entries
        drawn = np.random.default_rng(1).integers(
            256, size=(32, 4), dtype=np.int64)
        assert mapper.masks == drawn.tolist()
        assert all(type(mask) is int
                   for masks in mapper.masks for mask in masks)

    def test_rejects_non_power_of_two(self):
        config = dream_c_config(125, rows_per_bank=1024)
        object.__setattr__(config, "rows_per_bank", 1000)
        with pytest.raises(ValueError):
            GangMapper(config, True, np.random.default_rng(1))


class TestDreamCPolicy:
    def test_counts_below_threshold(self, timing, organization, context):
        policy = DreamCPolicy(context, t_rh=500)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        now = 0
        for i in range(20):
            now = controller.service(0, i, now)
        assert subchannel.stats.mitigation_commands == 0
        assert sum(policy.dct) == 20

    def test_threshold_triggers_gang_mitigation(self, timing, organization,
                                                context):
        policy = DreamCPolicy(context, t_rh=500)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        gang = policy.mapper.gang_of(0, 7)
        policy.dct[gang] = policy.threshold
        controller.service(0, 7, 0)
        # V = 4 rounds of DRFMab for T_RH = 500.
        assert subchannel.stats.mitigation_commands == 4
        assert all(event.command is Command.DRFM_AB
                   for event in subchannel.mitigation_log)
        assert policy.dct[gang] == 1

    def test_mitigation_covers_whole_gang(self, timing, organization,
                                          context):
        policy = DreamCPolicy(context, t_rh=500)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        gang = policy.mapper.gang_of(0, 7)
        policy.dct[gang] = policy.threshold
        controller.service(0, 7, 0)
        mitigated = {pair for event in subchannel.mitigation_log
                     for pair in event.mitigated_rows}
        expected = {(bank, row)
                    for bank, rows in
                    policy.mapper.gang_rows_by_bank(gang).items()
                    for row in rows}
        assert mitigated == expected
        assert len(mitigated) == policy.config.gang_size

    def test_set_associative_hot_page_heats_one_counter(self, timing,
                                                        organization,
                                                        context):
        # MOP stripes a page to the same RowID across banks; with
        # set-associative grouping every stripe access lands on one gang.
        policy = DreamCPolicy(context, t_rh=500, randomized=False)
        controller, _ = make_controller(timing, organization, policy)
        now = 0
        for bank in range(32):
            now = controller.service(bank, 42, now)
        gang = policy.mapper.gang_of(0, 42)
        assert policy.dct[gang] == 32

    def test_randomized_spreads_hot_page(self, timing, organization,
                                         context):
        policy = DreamCPolicy(context, t_rh=500, randomized=True)
        controller, _ = make_controller(timing, organization, policy)
        now = 0
        for bank in range(32):
            now = controller.service(bank, 42, now)
        assert max(policy.dct) <= 4  # mask collisions only

    def test_staggered_reset_clears_whole_table_per_window(
            self, timing, organization, context):
        policy = DreamCPolicy(context, t_rh=500)
        policy.dct[:] = [5] * len(policy.dct)
        policy._staggered_reset(timing.t_refw)
        assert sum(policy.dct) == 0

    def test_staggered_reset_is_incremental(self, timing, organization,
                                            context):
        policy = DreamCPolicy(context, t_rh=500)
        policy.dct[:] = [5] * len(policy.dct)
        policy._staggered_reset(timing.t_refi)
        cleared = policy.dct.count(0)
        assert 0 < cleared < len(policy.dct)
        assert cleared == pytest.approx(
            len(policy.dct) / timing.refs_per_window, abs=1)

    def test_rate_limit_skips_back_to_back(self, timing, organization,
                                           context):
        policy = DreamCPolicy(context, t_rh=500, rate_limited=True)
        controller, subchannel = make_controller(timing, organization,
                                                 policy)
        gang = policy.mapper.gang_of(0, 7)
        policy.dct[gang] = policy.threshold
        finish = controller.service(0, 7, 0)
        rounds_after_first = subchannel.stats.mitigation_commands
        policy.dct[gang] = policy.threshold  # immediately hot again
        other_row = next(row for row in policy.mapper.rows_of(0, gang)
                         if row != 7)
        controller.service(0, other_row, finish)
        # Second mitigation suppressed by the RMAQ.
        assert subchannel.stats.mitigation_commands == rounds_after_first
        assert policy.stats.samples_skipped_rate_limit == 1

    def test_dct_is_a_list_of_python_ints(self, context):
        policy = DreamCPolicy(context, t_rh=500)
        assert type(policy.dct) is list
        assert all(type(count) is int for count in policy.dct)
        assert policy.summary()["max_counter"] == 0

    def test_summary_fields(self, context):
        policy = dream_c_factory(500)(context)
        summary = policy.summary()
        assert {"drfm_rounds", "dct_entries", "max_counter"} <= \
            set(summary)

    def test_factory_names(self, context):
        assert dream_c_factory(500, randomized=True)(context).name == \
            "dream-c-rand"
        assert dream_c_factory(500, randomized=False)(context).name == \
            "dream-c-assoc"
        assert dream_c_factory(
            125, storage_multiplier=2)(context).name == "dream-c-rand-2x"

    def test_rejects_bad_multiplier(self, context):
        with pytest.raises(ValueError):
            DreamCPolicy(context, t_rh=500, storage_multiplier=0)
