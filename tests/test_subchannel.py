"""Unit tests for the sub-channel: REF, DRFM execution, RLP."""

import pytest

from repro.dram.commands import Command
from repro.dram.timing import ns


def _sample(subchannel, bank, row, now=0):
    """Helper: put ``row`` into ``bank``'s DAR via ACT + Pre+Sample."""
    target = subchannel.banks[bank]
    if target.open_row is not None:
        target.precharge(now)
    target.activate(row, now)
    return target.precharge(now, sample=True)


class TestRefresh:
    def test_blocks_all_banks(self, subchannel, timing):
        until = subchannel.refresh(ns(100))
        assert until == ns(100) + timing.t_rfc
        assert all(bank.busy_until_ps >= until
                   for bank in subchannel.banks)

    def test_closes_open_rows(self, subchannel):
        subchannel.banks[3].activate(9, 0)
        subchannel.refresh(ns(100))
        assert subchannel.banks[3].open_row is None

    def test_counts_refreshes(self, subchannel):
        subchannel.refresh(0)
        subchannel.refresh(ns(3900))
        assert subchannel.stats.refreshes == 2


class TestDRFMsb:
    def test_mitigates_valid_dars_in_group(self, subchannel):
        _sample(subchannel, 1, 100)
        _sample(subchannel, 5, 200)   # same position (1 mod 4)
        _sample(subchannel, 2, 300)   # different position
        event = subchannel.issue_mitigation(Command.DRFM_SB, 1, ns(1000))
        assert event.rlp == 2
        assert (1, 100) in event.mitigated_rows
        assert (5, 200) in event.mitigated_rows
        # Bank 2 (different position) keeps its DAR.
        assert subchannel.banks[2].dar.valid

    def test_blocks_eight_banks(self, subchannel, timing):
        event = subchannel.issue_mitigation(Command.DRFM_SB, 1, ns(1000))
        assert event.blocked_banks == 8
        until = ns(1000) + timing.t_drfm_sb
        for bank in (1, 5, 9, 13, 17, 21, 25, 29):
            assert subchannel.banks[bank].busy_until_ps >= until
        assert subchannel.banks[0].busy_until_ps == 0

    def test_invalidates_dars(self, subchannel):
        _sample(subchannel, 1, 100)
        subchannel.issue_mitigation(Command.DRFM_SB, 1, ns(1000))
        assert not subchannel.banks[1].dar.valid


class TestDRFMab:
    def test_mitigates_all_valid_dars(self, subchannel):
        for bank in range(32):
            _sample(subchannel, bank, 1000 + bank)
        event = subchannel.issue_mitigation(Command.DRFM_AB, 0, ns(5000))
        assert event.rlp == 32
        assert event.blocked_banks == 32

    def test_blocks_longer_than_sb(self, subchannel, timing):
        event_sb = subchannel.issue_mitigation(Command.DRFM_SB, 0, 0)
        event_ab = subchannel.issue_mitigation(Command.DRFM_AB, 0, 0)
        assert timing.t_drfm_ab > timing.t_drfm_sb
        assert event_ab.blocked_banks > event_sb.blocked_banks


class TestNRR:
    def test_mitigates_explicit_row(self, subchannel):
        event = subchannel.issue_mitigation(Command.NRR, 3, 0, row=77)
        assert event.mitigated_rows == ((3, 77),)
        assert event.blocked_banks == 1

    def test_requires_row(self, subchannel):
        with pytest.raises(ValueError, match="explicit row"):
            subchannel.issue_mitigation(Command.NRR, 3, 0)

    def test_does_not_touch_dar(self, subchannel):
        _sample(subchannel, 3, 50)
        subchannel.issue_mitigation(Command.NRR, 3, ns(1000), row=77)
        assert subchannel.banks[3].dar.valid

    def test_blocks_single_bank_only(self, subchannel, timing):
        subchannel.issue_mitigation(Command.NRR, 3, 0, row=1)
        assert subchannel.banks[3].busy_until_ps >= timing.t_nrr
        assert subchannel.banks[4].busy_until_ps == 0


class TestRLPAccounting:
    def test_average_rlp(self, subchannel):
        _sample(subchannel, 0, 10)
        subchannel.issue_mitigation(Command.DRFM_SB, 0, ns(1000))
        _sample(subchannel, 0, 11, now=ns(2000))
        _sample(subchannel, 4, 12, now=ns(2000))
        subchannel.issue_mitigation(Command.DRFM_SB, 0, ns(3000))
        assert subchannel.stats.mitigation_commands == 2
        assert subchannel.stats.mitigated_rows == 3
        assert subchannel.average_rlp == pytest.approx(1.5)

    def test_counts_per_kind_and_rlp(self, subchannel):
        _sample(subchannel, 0, 10)
        _sample(subchannel, 4, 11)
        subchannel.issue_mitigation(Command.DRFM_SB, 0, ns(1000))
        subchannel.issue_mitigation(Command.DRFM_AB, 0, ns(2000))
        subchannel.issue_mitigation(Command.NRR, 3, ns(3000), row=7)
        stats = subchannel.stats
        assert stats.commands == {Command.DRFM_SB: 1, Command.DRFM_AB: 1,
                                  Command.NRR: 1}
        assert stats.rlp_counts == {2: 1, 0: 1, 1: 1}
        assert sum(stats.commands.values()) == stats.mitigation_commands
        assert sum(rlp * count for rlp, count in stats.rlp_counts.items()) \
            == stats.mitigated_rows

    def test_empty_average(self, subchannel):
        assert subchannel.average_rlp == 0.0

    def test_mitigation_log_recorded(self, subchannel):
        subchannel.issue_mitigation(Command.NRR, 0, 0, row=5)
        assert len(subchannel.mitigation_log) == 1

    def test_valid_dar_count(self, subchannel):
        assert subchannel.valid_dar_count() == 0
        _sample(subchannel, 0, 10)
        _sample(subchannel, 7, 11)
        assert subchannel.valid_dar_count() == 2

    def test_bankgroup_of(self, subchannel):
        assert subchannel.bankgroup_of(0) == 0
        assert subchannel.bankgroup_of(7) == 1
        assert subchannel.bankgroup_of(31) == 7


def test_invalid_bank_group_shape(timing):
    from repro.dram.subchannel import SubChannel
    with pytest.raises(ValueError, match="multiple"):
        SubChannel(0, timing, num_banks=30, banks_per_group=4)
