"""Unit tests for the bank state machine and the DAR register."""

import pytest

from repro.dram.bank import Bank, DARRegister
from repro.dram.timing import DDR5Timing, ns


@pytest.fixture
def bank(timing):
    return Bank(0, timing)


class TestDARRegister:
    def test_starts_invalid(self):
        dar = DARRegister()
        assert not dar.valid

    def test_write_and_invalidate(self):
        dar = DARRegister()
        dar.write(42, 1000)
        assert dar.valid
        assert dar.row == 42
        assert dar.sampled_at_ps == 1000
        assert dar.invalidate() == 42
        assert not dar.valid

    def test_invalidate_empty_returns_none(self):
        assert DARRegister().invalidate() is None

    def test_overwrite(self):
        dar = DARRegister()
        dar.write(1, 10)
        dar.write(2, 20)
        assert dar.row == 2
        assert dar.sampled_at_ps == 20


class TestActivate:
    def test_activate_opens_row(self, bank):
        ready = bank.activate(7, 0)
        assert bank.open_row == 7
        assert ready == bank.timing.t_rcd
        assert bank.stats.activations == 1

    def test_activate_while_open_raises(self, bank):
        bank.activate(7, 0)
        with pytest.raises(RuntimeError, match="while row"):
            bank.activate(8, 100_000)

    def test_trc_enforced_between_activations(self, bank, timing):
        bank.activate(1, 0)
        bank.precharge(timing.t_rcd)
        ready = bank.activate(2, 0)
        # The second ACT cannot start before tRC after the first.
        assert ready >= timing.t_rc + timing.t_rcd

    def test_activate_waits_for_blocking(self, bank, timing):
        bank.block_until(ns(1000))
        ready = bank.activate(3, 0)
        assert ready == ns(1000) + timing.t_rcd


class TestPrecharge:
    def test_closes_row(self, bank):
        bank.activate(5, 0)
        bank.precharge(ns(100))
        assert bank.open_row is None
        assert bank.stats.precharges == 1

    def test_tras_enforced(self, bank, timing):
        bank.activate(5, 0)
        done = bank.precharge(0)
        # PRE cannot start before tRAS after the ACT; ends a full tRC
        # after the activation started.
        assert done >= timing.t_rc

    def test_sample_writes_dar(self, bank):
        bank.activate(5, 0)
        bank.precharge(ns(100), sample=True)
        assert bank.dar.valid
        assert bank.dar.row == 5
        assert bank.stats.samples == 1

    def test_sample_without_open_row_raises(self, bank):
        with pytest.raises(RuntimeError, match="no open row"):
            bank.precharge(0, sample=True)

    def test_plain_precharge_leaves_dar(self, bank):
        bank.activate(5, 0)
        bank.precharge(ns(100))
        assert not bank.dar.valid


class TestMitigation:
    def test_mitigates_dar_row(self, bank):
        bank.activate(9, 0)
        bank.precharge(ns(100), sample=True)
        row = bank.execute_mitigation(ns(500))
        assert row == 9
        assert not bank.dar.valid
        assert bank.busy_until_ps >= ns(500)

    def test_invalid_dar_still_blocks(self, bank):
        row = bank.execute_mitigation(ns(500))
        assert row is None
        assert bank.busy_until_ps >= ns(500)


class TestBlocking:
    def test_block_extends_only_forward(self, bank):
        bank.block_until(ns(100))
        bank.block_until(ns(50))
        assert bank.busy_until_ps == ns(100)

    def test_blocked_time_accumulates(self, bank):
        bank.block_until(ns(100))
        bank.block_until(ns(300))
        assert bank.stats.blocked_time_ps == ns(300)

    def test_ready_at(self, bank):
        bank.block_until(ns(100))
        assert bank.ready_at(0) == ns(100)
        assert bank.ready_at(ns(200)) == ns(200)


def test_describe_mentions_state(bank):
    bank.activate(4, 0)
    text = bank.describe()
    assert "row=4" in text
    assert "DAR=invalid" in text
