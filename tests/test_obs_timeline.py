"""Unit tests for the timeline sampler (cadence, deltas, attachment).

The sampler's only record of a tick is the ``sample`` journal record,
so the tests read ticks from an in-memory journal.
"""

import pytest

from repro.obs.journal import RunJournal
from repro.obs.timeline import DEFAULT_SAMPLE_EVERY_REFI, TimelineSampler


class _BankStats:
    def __init__(self):
        self.activations = 0
        self.row_hits = 0
        self.row_conflicts = 0
        self.samples = 0


class _Bank:
    def __init__(self):
        self.stats = _BankStats()
        self.open_row = None


class _SubChannelStats:
    def __init__(self):
        self.mitigation_commands = 0
        self.mitigated_rows = 0


class _FakeSubChannel:
    def __init__(self, index=0, banks=4):
        self.index = index
        self.banks = [_Bank() for _ in range(banks)]
        self.stats = _SubChannelStats()
        self.dars = 0

    def valid_dar_count(self):
        return self.dars


class _FakeRefresh:
    def __init__(self):
        self.callbacks = []

    def on_ref(self, callback):
        self.callbacks.append(callback)

    def fire(self, ref_index, time_ps):
        for callback in self.callbacks:
            callback(ref_index, time_ps)


class _FakeController:
    def __init__(self, index=0):
        self.subchannel = _FakeSubChannel(index)
        self.refresh = _FakeRefresh()


def _sampler(sample_every_refi=1):
    """A sampler journalling into memory, and that journal's records."""
    journal = RunJournal()
    sampler = TimelineSampler(sample_every_refi=sample_every_refi,
                              journal=journal)
    return sampler, journal.records


class TestCadence:
    def test_samples_every_nth_ref(self):
        sampler, records = _sampler(sample_every_refi=4)
        controller = _FakeController()
        sampler.attach(controller)
        for ref_index in range(16):
            controller.refresh.fire(ref_index, time_ps=ref_index * 1000)
        # (ref_index + 1) % 4 == 0  ->  refs 3, 7, 11, 15.
        assert [r["ref"] for r in records] == [3, 7, 11, 15]
        assert [r["tick"] for r in records] == [0, 1, 2, 3]
        assert sampler.ticks == 4

    def test_default_period(self):
        assert TimelineSampler().sample_every_refi == \
            DEFAULT_SAMPLE_EVERY_REFI

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            TimelineSampler(sample_every_refi=0)


class TestDeltas:
    def test_interval_deltas_not_cumulative(self):
        sampler, records = _sampler()
        controller = _FakeController()
        sampler.attach(controller)
        bank = controller.subchannel.banks[0]

        bank.stats.activations = 10
        bank.stats.row_hits = 30
        controller.refresh.fire(0, 100)
        bank.stats.activations = 15
        bank.stats.row_hits = 45
        controller.refresh.fire(1, 200)

        first, second = records
        assert first["acts"] == 10 and first["hits"] == 30
        assert second["acts"] == 5 and second["hits"] == 15
        assert second["hit_rate"] == pytest.approx(15 / 20)

    def test_rlp_is_rows_per_command_in_interval(self):
        sampler, records = _sampler()
        controller = _FakeController()
        sampler.attach(controller)
        controller.subchannel.stats.mitigation_commands = 4
        controller.subchannel.stats.mitigated_rows = 30
        controller.refresh.fire(0, 100)
        (record,) = records
        assert record["drfm"] == 4
        assert record["rows_mitigated"] == 30
        assert record["rlp"] == pytest.approx(7.5)

    def test_zero_activity_interval_is_safe(self):
        sampler, records = _sampler()
        controller = _FakeController()
        sampler.attach(controller)
        controller.refresh.fire(0, 100)
        (record,) = records
        assert record["hit_rate"] == 0.0
        assert record["rlp"] == 0.0

    def test_open_banks_and_queue_depth_snapshotted(self):
        sampler, records = _sampler()
        controller = _FakeController()
        sampler.attach(controller)
        controller.subchannel.banks[0].open_row = 12
        controller.subchannel.banks[2].open_row = 7
        controller.subchannel.dars = 3
        sampler.queue_depth = lambda: 42
        controller.refresh.fire(0, 100)
        (record,) = records
        assert record["open_banks"] == 2
        assert record["valid_dars"] == 3
        assert record["queue_depth"] == 42


class TestMultiSubchannel:
    def test_samples_tagged_and_filterable(self):
        sampler, records = _sampler()
        first = _FakeController(index=0)
        second = _FakeController(index=1)
        sampler.attach(first)
        sampler.attach(second)
        first.refresh.fire(0, 100)
        second.refresh.fire(0, 100)
        first.refresh.fire(1, 200)
        assert [(r["sc"], r["tick"]) for r in records] == \
            [(0, 0), (1, 0), (0, 1)]
        assert sampler.ticks == 3


class TestJournalEmission:
    def test_each_tick_writes_a_sample_record(self):
        journal = RunJournal()
        sampler = TimelineSampler(sample_every_refi=1, journal=journal)
        controller = _FakeController()
        sampler.attach(controller)
        controller.refresh.fire(0, 100)
        controller.refresh.fire(1, 200)
        assert journal.kinds() == {"sample": 2}
        record = journal.records[0]
        assert record["sc"] == 0 and record["t_ps"] == 100
        assert set(record) >= {"acts", "hits", "drfm", "rlp",
                               "open_banks", "queue_depth"}

    def test_tick_without_a_journal_still_counts(self):
        sampler = TimelineSampler(sample_every_refi=1)
        controller = _FakeController()
        sampler.attach(controller)
        record = sampler.tick(0, ref_index=7, time_ps=999)
        assert record["kind"] == "sample"
        assert (record["ref"], record["t_ps"]) == (7, 999)
        assert sampler.ticks == 1
