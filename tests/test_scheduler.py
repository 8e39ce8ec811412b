"""Unit tests for the queued FCFS / FR-FCFS scheduler substrate."""

import numpy as np
import pytest

from repro.dram.subchannel import SubChannel
from repro.mc.controller import SubChannelController
from repro.mc.scheduler import (QueuedRequest, QueuedScheduler,
                                SchedulingPolicy)


def make_scheduler(timing, organization, policy, reorder_window=16):
    subchannel = SubChannel(0, timing, organization.banks,
                            organization.banks_per_group)
    controller = SubChannelController(subchannel, timing, None)
    return QueuedScheduler(controller, policy, reorder_window)


def request(arrival, bank, row, tag=0):
    return QueuedRequest(arrival_ps=arrival, bank=bank, row=row, tag=tag)


class ReferenceScheduler(QueuedScheduler):
    """The original rule, kept as the reference: the queue in enqueue
    order, filtered and sorted on every step."""

    def enqueue(self, request):
        self.queue.append(request)

    def _arrived(self):
        arrived = [r for r in self.queue if r.arrival_ps <= self.now_ps]
        arrived.sort(key=lambda r: r.arrival_ps)
        return arrived[:self.reorder_window]

    def step(self):
        if not self.queue:
            return None
        candidates = self._arrived()
        if not candidates:
            pending = min(r.arrival_ps for r in self.queue)
            self.now_ps = max(self.now_ps, pending)
            candidates = self._arrived()
        chosen = candidates[0]
        if self.policy is SchedulingPolicy.FR_FCFS:
            banks = self.controller.subchannel.banks
            for candidate in candidates:
                if banks[candidate.bank].open_row == candidate.row:
                    if candidate is not candidates[0]:
                        self.stats.reorders += 1
                    self.stats.row_hit_issues += 1
                    chosen = candidate
                    break
        self.queue.remove(chosen)
        chosen.issued_ps = self.now_ps
        chosen.finish_ps = self.controller.service(chosen.bank, chosen.row,
                                                   self.now_ps)
        self.now_ps = max(self.now_ps,
                          chosen.finish_ps - self.controller.timing.t_bus)
        self.stats.issued += 1
        self.stats.total_latency_ps += chosen.latency_ps
        return chosen


class TestMatchesReferenceRule:
    @pytest.mark.parametrize("policy", list(SchedulingPolicy))
    @pytest.mark.parametrize("seed,window", [(0, 1), (1, 4), (2, 16),
                                             (3, 16)])
    def test_random_arrivals_with_ties(self, timing, organization, policy,
                                       seed, window):
        rng = np.random.default_rng(seed)
        count = 400
        # Few distinct arrival times, banks and rows: many ties, many
        # equal requests, and enqueue order unrelated to arrival.
        arrivals = rng.integers(0, 40, count) * 5_000
        banks = rng.integers(0, 3, count)
        rows = rng.integers(0, 4, count)
        schedulers = [cls(SubChannelController(
                          SubChannel(0, timing, organization.banks,
                                     organization.banks_per_group),
                          timing, None), policy, window)
                      for cls in (QueuedScheduler, ReferenceScheduler)]
        issued = []
        for scheduler in schedulers:
            for i in range(count):
                scheduler.enqueue(request(int(arrivals[i]), int(banks[i]),
                                          int(rows[i]),
                                          tag=i % 7))
            issued.append([(r.arrival_ps, r.bank, r.row, r.tag,
                            r.issued_ps, r.finish_ps)
                           for r in scheduler.run()])
        fast, reference = schedulers
        assert issued[0] == issued[1]
        assert fast.stats == reference.stats
        assert fast.now_ps == reference.now_ps


class TestFCFS:
    def test_issues_in_arrival_order(self, timing, organization):
        scheduler = make_scheduler(timing, organization,
                                   SchedulingPolicy.FCFS)
        for i in range(5):
            scheduler.enqueue(request(i * 10, bank=i % 2, row=i, tag=i))
        finished = scheduler.run()
        assert [r.tag for r in finished] == [0, 1, 2, 3, 4]
        assert scheduler.stats.reorders == 0

    def test_latency_accounting(self, timing, organization):
        scheduler = make_scheduler(timing, organization,
                                   SchedulingPolicy.FCFS)
        scheduler.enqueue(request(0, 0, 5))
        finished = scheduler.run()
        assert finished[0].latency_ps >= timing.t_rcd + timing.t_cl
        assert scheduler.stats.average_latency_ps == \
            finished[0].latency_ps

    def test_waits_for_future_arrivals(self, timing, organization):
        scheduler = make_scheduler(timing, organization,
                                   SchedulingPolicy.FCFS)
        scheduler.enqueue(request(10 ** 6, 0, 5))
        finished = scheduler.run()
        assert finished[0].issued_ps >= 10 ** 6


class TestFRFCFS:
    def test_prefers_row_hits(self, timing, organization):
        scheduler = make_scheduler(timing, organization,
                                   SchedulingPolicy.FR_FCFS)
        # Open row 5 in bank 0, then enqueue a conflict followed by a hit.
        scheduler.controller.service(0, 5, 0)
        scheduler.now_ps = 10 ** 6
        scheduler.enqueue(request(0, 0, 6, tag="conflict"))
        scheduler.enqueue(request(1, 0, 5, tag="hit"))
        finished = scheduler.run()
        assert [r.tag for r in finished] == ["hit", "conflict"]
        assert scheduler.stats.reorders == 1

    def test_falls_back_to_oldest(self, timing, organization):
        scheduler = make_scheduler(timing, organization,
                                   SchedulingPolicy.FR_FCFS)
        scheduler.enqueue(request(0, 0, 6, tag="old"))
        scheduler.enqueue(request(1, 0, 7, tag="new"))
        finished = scheduler.run()
        assert finished[0].tag == "old"

    def test_reorder_window_caps_lookahead(self, timing, organization):
        scheduler = make_scheduler(timing, organization,
                                   SchedulingPolicy.FR_FCFS,
                                   reorder_window=2)
        scheduler.controller.service(0, 5, 0)
        scheduler.now_ps = 10 ** 6
        # The row hit sits outside the 2-entry window.
        scheduler.enqueue(request(0, 0, 6, tag="a"))
        scheduler.enqueue(request(1, 0, 7, tag="b"))
        scheduler.enqueue(request(2, 0, 5, tag="hit"))
        finished = scheduler.run()
        assert finished[0].tag == "a"

    def test_frfcfs_improves_hit_rate_on_locality(self, timing,
                                                  organization):
        # Interleaved streams to two rows of the same bank: FCFS
        # ping-pongs (all conflicts); FR-FCFS batches the hits.
        def load(scheduler):
            for i in range(40):
                scheduler.enqueue(request(i, 0, row=5 + (i % 2)))
            scheduler.run()
            bank = scheduler.controller.subchannel.banks[0]
            return bank.stats.row_hits

        fcfs_hits = load(make_scheduler(timing, organization,
                                        SchedulingPolicy.FCFS))
        fr_hits = load(make_scheduler(timing, organization,
                                      SchedulingPolicy.FR_FCFS))
        assert fr_hits > fcfs_hits

    def test_frfcfs_lowers_average_latency(self, timing, organization):
        def latency(policy):
            scheduler = make_scheduler(timing, organization, policy)
            for i in range(40):
                scheduler.enqueue(request(i, 0, row=5 + (i % 2)))
            scheduler.run()
            return scheduler.stats.average_latency_ps

        assert latency(SchedulingPolicy.FR_FCFS) < \
            latency(SchedulingPolicy.FCFS)


class TestValidation:
    def test_rejects_bad_window(self, timing, organization):
        with pytest.raises(ValueError):
            make_scheduler(timing, organization, SchedulingPolicy.FCFS,
                           reorder_window=0)

    def test_latency_before_finish_raises(self):
        with pytest.raises(RuntimeError):
            _ = request(0, 0, 0).latency_ps

    def test_step_on_empty_returns_none(self, timing, organization):
        scheduler = make_scheduler(timing, organization,
                                   SchedulingPolicy.FCFS)
        assert scheduler.step() is None
