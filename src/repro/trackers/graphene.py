"""Graphene: Misra-Gries frequent-row tracking [Park+, MICRO'20].

Graphene keeps, per bank, a Misra-Gries summary that provably identifies
every row receiving more than the tracker threshold of activations within
a refresh window.  A row is mitigated whenever its estimated count crosses
a multiple of the tracker threshold, so even a row that keeps hammering
receives a mitigation every ``T_TH`` activations.

Storage follows the paper's Table 1: the table needs one entry per
``T_TH`` activations that can occur in a refresh window per bank
(about 600K at full size), and each entry is a CAM tag (17-bit row), a
valid bit, and a counter — so storage doubles every time the threshold is
halved, and lookups require a large CAM (the complexity DREAM-C avoids).
"""

from __future__ import annotations

import math

from repro.exec.spec import spec_factory
from repro.mc.policy import (MitigationPolicy, PolicyContext,
                             PolicyFactory)
from repro.dram.commands import Command
from repro.trackers.base import (CounterTracker, MitigationDemand,
                                 tracker_threshold)

#: Maximum activations a single bank can receive in a full 32 ms refresh
#: window (tREFW / tRC, rounded as in the paper's footnote: ~600K).
FULL_WINDOW_ACTS_PER_BANK = 600_000

#: Row-address width used for storage accounting (128K rows -> 17 bits).
ROW_ADDRESS_BITS = 17


def entries_for_threshold(t_rh: int,
                          acts_per_window: int = FULL_WINDOW_ACTS_PER_BANK
                          ) -> int:
    """Misra-Gries entries required per bank for a given ``t_rh``.

    ``ceil(acts_per_window / T_TH)`` entries guarantee no row can exceed
    the tracker threshold untracked.  Reproduces Table 1: 1200 / 2400 /
    4800 entries at thresholds 1000 / 500 / 250.
    """
    return math.ceil(acts_per_window / tracker_threshold(t_rh))


def storage_bits_per_bank(t_rh: int,
                          acts_per_window: int = FULL_WINDOW_ACTS_PER_BANK
                          ) -> int:
    """Graphene CAM bits per bank (Table 1 / Table 6 storage column)."""
    entries = entries_for_threshold(t_rh, acts_per_window)
    counter_bits = math.ceil(math.log2(tracker_threshold(t_rh))) + 1
    entry_bits = ROW_ADDRESS_BITS + 1 + counter_bits
    return entries * entry_bits


def storage_kb_per_bank(t_rh: int) -> float:
    """Graphene storage per bank in KiB at full system size."""
    return storage_bits_per_bank(t_rh) / 8.0 / 1024.0


class MisraGriesTable(CounterTracker):
    """Per-bank Misra-Gries summary with a spill counter.

    ``observe`` implements the classic algorithm: hits increment their
    entry; misses fill a free entry at ``spill + 1``; with no free entry
    the spill counter absorbs the activation (which is safe because the
    entry count is sized so the spill can never reach the threshold
    within a window).  A mitigation demand fires each time an entry
    crosses a fresh multiple of the tracker threshold.
    """

    def __init__(self, bank: int, entries: int, threshold: int) -> None:
        if entries < 1 or threshold < 1:
            raise ValueError("entries and threshold must be positive")
        self.bank = bank
        self.entries = entries
        self.threshold = threshold
        self.counts: dict[int, int] = {}
        self.mitigation_marks: dict[int, int] = {}
        self.spill = 0

    def observe(self, bank: int, row: int) -> list[MitigationDemand]:
        if bank != self.bank:
            raise ValueError(f"table for bank {self.bank} observed bank "
                             f"{bank}")
        if row in self.counts:
            self.counts[row] += 1
        elif len(self.counts) < self.entries:
            self.counts[row] = self.spill + 1
            self.mitigation_marks[row] = (self.spill + 1) // self.threshold
        else:
            # Graphene's replacement rule: if some entry has sunk to the
            # spill level, swap it for the new row at spill + 1; otherwise
            # the spill counter absorbs the activation.
            victim = min(self.counts, key=self.counts.__getitem__)
            if self.counts[victim] <= self.spill:
                del self.counts[victim]
                self.mitigation_marks.pop(victim, None)
                self.counts[row] = self.spill + 1
                self.mitigation_marks[row] = \
                    (self.spill + 1) // self.threshold
            else:
                self.spill += 1
                return []
        crossed = self.counts[row] // self.threshold
        if crossed > self.mitigation_marks.get(row, 0):
            self.mitigation_marks[row] = crossed
            return [MitigationDemand(bank=bank, row=row)]
        return []

    def reset(self) -> None:
        self.counts.clear()
        self.mitigation_marks.clear()
        self.spill = 0

    def storage_bits(self) -> int:
        counter_bits = math.ceil(math.log2(self.threshold)) + 1
        return self.entries * (ROW_ADDRESS_BITS + 1 + counter_bits)

    def estimated_count(self, row: int) -> int:
        """Misra-Gries count estimate for ``row`` (>= true count - spill)."""
        return self.counts.get(row, self.spill)


class GraphenePolicy(MitigationPolicy):
    """MC-side Graphene: per-bank Misra-Gries tables + DRFM mitigation.

    Mitigations are rare for benign workloads (counters rarely reach the
    threshold), which is why Graphene's slowdown is ~0% with any
    mitigation command (Section 2.8) — its cost is storage, not time.
    """

    def __init__(self, context: PolicyContext, t_rh: int,
                 command: Command = Command.DRFM_SB) -> None:
        super().__init__()
        self.t_rh = t_rh
        self.command = command
        self.threshold = tracker_threshold(t_rh)
        window_ps = context.timing.t_refw
        acts_per_window = max(1, window_ps // context.timing.t_rc)
        self.entries = math.ceil(acts_per_window / self.threshold)
        self.tables = [
            MisraGriesTable(bank, self.entries, self.threshold)
            for bank in range(context.num_banks)
        ]
        self._window_ps = window_ps
        self._next_reset_ps = window_ps
        self.name = f"graphene-{command.value.lower()}"

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        if now_ps >= self._next_reset_ps:
            for table in self.tables:
                table.reset()
            self._next_reset_ps += self._window_ps
        for demand in self.tables[bank].observe(bank, row):
            self.stats.selections += 1
            self._mitigate(demand, now_ps)
        return False

    def _mitigate(self, demand: MitigationDemand, now_ps: int) -> None:
        if self.command is Command.NRR:
            self.port.issue(Command.NRR, demand.bank, now_ps,
                            row=demand.row)
        else:
            ready = self.port.explicit_sample(demand.bank, demand.row,
                                              now_ps)
            self.port.issue(self.command, demand.bank, ready)

    def storage_bits_per_bank(self) -> int:
        """Scaled-system storage of one per-bank table."""
        return self.tables[0].storage_bits()


@spec_factory
def graphene_factory(t_rh: int,
                     command: Command = Command.DRFM_SB) -> PolicyFactory:
    """Factory for :class:`GraphenePolicy`."""
    return lambda context: GraphenePolicy(context, t_rh, command)
