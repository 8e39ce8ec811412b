"""ABACuS: All-Bank Activation Counters [Olgun+, USENIX Security'24].

ABACuS keeps **one counter per RowID, shared by all banks** of a
sub-channel (the paper's Section 5.8 treats this as equivalent to
DREAM-C's set-associative grouping).  To stop streaming workloads — whose
page stripes activate the same RowID in every bank back-to-back — from
inflating the shared counter 32x, each entry carries a *Sibling
Activation Vector* (SAV): one bit per bank.

Counter-update rule per activation of (bank, row):

* SAV bit for the bank clear  -> set the bit, skip the counter increment;
* SAV bit already set         -> increment the counter and restart the
  SAV round (clear all bits, set this bank's bit).

When the counter reaches the tracker threshold, the RowID is mitigated in
**all** banks (one gang round: explicit sampling into every DAR followed
by a DRFMab), and the entry resets.  The SAV costs 32 extra bits per
entry — 5.33x the 6-bit counter at T_RH=125 — which is exactly the
storage overhead Figure 17 compares against DREAM-C.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dram.commands import Command
from repro.exec.spec import spec_factory
from repro.mc.policy import (MitigationPolicy, PolicyContext,
                             PolicyFactory)
from repro.trackers.base import (CounterTracker, MitigationDemand,
                                 tracker_threshold)

#: Row-address space of the full-size system (128K rows -> 17 bits).
FULL_SIZE_ROW_COUNT = 128 * 1024


def counter_bits_for_threshold(t_rh: int) -> int:
    """Bits needed for an ABACuS activation counter (6 bits at T=125)."""
    return max(1, math.ceil(math.log2(tracker_threshold(t_rh) + 1)))


def storage_bits_per_subchannel(t_rh: int, num_banks: int = 32,
                                rows: int = FULL_SIZE_ROW_COUNT) -> int:
    """Total ABACuS table bits for one sub-channel.

    One entry per RowID, each holding a counter plus an SAV of
    ``num_banks`` bits.  ABACuS keeps all ``rows`` entries regardless of
    threshold, which is why its storage stays high at higher thresholds
    (Section 5.8).
    """
    entry_bits = counter_bits_for_threshold(t_rh) + num_banks
    return rows * entry_bits


def storage_kb_per_bank(t_rh: int, num_banks: int = 32,
                        rows: int = FULL_SIZE_ROW_COUNT) -> float:
    """ABACuS storage per bank in KiB (~19 KB/bank at T_RH=125)."""
    total_bits = storage_bits_per_subchannel(t_rh, num_banks, rows)
    return total_bits / 8.0 / 1024.0 / num_banks


class AbacusTable(CounterTracker):
    """The shared counter + SAV table for one sub-channel."""

    def __init__(self, rows: int, num_banks: int, threshold: int) -> None:
        if min(rows, num_banks, threshold) < 1:
            raise ValueError("rows, num_banks and threshold must be positive")
        self.rows = rows
        self.num_banks = num_banks
        self.threshold = threshold
        self.counters = np.zeros(rows, dtype=np.int32)
        self.sav = np.zeros(rows, dtype=np.int64)  # bitmask per entry
        self.sav_filtered = 0

    def observe(self, bank: int, row: int) -> list[MitigationDemand]:
        bit = 1 << bank
        if not self.sav[row] & bit:
            self.sav[row] |= bit
            self.sav_filtered += 1
            return []
        self.counters[row] += 1
        self.sav[row] = bit
        if self.counters[row] < self.threshold:
            return []
        self.counters[row] = 0
        self.sav[row] = 0
        return [MitigationDemand(bank=b, row=row)
                for b in range(self.num_banks)]

    def reset(self) -> None:
        self.counters[:] = 0
        self.sav[:] = 0

    def storage_bits(self) -> int:
        counter_bits = max(1, math.ceil(math.log2(self.threshold + 1)))
        return self.rows * (counter_bits + self.num_banks)


class AbacusPolicy(MitigationPolicy):
    """MC-side ABACuS with DRFMab gang mitigation.

    A triggered RowID is mitigated in every bank of the sub-channel with
    one explicit-sampling round followed by a DRFMab command — the same
    mitigation machinery DREAM-C uses, so Figure 17 compares trackers on
    equal mitigation footing.
    """

    def __init__(self, context: PolicyContext, t_rh: int) -> None:
        super().__init__()
        self.t_rh = t_rh
        self.threshold = tracker_threshold(t_rh)
        self.table = AbacusTable(context.rows_per_bank, context.num_banks,
                                 self.threshold)
        self._window_ps = context.timing.t_refw
        self._next_reset_ps = self._window_ps
        self.name = "abacus"

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        if now_ps >= self._next_reset_ps:
            self.table.reset()
            self._next_reset_ps += self._window_ps
        demands = self.table.observe(bank, row)
        if demands:
            self.stats.selections += 1
            ready = now_ps
            for demand in demands:
                ready = max(ready, self.port.explicit_sample(
                    demand.bank, demand.row, now_ps))
            self.port.issue(Command.DRFM_AB, bank, ready)
        return False

    def summary(self) -> dict[str, float]:
        data = super().summary()
        data["sav_filtered"] = self.table.sav_filtered
        return data


@spec_factory
def abacus_factory(t_rh: int) -> PolicyFactory:
    """Factory for :class:`AbacusPolicy` (Figure 17 configurations)."""
    return lambda context: AbacusPolicy(context, t_rh)
