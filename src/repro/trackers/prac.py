"""PRAC / MOAT: Per-Row Activation Counting with Alert-Back-Off.

JEDEC's PRAC framework stores an activation counter alongside every DRAM
row; the counter is read-modified-written during precharge, which extends
tRP from 14 ns to 36 ns.  That timing extension is PRAC's *intrinsic*
slowdown — it applies to every row-buffer miss, mitigation or not, and
the paper measures it at ~9.7% regardless of threshold.

MOAT [Qureshi & Qazi, ASPLOS'25] is the secure PRAC policy the paper
implements: when any row's counter reaches the alert threshold (ATH), the
DRAM raises **Alert-Back-Off** (ABO); the MC stops issuing commands while
the DRAM mitigates the aggressor, then the counter resets.  For benign
workloads ABO essentially never fires (the *extrinsic* slowdown is
negligible) — the intrinsic timing tax dominates, which is exactly what
Figure 19 shows.

In this reproduction the intrinsic part is modelled by running the system
with :meth:`repro.dram.timing.DDR5Timing.prac` timings; this module
provides the counter/ABO machinery for the extrinsic part.
"""

from __future__ import annotations

from repro.dram.commands import Command
from repro.exec.spec import spec_factory
from repro.dram.timing import ns
from repro.mc.policy import (MitigationPolicy, PolicyContext,
                             PolicyFactory)
from repro.trackers.base import tracker_threshold

#: MC stall for one ABO mitigation episode (RFM-like recovery, ~350 ns).
DEFAULT_ABO_STALL_PS = ns(350)


class PracCounters:
    """Per-row activation counters for one sub-channel (in-DRAM state)."""

    def __init__(self, num_banks: int, alert_threshold: int) -> None:
        if alert_threshold < 1:
            raise ValueError("alert_threshold must be positive")
        self.alert_threshold = alert_threshold
        self.counts: list[dict[int, int]] = [dict() for _ in range(num_banks)]
        self.alerts = 0

    def record(self, bank: int, row: int) -> bool:
        """Count one activation; returns ``True`` when ABO must fire."""
        counts = self.counts[bank]
        value = counts.get(row, 0) + 1
        if value >= self.alert_threshold:
            # The ABO recovery mitigates the row and resets its counter.
            counts[row] = 0
            self.alerts += 1
            return True
        counts[row] = value
        return False

    def reset(self) -> None:
        """Refresh-window reset (each row's counter clears at its REF)."""
        for counts in self.counts:
            counts.clear()

    def max_count(self) -> int:
        """Highest live counter value (used by security tests)."""
        return max((max(c.values()) for c in self.counts if c), default=0)


class MoatPolicy(MitigationPolicy):
    """MOAT's extrinsic machinery: per-row counters + ABO stalls.

    Must be run on a system configured with PRAC timings
    (:meth:`repro.sim.config.SystemConfig.prac`) so the intrinsic slowdown
    is also present.  An ABO blocks the entire sub-channel for
    ``abo_stall_ps`` while the in-DRAM mitigation completes.
    """

    def __init__(self, context: PolicyContext, t_rh: int,
                 abo_stall_ps: int = DEFAULT_ABO_STALL_PS) -> None:
        super().__init__()
        self.t_rh = t_rh
        self.alert_threshold = tracker_threshold(t_rh)
        self.counters = PracCounters(context.num_banks, self.alert_threshold)
        self.abo_stall_ps = abo_stall_ps
        self._window_ps = context.timing.t_refw
        self._next_reset_ps = self._window_ps
        self._num_banks = context.num_banks
        self.name = "prac-moat"

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        if now_ps >= self._next_reset_ps:
            self.counters.reset()
            self._next_reset_ps += self._window_ps
        if self.counters.record(bank, row):
            self.stats.selections += 1
            # ABO: the in-DRAM mitigation stalls the whole sub-channel.
            # Modelled as a DRFMab-footprint block of abo_stall_ps via the
            # port's blocking primitive (NRR row is the alerted row for
            # bookkeeping; the DRAM mitigates internally).
            self.port.issue(Command.NRR, bank, now_ps, row=row)
            self._stall_subchannel(now_ps)
        return False

    def _stall_subchannel(self, now_ps: int) -> None:
        until = now_ps + self.abo_stall_ps
        for bank_index in range(self._num_banks):
            self.port.block_bank(bank_index, until)

    def summary(self) -> dict[str, float]:
        data = super().summary()
        data["abo_alerts"] = self.counters.alerts
        return data


@spec_factory
def moat_factory(t_rh: int,
                 abo_stall_ps: int = DEFAULT_ABO_STALL_PS) -> PolicyFactory:
    """Factory for :class:`MoatPolicy` (Figure 19 PRAC configurations)."""
    return lambda context: MoatPolicy(context, t_rh, abo_stall_ps)
