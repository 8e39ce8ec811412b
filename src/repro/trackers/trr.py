"""In-DRAM Target Row Refresh (TRR) — the broken incumbent.

The paper's motivation (Sections 1-2): commercially deployed in-DRAM
trackers like TRR keep a *small* table of recently/frequently activated
rows and mitigate one of them when a REF arrives — and were broken by
TRRespass-style *many-sided* patterns that simply use more aggressor rows
than the tracker has entries, so the real aggressors keep getting evicted
before any REF can mitigate them.

This module models a representative sampler-based TRR: a table of
``entries`` rows maintained with frequency counts and eviction, one
victim refresh per REF opportunity.  It exists to *demonstrate the
bypass* (see ``tests/test_trr.py`` and the attack-analysis example):
a double-sided pattern is caught, a (entries+1)-sided pattern sails
through — which is exactly why the paper pursues MC-side mitigation
with DRFM instead of trusting opaque in-DRAM schemes.
"""

from __future__ import annotations

from repro.exec.spec import spec_factory
from repro.mc.policy import MitigationPolicy, PolicyContext, PolicyFactory
from repro.dram.commands import Command

#: Entry counts observed in deployed TRR implementations are tiny;
#: TRRespass found effective table sizes around 1-16.
DEFAULT_TRR_ENTRIES = 4


class TRRSampler:
    """Per-bank frequency table of a sampler-based TRR."""

    def __init__(self, entries: int = DEFAULT_TRR_ENTRIES) -> None:
        if entries < 1:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.counts: dict[int, int] = {}

    def observe(self, row: int) -> None:
        """Record one activation, evicting the coldest row when full."""
        if row in self.counts:
            self.counts[row] += 1
            return
        if len(self.counts) >= self.entries:
            coldest = min(self.counts, key=self.counts.__getitem__)
            # TRRespass's key weakness: new aggressors evict tracked
            # ones before any REF can mitigate them.
            del self.counts[coldest]
        self.counts[row] = 1

    def pick_target(self) -> int | None:
        """Row the next REF would mitigate (hottest tracked row)."""
        if not self.counts:
            return None
        target = max(self.counts, key=self.counts.__getitem__)
        return target

    def consume_target(self) -> int | None:
        """Pop the hottest row for mitigation at REF time."""
        target = self.pick_target()
        if target is not None:
            del self.counts[target]
        return target


class TRRPolicy(MitigationPolicy):
    """In-DRAM TRR modelled at the MC boundary for comparison runs.

    One victim refresh happens per bank per tREFI (piggybacked on REF,
    so it adds **no performance cost** — TRR's selling point).  Security
    is the problem: the tiny per-bank table is trivially thrashed.
    """

    def __init__(self, context: PolicyContext,
                 entries: int = DEFAULT_TRR_ENTRIES) -> None:
        super().__init__()
        self.samplers = [TRRSampler(entries)
                         for _ in range(context.num_banks)]
        self._t_refi = context.timing.t_refi
        self._next_ref = [self._t_refi] * context.num_banks
        self.name = "trr"

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        if now_ps >= self._next_ref[bank]:
            # REF boundary: mitigate the tracked aggressor (free — the
            # victim refresh hides inside tRFC, so no command is issued
            # on the perf path; we use NRR bookkeeping with zero stall).
            while now_ps >= self._next_ref[bank]:
                self._next_ref[bank] += self._t_refi
            target = self.samplers[bank].consume_target()
            if target is not None:
                self.stats.selections += 1
                # Modelled as an NRR for mitigation bookkeeping; the
                # 240 ns stall slightly *overstates* TRR's cost (real
                # TRR hides inside tRFC), which is fine because this
                # policy is used for security demonstrations, not the
                # performance sweeps.
                self.port.issue(Command.NRR, bank, now_ps, row=target)
        self.samplers[bank].observe(row)
        return False


@spec_factory
def trr_factory(entries: int = DEFAULT_TRR_ENTRIES) -> PolicyFactory:
    """Factory for :class:`TRRPolicy` (motivation-section comparisons)."""
    return lambda context: TRRPolicy(context, entries)
