"""In-DRAM MINT: mitigation that cannibalises REF (Section 8, point 3).

MINT was originally an in-DRAM tracker: the DRAM samples one activation
per window and performs the victim refresh *inside a REF operation*
(stealing 240 of tRFC's 410 ns).  The catch the paper points out: DRAM
vendors typically budget only one aggressor-row mitigation every 4-8 REF
commands, so the effective MINT window is however many activations a
bank can receive in that many tREFI:

    W_eff  = acts_per_tREFI * refs_per_mitigation   (75 * 4..8)
    T_RH   = 20 * W_eff                             (~6K .. ~12K)

— 3-6x worse than the T_RH = 2K-class thresholds the MC-side designs
reach, and entirely hostage to how much REF time vendors can spare as
DRAM reliability degrades.  This module provides both the analytic
threshold and a runnable policy, so the claim is measurable
(tests/test_indram_mint.py hammers it next to MC-side MINT).
"""

from __future__ import annotations

from repro.core.rmaq import MAX_ACTS_PER_TREFI
from repro.dram.commands import Command
from repro.exec.spec import spec_factory
from repro.mc.policy import MitigationPolicy, PolicyContext, PolicyFactory
from repro.trackers.mint import THRESHOLD_PER_WINDOW


def effective_window(refs_per_mitigation: int,
                     acts_per_trefi: int = MAX_ACTS_PER_TREFI) -> int:
    """Activations between in-DRAM mitigation opportunities."""
    if refs_per_mitigation < 1:
        raise ValueError("refs_per_mitigation must be positive")
    return acts_per_trefi * refs_per_mitigation


def indram_mint_threshold(refs_per_mitigation: int,
                          acts_per_trefi: int = MAX_ACTS_PER_TREFI) -> int:
    """Double-sided T_RH tolerated by REF-stealing in-DRAM MINT.

    Reproduces the paper's Section 8 numbers: ~6K at one mitigation per
    4 REF, ~12K at one per 8.
    """
    return THRESHOLD_PER_WINDOW * effective_window(refs_per_mitigation,
                                                   acts_per_trefi)


class InDramMintPolicy(MitigationPolicy):
    """MINT with mitigation only at its REF-slot opportunities.

    Each bank runs a MINT window spanning all activations between two
    mitigation opportunities (every ``refs_per_mitigation`` tREFI); the
    selected row is mitigated at the opportunity.  The victim refresh
    itself hides inside tRFC, so — like the TRR model — the NRR issued
    here for bookkeeping slightly overstates the (zero) performance
    cost; the policy exists for security comparisons.
    """

    def __init__(self, context: PolicyContext,
                 refs_per_mitigation: int = 4) -> None:
        super().__init__()
        self.refs_per_mitigation = refs_per_mitigation
        self.window = effective_window(refs_per_mitigation)
        self._rng = context.rng()
        # Reservoir sampling per bank: the MINT window is "whatever
        # activations arrive between two opportunities", so a uniform
        # pick over a variable-length window is the faithful model.
        self._counts = [0] * context.num_banks
        self._selected: list[int | None] = [None] * context.num_banks
        self._period_ps = context.timing.t_refi * refs_per_mitigation
        self._next_opportunity = [self._period_ps] * context.num_banks
        self.name = f"indram-mint-{refs_per_mitigation}ref"

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        if now_ps >= self._next_opportunity[bank]:
            while now_ps >= self._next_opportunity[bank]:
                self._next_opportunity[bank] += self._period_ps
            selected = self._selected[bank]
            self._selected[bank] = None
            self._counts[bank] = 0
            if selected is not None:
                self.stats.selections += 1
                self.port.issue(Command.NRR, bank, now_ps, row=selected)
        self._counts[bank] += 1
        if self._rng.random() < 1.0 / self._counts[bank]:
            self._selected[bank] = row
        return False


@spec_factory
def indram_mint_factory(refs_per_mitigation: int = 4) -> PolicyFactory:
    """Factory for :class:`InDramMintPolicy` (Section 8 comparisons)."""
    return lambda context: InDramMintPolicy(context, refs_per_mitigation)
