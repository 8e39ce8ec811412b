"""DREAM-R: delayed-DRFM mitigation for randomized trackers (Section 4).

The coupled baselines issue a DRFM immediately after sampling, so when
the command stalls 8 banks only ~1 of them has a valid DAR (RLP ~ 1).
DREAM-R **decouples** sampling from mitigation: a sampled row sits in the
DAR until the tracker selects a *second* row for the same bank, and only
then — because the DAR must be freed — is the DRFM issued.  The delay
gives the other banks of the DRFMsb group time to populate their own
DARs, so one command mitigates several rows (RLP 3.2 for PARA, 7.5 for
MINT) and the DRFM rate drops proportionally.

Two policies implement the paper's Listings 1 and 2:

* :class:`DreamRParaPolicy` — PARA with implicit sampling only.  The
  tracker check happens *before* the ACT; if the ACT is selected and the
  DAR is full, the DRFM goes out first, then the ACT, then Pre+Sample.
* :class:`DreamRMintPolicy` — MINT with both sampling modes.  A selected
  activation implicit-samples straight into a free DAR; if the DAR is
  busy the row is buffered in the per-bank **MC-SAR**.  At window end a
  pending MC-SAR forces the DRFMsb, after which the MC-SARs of all banks
  in the DRFMsb group are explicit-sampled into the freed DARs.

Both run with **ATM** (Section 4.4) by default, bounding the activations
a sampled row can absorb while waiting, and optionally with the **RMAQ**
rate-limit filter (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.atm import DEFAULT_ATM_THRESHOLD, ActiveTargetMonitor
from repro.core.rmaq import RecentMitigationQueue, capacity_for_window
from repro.core.security import (mint_window_with_atm,
                                 para_probability_with_atm)
from repro.dram.commands import Command
from repro.exec.spec import spec_factory
from repro.mc.policy import (MitigationPolicy, PolicyContext, PolicyFactory,
                             uniform_draws)


class DreamRParaPolicy(MitigationPolicy):
    """DREAM-R with PARA tracking (Listing 1): decoupled, implicit-only.

    Per activation (the tracker check runs before the ACT):

    1. not selected — the ACT proceeds; if a DAR is pending, this
       activation happens under the shadow of the delayed DRFM;
    2. selected, DAR free — ACT, then Pre+Sample into the DAR (no DRFM);
    3. selected, DAR full — DRFMsb first (freeing 8 DARs), then ACT and
       Pre+Sample.
    """

    def __init__(self, context: PolicyContext, t_rh: int,
                 atm_threshold: int = DEFAULT_ATM_THRESHOLD,
                 probability: float | None = None,
                 rmaq_capacity: int | None = None) -> None:
        super().__init__()
        if t_rh < 1:
            raise ValueError("t_rh must be positive")
        self.t_rh = t_rh
        self.probability = (probability if probability is not None
                            else para_probability_with_atm(t_rh,
                                                           atm_threshold))
        self._uniform = uniform_draws(context.rng()).__next__
        self.atm = ActiveTargetMonitor(context.num_banks, atm_threshold)
        self.rmaq: list[RecentMitigationQueue] | None = None
        if rmaq_capacity is not None:
            self.rmaq = [
                RecentMitigationQueue(rmaq_capacity, context.timing.t_refi)
                for _ in range(context.num_banks)
            ]
        self.name = "para-dream-r"

    def _issue_drfm(self, bank: int, now_ps: int) -> None:
        event = self.port.issue(Command.DRFM_SB, bank, now_ps)
        for mitigated_bank, row in event.mitigated_rows:
            self.atm.disarm(mitigated_bank)
            if self.rmaq is not None:
                # Refresh the rate-limit window from the *mitigation*
                # time: the JEDEC limit spaces victim refreshes, and the
                # delayed DRFM can land well after sampling.
                self.rmaq[mitigated_bank].insert(row, now_ps)

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        if self.atm.observe(bank, row):
            # The sampled row is being hammered while waiting: force the
            # DRFM now so its exposure stays capped at ATM-TH.
            self._issue_drfm(bank, now_ps)
        if self._uniform() >= self.probability:
            return False
        if self.rmaq is not None and self.rmaq[bank].contains(row, now_ps):
            self.stats.samples_skipped_rate_limit += 1
            return False
        self.stats.selections += 1
        if self.port.dar(bank).valid:
            self._issue_drfm(bank, now_ps)
        return True

    def on_sampled(self, bank: int, row: int, now_ps: int) -> None:
        self.atm.arm(bank, row)
        if self.rmaq is not None:
            self.rmaq[bank].insert(row, now_ps)

    def summary(self) -> dict[str, float]:
        data = super().summary()
        data["atm_triggers"] = self.atm.triggers
        data["rmaq_skips"] = self.stats.samples_skipped_rate_limit
        return data


@dataclass
class _MintBankState:
    """Per-bank MINT window state for DREAM-R."""

    can: int = 0
    san: int = 0
    mc_sar: int | None = None


class DreamRMintPolicy(MitigationPolicy):
    """DREAM-R with MINT tracking (Listing 2): decoupled, dual sampling.

    Selections within a window implicit-sample into a free DAR (sampling
    itself creates no timing channel); with a busy DAR the selected row
    waits in the per-bank MC-SAR.  At the end of a window with a pending
    MC-SAR, the bank issues the DRFMsb (mitigating all valid DARs of its
    bank group) and then explicit-samples every pending MC-SAR of the
    group into the freed DARs.  Because all banks of a group see similar
    activation rates, their windows expire nearly together and the DRFM
    almost always finds 8 valid DARs — the RLP ~ 7.5 of Table 5.
    """

    def __init__(self, context: PolicyContext, t_rh: int,
                 atm_threshold: int = DEFAULT_ATM_THRESHOLD,
                 window: int | None = None,
                 rate_limited: bool = False) -> None:
        super().__init__()
        self.t_rh = t_rh
        self.window = window if window is not None else \
            mint_window_with_atm(t_rh, atm_threshold)
        self._rng = context.rng()
        self._num_banks = context.num_banks
        self._banks_per_group = context.banks_per_group
        self.states = [
            _MintBankState(san=int(self._rng.integers(self.window)))
            for _ in range(context.num_banks)
        ]
        self.atm = ActiveTargetMonitor(context.num_banks, atm_threshold)
        self.rmaq: list[RecentMitigationQueue] | None = None
        if rate_limited:
            capacity = capacity_for_window(self.window)
            self.rmaq = [
                RecentMitigationQueue(capacity, context.timing.t_refi)
                for _ in range(context.num_banks)
            ]
        self.name = "mint-dream-r"

    def _group_banks(self, bank: int) -> range:
        position = bank % self._banks_per_group
        return range(position, self._num_banks, self._banks_per_group)

    def _drain_group(self, bank: int, now_ps: int) -> None:
        """DRFMsb for ``bank``'s group, then explicit-sample its MC-SARs."""
        event = self.port.issue(Command.DRFM_SB, bank, now_ps)
        for mitigated_bank, row in event.mitigated_rows:
            self.atm.disarm(mitigated_bank)
            if self.rmaq is not None:
                # Rate-limit horizon restarts at the mitigation itself.
                self.rmaq[mitigated_bank].insert(row, now_ps)
        for member in self._group_banks(bank):
            state = self.states[member]
            if state.mc_sar is None:
                continue
            self.port.explicit_sample(member, state.mc_sar, now_ps)
            self.atm.arm(member, state.mc_sar)
            if self.rmaq is not None:
                self.rmaq[member].insert(state.mc_sar, now_ps)
            state.mc_sar = None

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        state = self.states[bank]
        if self.atm.observe(bank, row):
            self._drain_group(bank, now_ps)
        if state.can >= self.window:
            # Window end: a pending MC-SAR forces the delayed DRFM.
            state.can = 0
            state.san = int(self._rng.integers(self.window))
            if state.mc_sar is not None:
                self._drain_group(bank, now_ps)
        sample_after = False
        if state.can == state.san:
            if self.rmaq is not None and \
                    self.rmaq[bank].contains(row, now_ps):
                self.stats.samples_skipped_rate_limit += 1
            else:
                self.stats.selections += 1
                if not self.port.dar(bank).valid:
                    sample_after = True  # implicit sampling
                else:
                    state.mc_sar = row
                    self.atm.arm(bank, row)
        state.can += 1
        return sample_after

    def on_sampled(self, bank: int, row: int, now_ps: int) -> None:
        self.atm.arm(bank, row)
        if self.rmaq is not None:
            self.rmaq[bank].insert(row, now_ps)

    def summary(self) -> dict[str, float]:
        data = super().summary()
        data["atm_triggers"] = self.atm.triggers
        data["rmaq_skips"] = self.stats.samples_skipped_rate_limit
        return data


@spec_factory
def dream_r_para_factory(t_rh: int,
                         atm_threshold: int = DEFAULT_ATM_THRESHOLD,
                         rmaq_capacity: int | None = None) -> PolicyFactory:
    """Factory for :class:`DreamRParaPolicy` (Figure 9 configurations)."""
    return lambda context: DreamRParaPolicy(
        context, t_rh, atm_threshold, rmaq_capacity=rmaq_capacity)


@spec_factory
def dream_r_mint_factory(t_rh: int,
                         atm_threshold: int = DEFAULT_ATM_THRESHOLD,
                         rate_limited: bool = False) -> PolicyFactory:
    """Factory for :class:`DreamRMintPolicy` (Figure 9/19 configurations)."""
    return lambda context: DreamRMintPolicy(
        context, t_rh, atm_threshold, rate_limited=rate_limited)
