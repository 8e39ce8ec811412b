"""DREAM-C: gang-tracking counter tracker using DRFMab RLP (Section 5).

DREAM-C exploits the fact that a single DRFMab mitigates one row in every
bank: it shares **one counter** across a gang of rows (one per bank, or
``V`` per bank with vertical sharing) that are always mitigated together,
cutting tracker SRAM by 32-256x versus per-row counting.

The two grouping functions of Section 5.2 are both implemented:

* **set-associative** — gang = the same RowID in every bank.  Because
  MOP stripes a hot page over all banks at the same RowID, hot pages
  create hot counters and frequent DRFMabs (the 14.4% slowdown of
  Figure 15 top).
* **randomized** — each bank contributes the row whose ID XORs (with a
  per-bank boot-time random mask) to the gang index.  Hot rows of
  different banks land in different gangs, the expected gang count stays
  near the sum of ~32 *random* rows (< 32 per window for the paper's
  workloads), and DRFMabs become rare (2.6% at T_RH = 500).

Operation per ACT: index the DREAM-Counter-Table (DCT); below the
tracker threshold, increment; at the threshold, run ``V`` mitigation
rounds (explicit sampling of one gang row into every bank's DAR, then a
DRFMab) and restart the counter at 1.  The DCT is reset *staggered*: a
slice of entries clears at each REF so the mitigation load never bunches
at window boundaries (Section 5.4).  The DCT and the gang masks are
lists of Python ints, which the per-ACT path indexes directly.

The **DREAM-C (2x storage)** variants of Figure 17 and Appendix C double
the DCT by splitting the banks into independent halves, each with its own
table — gangs shrink to one row per bank of the half, halving the number
of benign rows that share (and heat) a counter.
"""

from __future__ import annotations

import numpy as np

from repro.core.rmaq import RecentMitigationQueue
from repro.core.storage import DreamCConfig, dream_c_config
from repro.dram.commands import Command
from repro.exec.spec import spec_factory
from repro.mc.policy import MitigationPolicy, PolicyContext, PolicyFactory

#: Sub-channel-level RMAQ entries for DREAM-C (Section 6.3: at most
#: 9 DRFMab rounds fit in one tREFI, so 18 cover the 2*tREFI horizon).
DREAM_C_RMAQ_ENTRIES = 18


class GangMapper:
    """Row <-> gang mapping with per-bank (and per-slice) XOR masks.

    The row space of each bank is split into ``V`` slices of
    ``entries_per_group`` rows; slice ``j`` of bank ``b`` is permuted by
    ``masks[b][j]`` so that a gang contains row
    ``j * entries + (g XOR masks[b][j])`` of every bank in the gang's
    bank group — ``V`` rows per bank, a bijection overall.
    Set-associative grouping is the all-zero-mask special case.
    ``masks`` is a list (per bank) of lists of Python ints: the mapping
    runs once per activation, where numpy-scalar indexing costs more
    than the lookup itself.

    With ``bank_groups > 1`` (the 2x-storage variant) the banks split
    into independent groups, each owning a contiguous region of the DCT.
    """

    def __init__(self, config: DreamCConfig, randomized: bool,
                 rng: np.random.Generator, bank_groups: int = 1) -> None:
        if config.num_banks % bank_groups:
            raise ValueError("bank_groups must divide the bank count")
        entries = config.rows_per_bank // config.vertical
        if entries < 1:
            raise ValueError("vertical factor exceeds rows per bank")
        if entries & (entries - 1):
            raise ValueError("entries per group must be a power of two "
                             "for the XOR grouping function")
        self.config = config
        self.bank_groups = bank_groups
        self.banks_per_gang = config.num_banks // bank_groups
        self.entries = entries
        self.total_entries = entries * bank_groups
        self.slices = config.vertical
        self.randomized = randomized
        if randomized:
            self.masks: list[list[int]] = rng.integers(
                entries, size=(config.num_banks, self.slices),
                dtype=np.int64).tolist()
        else:
            self.masks = [[0] * self.slices
                          for _ in range(config.num_banks)]

    def group_of_bank(self, bank: int) -> int:
        """Bank-group index of ``bank``."""
        return bank // self.banks_per_gang

    def gang_of(self, bank: int, row: int) -> int:
        """DCT index of ``row`` in ``bank``."""
        entries = self.entries
        local = (row % entries) ^ self.masks[bank][row // entries]
        return bank // self.banks_per_gang * entries + local

    def gang_banks(self, gang: int) -> range:
        """Banks contributing rows to ``gang``."""
        group = gang // self.entries
        start = group * self.banks_per_gang
        return range(start, start + self.banks_per_gang)

    def rows_of(self, bank: int, gang: int) -> list[int]:
        """All rows of ``bank`` belonging to ``gang`` (one per slice)."""
        if self.group_of_bank(bank) != gang // self.entries:
            return []
        entries = self.entries
        local = gang % entries
        return [j * entries + (local ^ mask)
                for j, mask in enumerate(self.masks[bank])]

    def gang_rows_by_bank(self, gang: int) -> dict[int, list[int]]:
        """Full gang membership: bank -> rows (used by attacks/tests)."""
        return {bank: self.rows_of(bank, gang)
                for bank in self.gang_banks(gang)}

    @property
    def gang_size(self) -> int:
        """Rows per gang (32V at 1x storage, 16V at 2x)."""
        return self.banks_per_gang * self.slices


class DreamCPolicy(MitigationPolicy):
    """The DREAM-C mitigation policy for one sub-channel."""

    def __init__(self, context: PolicyContext, t_rh: int,
                 randomized: bool = True, storage_multiplier: int = 1,
                 rate_limited: bool = False,
                 vertical: int | None = None) -> None:
        super().__init__()
        if storage_multiplier < 1:
            raise ValueError("storage_multiplier must be positive")
        self.t_rh = t_rh
        self.config = dream_c_config(
            t_rh, rows_per_bank=context.rows_per_bank,
            num_banks=context.num_banks,
            storage_multiplier=storage_multiplier,
            vertical=vertical)
        self.mapper = GangMapper(self.config, randomized, context.rng(),
                                 bank_groups=storage_multiplier)
        self.threshold = self.config.tracker_threshold
        self.dct = [0] * self.mapper.total_entries
        self._timing = context.timing
        # Staggered reset: total_entries / refs_per_window entries per REF.
        self._entries_per_ref = (self.mapper.total_entries
                                 / context.timing.refs_per_window)
        self._next_ref_ps = context.timing.t_refi
        self._reset_cursor = 0.0
        self.rmaq: RecentMitigationQueue | None = None
        if rate_limited:
            self.rmaq = RecentMitigationQueue(DREAM_C_RMAQ_ENTRIES,
                                              context.timing.t_refi)
        self.drfm_rounds = 0
        kind = "rand" if randomized else "assoc"
        suffix = f"-{storage_multiplier}x" if storage_multiplier > 1 else ""
        self.name = f"dream-c-{kind}{suffix}"

    # ------------------------------------------------------------------
    def _staggered_reset(self, now_ps: int) -> None:
        """Clear the per-REF slice(s) of the DCT due by ``now_ps``."""
        entries = self.mapper.total_entries
        while self._next_ref_ps <= now_ps:
            self._next_ref_ps += self._timing.t_refi
            start = int(self._reset_cursor)
            self._reset_cursor += self._entries_per_ref
            stop = int(self._reset_cursor)
            if stop > start:
                for index in range(start, stop):
                    self.dct[index % entries] = 0
            if self._reset_cursor >= entries:
                self._reset_cursor -= entries

    def _mitigate_gang(self, gang: int, trigger_bank: int,
                       now_ps: int) -> None:
        """Run the V mitigation rounds for ``gang``.

        Each round explicit-samples one gang row into the DAR of every
        bank of the gang's bank group (ACTs paced at tRRD on the command
        bus) and issues a DRFMab.
        """
        start = now_ps
        mapper = self.mapper
        entries = mapper.entries
        masks = mapper.masks
        local = gang % entries
        for j in range(mapper.slices):
            ready = start
            for position, bank in enumerate(mapper.gang_banks(gang)):
                row = j * entries + (local ^ masks[bank][j])
                at = start + position * self._timing.t_rrd
                ready = max(ready, self.port.explicit_sample(bank, row, at))
            self.port.issue(Command.DRFM_AB, trigger_bank, ready)
            self.drfm_rounds += 1
            start = ready + self._timing.t_drfm_ab

    # ------------------------------------------------------------------
    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        if now_ps >= self._next_ref_ps:
            self._staggered_reset(now_ps)
        gang = self.mapper.gang_of(bank, row)
        if self.dct[gang] >= self.threshold:
            if self.rmaq is not None and self.rmaq.contains(gang, now_ps):
                # Rate limit: skip this round; the counter stays pinned
                # and the mitigation retries once the entry expires.
                self.stats.samples_skipped_rate_limit += 1
                return False
            self.stats.selections += 1
            self._mitigate_gang(gang, bank, now_ps)
            if self.rmaq is not None:
                self.rmaq.insert(gang, now_ps)
            self.dct[gang] = 1  # the triggering ACT counts
        else:
            self.dct[gang] += 1
        return False

    def summary(self) -> dict[str, float]:
        data = super().summary()
        data["drfm_rounds"] = self.drfm_rounds
        data["dct_entries"] = self.mapper.total_entries
        data["max_counter"] = max(self.dct, default=0)
        return data


@spec_factory
def dream_c_factory(t_rh: int, randomized: bool = True,
                    storage_multiplier: int = 1,
                    rate_limited: bool = False,
                    vertical: int | None = None) -> PolicyFactory:
    """Factory for :class:`DreamCPolicy` (Figure 15/17/19/22 configs)."""
    return lambda context: DreamCPolicy(
        context, t_rh, randomized=randomized,
        storage_multiplier=storage_multiplier, rate_limited=rate_limited,
        vertical=vertical)
