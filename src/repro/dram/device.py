"""DRAM device organization: channel -> sub-channels -> banks -> rows.

The baseline system of the paper (Table 2) is one 32 GB DDR5 DIMM with one
channel, two sub-channels, 32 banks per sub-channel and 128K rows per bank.
:class:`Organization` captures those shape parameters and provides a
scaled-down preset matched to :meth:`repro.dram.timing.DDR5Timing.scaled`,
so that activations-per-row-per-refresh-window statistics are preserved
when the refresh window is shortened for tractable pure-Python runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.subchannel import SubChannel
from repro.dram.timing import DDR5Timing, JEDEC_REFS_PER_WINDOW

#: Rows per bank in the paper's full-size configuration.
FULL_SIZE_ROWS_PER_BANK = 128 * 1024


@dataclass(frozen=True)
class Organization:
    """Shape of the memory system (counts, not timings).

    Attributes
    ----------
    channels:
        Independent channels (the baseline has 1).
    subchannels:
        Sub-channels per channel (DDR5: 2).
    banks:
        Banks per sub-channel (DDR5: 32).
    banks_per_group:
        Banks per bankgroup (DDR5: 4, i.e. 8 bankgroups).
    rows_per_bank:
        Rows in each bank.
    cols_per_row:
        64-byte cache lines per row (4 KB row = 64 lines, which makes
        the full-size device exactly the 32 GB DIMM of Table 2).
    """

    channels: int = 1
    subchannels: int = 2
    banks: int = 32
    banks_per_group: int = 4
    rows_per_bank: int = FULL_SIZE_ROWS_PER_BANK
    cols_per_row: int = 64

    @property
    def bankgroups(self) -> int:
        """Bankgroups per sub-channel."""
        return self.banks // self.banks_per_group

    @property
    def total_banks(self) -> int:
        """Banks across all channels and sub-channels."""
        return self.channels * self.subchannels * self.banks

    @property
    def total_rows(self) -> int:
        """Rows across the whole device."""
        return self.total_banks * self.rows_per_bank

    @property
    def row_bytes(self) -> int:
        """Bytes per row (64-byte lines)."""
        return self.cols_per_row * 64

    @property
    def capacity_bytes(self) -> int:
        """Total device capacity in bytes."""
        return self.total_rows * self.row_bytes

    @classmethod
    def full_size(cls) -> "Organization":
        """The paper's Table 2 organization (32 GB, 128K rows/bank)."""
        return cls()

    @classmethod
    def scaled(cls, refs_per_window: int = 256,
               subchannels: int = 2) -> "Organization":
        """Organization matched to a shortened refresh window.

        Rows per bank shrink by the same factor as the refresh window so
        that each REF still covers ``rows_per_bank / refs_per_window`` rows
        and per-row activation rates per window are preserved.
        """
        if refs_per_window < 1 or JEDEC_REFS_PER_WINDOW % refs_per_window:
            raise ValueError(
                "refs_per_window must divide the JEDEC window (8192)")
        factor = JEDEC_REFS_PER_WINDOW // refs_per_window
        return cls(
            subchannels=subchannels,
            rows_per_bank=FULL_SIZE_ROWS_PER_BANK // factor,
        )

    def validate(self) -> None:
        """Raise :class:`ValueError` on inconsistent shape parameters."""
        if self.banks % self.banks_per_group:
            raise ValueError("banks must be a multiple of banks_per_group")
        if min(self.channels, self.subchannels, self.banks,
               self.rows_per_bank, self.cols_per_row) < 1:
            raise ValueError("all organization counts must be positive")


class Device:
    """A DRAM device: the sub-channels of one channel.

    The simulator treats sub-channels independently (they have independent
    buses and independent DRFM scopes), so the device is a thin container
    plus convenience accessors.
    """

    def __init__(self, organization: Organization, timing: DDR5Timing,
                 record_mitigations: bool = False) -> None:
        organization.validate()
        timing.validate()
        if organization.channels != 1:
            raise NotImplementedError(
                "the simulator models one channel (the paper's Table 2 "
                "baseline); run independent channels as independent "
                "simulations")
        self.organization = organization
        self.timing = timing
        self.subchannels = [
            SubChannel(i, timing, organization.banks,
                       organization.banks_per_group,
                       record_mitigations=record_mitigations)
            for i in range(organization.subchannels)
        ]

    def subchannel(self, index: int) -> SubChannel:
        """The sub-channel with the given index."""
        return self.subchannels[index]

    def total_activations(self) -> int:
        """Total ACT commands executed across the device."""
        return sum(bank.stats.activations
                   for sc in self.subchannels for bank in sc.banks)

    def total_mitigated_rows(self) -> int:
        """Total rows mitigated by DRFM/NRR across the device."""
        return sum(sc.stats.mitigated_rows for sc in self.subchannels)

    def average_rlp(self) -> float:
        """Device-wide mean RLP across all mitigation commands."""
        rows = self.total_mitigated_rows()
        commands = sum(sc.stats.mitigation_commands
                       for sc in self.subchannels)
        return rows / commands if commands else 0.0
