"""DRAM command vocabulary used by the memory controller and the device.

The command set mirrors the DDR5 commands the paper relies on, plus the
hypothetical per-bank Nearby-Row-Refresh (NRR) command assumed by prior
MC-side mitigation work:

* ``ACT`` / ``PRE`` / ``RD`` / ``WR`` — the usual row/column commands.
* ``PRE_SAMPLE`` — precharge with the DRFM sample bit asserted, which
  latches the currently-open row's address into the bank's DRFM Address
  Register (DAR).
* ``REF`` — periodic all-bank refresh.
* ``DRFM_SB`` / ``DRFM_AB`` — Directed Refresh Management commands that
  mitigate the row held in the DAR of 8 (same bank in every bankgroup) or
  all 32 banks of a sub-channel, blocking those banks for
  tDRFMsb / tDRFMab.
* ``NRR`` — the hypothetical single-bank mitigation command from prior
  work, modelled (as the paper does) with the same latency as DRFMsb but a
  one-bank blocking footprint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Command(enum.Enum):
    """A DRAM command mnemonic."""

    ACT = "ACT"
    PRE = "PRE"
    PRE_SAMPLE = "PRE+S"
    RD = "RD"
    WR = "WR"
    REF = "REF"
    DRFM_SB = "DRFMsb"
    DRFM_AB = "DRFMab"
    NRR = "NRR"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Commands that close the open row of a bank.
ROW_CLOSING = frozenset({Command.PRE, Command.PRE_SAMPLE})

#: Commands that perform Rowhammer mitigation.
MITIGATING = frozenset({Command.DRFM_SB, Command.DRFM_AB, Command.NRR})


@dataclass(frozen=True)
class IssuedCommand:
    """A command as issued on the command bus, for tracing and debugging.

    Attributes
    ----------
    time_ps:
        Issue time in picoseconds.
    command:
        The command mnemonic.
    subchannel:
        Sub-channel index the command targets.
    bank:
        Bank index for bank-scoped commands, ``None`` for all-bank ones.
    row:
        The row an ACT opens, a PRE or PRE+S closes, or an NRR
        mitigates; else ``None``.
    """

    time_ps: int
    command: Command
    subchannel: int
    bank: int | None = None
    row: int | None = None

    def describe(self) -> str:
        """Human-readable one-line rendering of the command."""
        target = f"sc{self.subchannel}"
        if self.bank is not None:
            target += f".b{self.bank}"
        if self.row is not None:
            target += f".r{self.row}"
        return f"{self.time_ps}ps {self.command} {target}"


def blocking_banks(command: Command, bank: int, num_banks: int = 32,
                   banks_per_group: int = 4) -> tuple[int, ...]:
    """Return the banks blocked when ``command`` is issued targeting ``bank``.

    * NRR blocks only the target bank.
    * DRFMsb blocks the same bank position in every bankgroup (8 banks for
      a 32-bank / 8-bankgroup sub-channel).
    * DRFMab and REF block every bank in the sub-channel.

    Parameters
    ----------
    command:
        One of the mitigating commands or ``REF``.
    bank:
        The bank whose DAR/mitigation triggered the command.
    num_banks:
        Total banks per sub-channel.
    banks_per_group:
        Banks per bankgroup (DDR5: 4).
    """
    if command is Command.NRR:
        return (bank,)
    if command is Command.DRFM_SB:
        position = bank % banks_per_group
        return tuple(range(position, num_banks, banks_per_group))
    if command in (Command.DRFM_AB, Command.REF):
        return tuple(range(num_banks))
    raise ValueError(f"{command} has no blocking footprint")
