"""Sub-channel model: 32 banks, bankgroups, REF and the DRFM engine.

A DDR5 channel contains two sub-channels, each with an independent 32-bit
data bus and 32 banks arranged as 8 bankgroups of 4 banks.  This class
models the banks and the commands that block them; the data bus is
modelled only by the sub-channel's controller
(:class:`repro.mc.controller.SubChannelController`), which serializes
the 64-byte bursts.  DRFM commands are sub-channel scoped:

* ``DRFMsb`` blocks the same bank position in every bankgroup (8 banks)
  for tDRFMsb and mitigates the DAR of each of those banks.
* ``DRFMab`` blocks all 32 banks for tDRFMab and mitigates every DAR.
* ``NRR`` (hypothetical) blocks one bank for tNRR.

The number of *valid* DARs consumed by a single DRFM is the command's
realised Rowhammer-mitigation Level Parallelism (RLP); the sub-channel
counts every mitigation command by kind and by RLP
(:class:`SubChannelStats`) so experiments can reproduce the paper's
Table 5.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.dram.bank import Bank
from repro.dram.commands import Command, blocking_banks
from repro.dram.timing import DDR5Timing


@dataclass(slots=True)
class MitigationEvent:
    """Record of one executed mitigation command (for RLP accounting)."""

    time_ps: int
    command: Command
    trigger_bank: int
    blocked_banks: int
    mitigated_rows: tuple[tuple[int, int], ...]  # (bank, row) pairs

    @property
    def rlp(self) -> int:
        """Rows actually mitigated by this command (realised RLP)."""
        return len(self.mitigated_rows)


@dataclass
class SubChannelStats:
    """Aggregated sub-channel activity: the one count of mitigation
    commands and mitigated rows."""

    refreshes: int = 0
    mitigation_commands: int = 0
    mitigated_rows: int = 0
    #: Mitigation commands per kind (NRR, DRFMsb, DRFMab).
    commands: Counter[Command] = field(default_factory=Counter)
    #: Mitigation commands per realised RLP.
    rlp_counts: Counter[int] = field(default_factory=Counter)

    def record_mitigation(self, event: MitigationEvent) -> None:
        self.mitigation_commands += 1
        self.mitigated_rows += event.rlp
        self.commands[event.command] += 1
        self.rlp_counts[event.rlp] += 1


class SubChannel:
    """One DDR5 sub-channel: banks, bankgroups, REF and DRFM."""

    def __init__(self, index: int, timing: DDR5Timing, num_banks: int = 32,
                 banks_per_group: int = 4,
                 record_mitigations: bool = False) -> None:
        if num_banks % banks_per_group:
            raise ValueError("num_banks must be a multiple of banks_per_group")
        self.index = index
        self.timing = timing
        self.num_banks = num_banks
        self.banks_per_group = banks_per_group
        self.banks = [Bank(i, timing) for i in range(num_banks)]
        self.stats = SubChannelStats()
        self.record_mitigations = record_mitigations
        self.mitigation_log: list[MitigationEvent] = []
        #: The command tracer :meth:`attach_tracer` set, or ``None``.
        self.tracer = None

    def attach_tracer(self, tracer) -> None:
        """Record every command this sub-channel executes in ``tracer``
        (a :class:`~repro.mc.tracer.CommandTracer`): the banks record
        ACT, PRE and PRE+Sample at their start time, the sub-channel
        REF and the mitigation commands at their issue time.  The tracer
        also learns the sub-channel's index and shape."""
        tracer.subchannel = self.index
        tracer.num_banks = self.num_banks
        tracer.banks_per_group = self.banks_per_group
        self.tracer = tracer
        for bank in self.banks:
            bank.tracer = tracer

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh(self, now_ps: int) -> int:
        """Execute an all-bank REF: close rows, block every bank for tRFC."""
        if self.tracer is not None:
            self.tracer.record(now_ps, Command.REF, None)
        until = now_ps + self.timing.t_rfc
        for bank in self.banks:
            bank.open_row = None
            bank.block_until(until)
        self.stats.refreshes += 1
        return until

    # ------------------------------------------------------------------
    # Mitigation commands
    # ------------------------------------------------------------------
    def _mitigation_duration(self, command: Command) -> int:
        if command is Command.DRFM_SB:
            return self.timing.t_drfm_sb
        if command is Command.DRFM_AB:
            return self.timing.t_drfm_ab
        if command is Command.NRR:
            return self.timing.t_nrr
        raise ValueError(f"{command} is not a mitigation command")

    def issue_mitigation(self, command: Command, trigger_bank: int,
                         now_ps: int,
                         row: int | None = None) -> MitigationEvent:
        """Execute NRR/DRFMsb/DRFMab triggered by ``trigger_bank``.

        For DRFM commands, every blocked bank with a valid DAR has that row
        mitigated and its DAR invalidated; every blocked bank (valid DAR or
        not) is stalled for the command's duration.  NRR has no DAR: it
        mitigates the explicitly specified ``row`` of ``trigger_bank``.
        Returns the resulting :class:`MitigationEvent` for RLP accounting.
        """
        duration = self._mitigation_duration(command)
        targets = blocking_banks(command, trigger_bank, self.num_banks,
                                 self.banks_per_group)
        until = now_ps + duration
        mitigated: list[tuple[int, int]] = []
        if command is Command.NRR:
            if row is None:
                raise ValueError("NRR requires an explicit row address")
            bank = self.banks[trigger_bank]
            bank.open_row = None
            bank.block_until(until)
            mitigated.append((trigger_bank, row))
        else:
            for bank_index in targets:
                bank = self.banks[bank_index]
                bank.open_row = None
                mitigated_row = bank.execute_mitigation(until)
                if mitigated_row is not None:
                    mitigated.append((bank_index, mitigated_row))
        event = MitigationEvent(
            time_ps=now_ps,
            command=command,
            trigger_bank=trigger_bank,
            blocked_banks=len(targets),
            mitigated_rows=tuple(mitigated),
        )
        if self.tracer is not None:
            self.tracer.record(now_ps, command, trigger_bank, row)
        self.stats.record_mitigation(event)
        if self.record_mitigations:
            self.mitigation_log.append(event)
        return event

    @property
    def average_rlp(self) -> float:
        """Mean rows mitigated per mitigation command so far."""
        stats = self.stats
        if not stats.mitigation_commands:
            return 0.0
        return stats.mitigated_rows / stats.mitigation_commands

    def valid_dar_count(self) -> int:
        """Number of banks whose DAR currently holds a row."""
        return sum(1 for bank in self.banks if bank.dar.row is not None)

    def bankgroup_of(self, bank: int) -> int:
        """Bankgroup index of ``bank``."""
        return bank // self.banks_per_group
