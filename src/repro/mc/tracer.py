"""Command-bus tracing for protocol verification and debugging.

A :class:`CommandTracer` attached to a sub-channel
(:meth:`repro.dram.subchannel.SubChannel.attach_tracer`) records every
DRAM command the sub-channel executes as
:class:`~repro.dram.commands.IssuedCommand` entries.  Each command is
recorded where it runs: the banks record ACT, PRE and PRE+Sample at the
start time their timing model computes, and the sub-channel records REF,
NRR, DRFMsb and DRFMab at their issue time.

Two consumers:

* the protocol checker (:func:`verify_protocol`) asserts DRAM-legal
  sequencing per bank — no double-ACT without a close, Pre+Sample only
  on an open row — which the protocol tests run over full simulations;
* debugging: ``tracer.tail()`` renders the last commands human-readably.

Tracing costs a few percent of simulation speed, so the performance
sweeps leave it off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.commands import (ROW_CLOSING, Command, IssuedCommand,
                                 blocking_banks)


@dataclass
class CommandTracer:
    """Every command one sub-channel executed, in execution order.

    ``attach_tracer`` sets the sub-channel index and shape; the
    defaults are the DDR5 sub-channel's 32 banks in groups of 4.
    """

    subchannel: int = 0
    commands: list[IssuedCommand] = field(default_factory=list)
    num_banks: int = field(default=32, init=False)
    banks_per_group: int = field(default=4, init=False)

    def record(self, time_ps: int, command: Command, bank: int | None,
               row: int | None = None) -> None:
        """Append one command."""
        self.commands.append(IssuedCommand(
            time_ps=time_ps, command=command,
            subchannel=self.subchannel, bank=bank, row=row))

    def count(self, command: Command) -> int:
        """Number of recorded commands of one kind."""
        return sum(1 for issued in self.commands
                   if issued.command is command)

    def per_bank(self, bank: int) -> list[IssuedCommand]:
        """Recorded commands targeting one bank, in issue order."""
        return [issued for issued in self.commands if issued.bank == bank]

    def tail(self, count: int = 20) -> str:
        """Human-readable rendering of the most recent commands."""
        start = max(0, len(self.commands) - count)
        return "\n".join(issued.describe()
                         for issued in self.commands[start:])


@dataclass(frozen=True)
class ProtocolViolation:
    """One DRAM-protocol violation found by the checker."""

    index: int
    command: IssuedCommand
    reason: str


def verify_protocol(tracer: CommandTracer) -> list[ProtocolViolation]:
    """Check per-bank command legality over the whole trace.

    Rules enforced, in log order (the order the bank state machines
    applied the commands; the recorded times are the bank model's start
    times, which this checker does not itself check):

    * ACT requires the bank's row to be closed;
    * PRE / PRE+Sample require an open row;
    * REF, NRR, DRFMsb and DRFMab close the row of every bank they
      block, as :func:`~repro.dram.commands.blocking_banks` names them.
    """
    violations: list[ProtocolViolation] = []
    open_rows: dict[int, int | None] = {}
    for index, issued in enumerate(tracer.commands):
        command = issued.command
        bank = issued.bank
        if command is Command.ACT:
            state = open_rows.get(bank)
            if state is not None:
                violations.append(ProtocolViolation(
                    index, issued, f"ACT while row {state} is open"))
            open_rows[bank] = issued.row
        elif command in ROW_CLOSING:
            if open_rows.get(bank) is None:
                violations.append(ProtocolViolation(
                    index, issued, "precharge with no open row"))
            open_rows[bank] = None
        else:
            for blocked in blocking_banks(command, bank, tracer.num_banks,
                                          tracer.banks_per_group):
                open_rows[blocked] = None
    return violations
