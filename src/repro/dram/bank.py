"""Bank state machine with a DRFM Address Register (DAR).

Each DDR5 bank in the model tracks:

* the currently-open row (open-page policy keeps rows open until a
  conflicting access or an explicit precharge),
* a ``busy_until`` timestamp covering command execution, REF and DRFM
  blocking windows, and
* the per-bank **DAR** — the single register DRFM uses to remember which
  aggressor row the MC wants mitigated.  The DAR is written by a
  ``PRE+Sample`` command and invalidated when a DRFM executes.

The bank intentionally does not know about trackers: sampling policy lives
in the memory controller / mitigation layer.  The bank only enforces DRAM
semantics (you cannot sample a row that is not open; a DRFM mitigates
whatever the DAR holds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.commands import Command
from repro.dram.timing import DDR5Timing


@dataclass
class DARRegister:
    """The per-bank DRFM Address Register.

    Holds at most one row address.  ``sampled_at_ps`` records when the row
    was written, which the RLP/ security analyses use to measure the delay
    between sampling and mitigation.
    """

    row: int | None = None
    sampled_at_ps: int = 0

    @property
    def valid(self) -> bool:
        """Whether the register currently holds a row address."""
        return self.row is not None

    def write(self, row: int, now_ps: int) -> None:
        """Latch ``row`` into the register (overwrites any previous value)."""
        self.row = row
        self.sampled_at_ps = now_ps

    def invalidate(self) -> int | None:
        """Clear the register, returning the row it held (or ``None``)."""
        row = self.row
        self.row = None
        return row


@dataclass
class BankStats:
    """Per-bank activity counters."""

    activations: int = 0
    row_hits: int = 0
    row_conflicts: int = 0
    precharges: int = 0
    samples: int = 0
    blocked_time_ps: int = 0


@dataclass
class Bank:
    """One DRAM bank: open-row state, busy window, DAR, activity counters."""

    index: int
    timing: DDR5Timing
    open_row: int | None = None
    busy_until_ps: int = 0
    last_act_ps: int = -(1 << 62)
    dar: DARRegister = field(default_factory=DARRegister)
    stats: BankStats = field(default_factory=BankStats)

    def __post_init__(self) -> None:
        # Timing scalars hoisted out of the (property-bearing) timing
        # dataclass: activate/precharge run once per row miss and must
        # not pay attribute-chain or property-call cost per command.
        timing = self.timing
        self._t_rc = timing.t_rc
        self._t_rcd = timing.t_rcd
        self._t_ras = timing.t_ras
        self._t_rp = timing.t_rp
        #: The tracer :meth:`SubChannel.attach_tracer
        #: <repro.dram.subchannel.SubChannel.attach_tracer>` set, or
        #: ``None``; ACT, PRE and PRE+S are recorded at their start.
        self.tracer = None

    # ------------------------------------------------------------------
    # Availability / blocking
    # ------------------------------------------------------------------
    def ready_at(self, now_ps: int) -> int:
        """Earliest time at or after ``now_ps`` the bank can accept a command."""
        return max(now_ps, self.busy_until_ps)

    def block_until(self, until_ps: int) -> None:
        """Extend the bank's busy window (REF / DRFM / NRR blocking)."""
        if until_ps > self.busy_until_ps:
            self.stats.blocked_time_ps += until_ps - max(
                self.busy_until_ps, 0)
            self.busy_until_ps = until_ps

    # ------------------------------------------------------------------
    # Row commands
    # ------------------------------------------------------------------
    def activate(self, row: int, now_ps: int) -> int:
        """Open ``row``; returns the time the row buffer holds valid data.

        Respects tRC relative to the previous activation.  The caller must
        have already closed any previously-open row.
        """
        if self.open_row is not None:
            raise RuntimeError(
                f"bank {self.index}: ACT to row {row} while row "
                f"{self.open_row} is open")
        busy = self.busy_until_ps
        if busy < now_ps:
            busy = now_ps
        tracked = self.last_act_ps + self._t_rc
        start = tracked if tracked > busy else busy
        self.open_row = row
        self.last_act_ps = start
        self.busy_until_ps = start + self._t_rcd
        self.stats.activations += 1
        if self.tracer is not None:
            self.tracer.record(start, Command.ACT, self.index, row)
        return self.busy_until_ps

    def precharge(self, now_ps: int, sample: bool = False) -> int:
        """Close the open row; with ``sample`` latch it into the DAR.

        Returns the completion time of the precharge.  Sampling a bank with
        no open row is a protocol error.
        """
        if sample:
            if self.open_row is None:
                raise RuntimeError(
                    f"bank {self.index}: PRE+Sample with no open row")
            self.dar.write(self.open_row, now_ps)
            self.stats.samples += 1
        # tRAS: a row must stay open for at least tRC - tRP after its ACT.
        busy = self.busy_until_ps
        if busy < now_ps:
            busy = now_ps
        earliest = self.last_act_ps + self._t_ras
        start = earliest if earliest > busy else busy
        if self.tracer is not None:
            self.tracer.record(
                start, Command.PRE_SAMPLE if sample else Command.PRE,
                self.index, self.open_row)
        self.open_row = None
        self.busy_until_ps = start + self._t_rp
        self.stats.precharges += 1
        return self.busy_until_ps

    # ------------------------------------------------------------------
    # Mitigation
    # ------------------------------------------------------------------
    def execute_mitigation(self, until_ps: int) -> int | None:
        """Apply a DRFM/NRR to this bank: mitigate DAR row, block the bank.

        Returns the mitigated row, or ``None`` if the DAR was invalid (the
        bank is still blocked — this is exactly the wasted-stall case that
        motivates DREAM-R).
        """
        row = self.dar.invalidate()
        self.block_until(until_ps)
        return row

    def describe(self) -> str:
        """Debug string with the bank's dynamic state."""
        row = "closed" if self.open_row is None else f"row={self.open_row}"
        dar = f"DAR={self.dar.row}" if self.dar.valid else "DAR=invalid"
        return (f"bank{self.index}[{row}, busy_until={self.busy_until_ps}, "
                f"{dar}]")
