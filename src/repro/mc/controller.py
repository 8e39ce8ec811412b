"""Transaction-level memory controller.

One :class:`SubChannelController` per sub-channel services LLC-miss
requests against the bank state machines with an open-page policy,
interleaves periodic REF, and exposes the :class:`MitigationPort`
primitives the mitigation policies drive.  The
:class:`MemoryController` is the per-channel front door the simulation
runner talks to.

The port's ``issue`` is the one place a mitigation command is recorded:
the sub-channel counts it, and with a journal attached the controller
appends its ``mitigation`` record.  No policy reports a command.

The controller owns its sub-channel's data bus; no other module models
it.  A burst starts once its data is ready and the previous burst has
finished, and holds the bus for tBUS, so the bus state is one
timestamp and a burst count, and busy time is bursts x tBUS.

The service path for one request:

1. advance the refresh scheduler (issue any due REF);
2. row-buffer hit  -> column access + data-bus burst, done;
3. row miss        -> consult the mitigation policy *before* the ACT (the
   paper's "tracker check", which lets DREAM-R issue a DRFM ahead of the
   activation when the DAR must be freed);
4. precharge a conflicting row, activate, column access, data burst;
5. if the policy asked for implicit sampling, close the row with
   Pre+Sample immediately after the access (Listing 1 of the paper) and
   notify the policy.

Without a policy, step 3 instead hands the ACT to ``record_act`` when
one is set: the activation stream :mod:`repro.sim.replay` replays.
"""

from __future__ import annotations

from repro.dram.bank import DARRegister
from repro.dram.commands import Command
from repro.dram.device import Device, Organization
from repro.dram.refresh import RefreshScheduler
from repro.dram.subchannel import MitigationEvent, SubChannel
from repro.dram.timing import DDR5Timing
from repro.mc.page_policy import PagePolicy
from repro.mc.policy import (MitigationPolicy, PolicyContext,
                             PolicyFactory)
from repro.mc.tracer import CommandTracer


def build_policies(policy_factory: PolicyFactory,
                   organization: Organization, timing: DDR5Timing,
                   seed: int) -> list[MitigationPolicy]:
    """One policy per sub-channel, each built from its sub-channel's
    :class:`PolicyContext` (shape plus the seed its random stream
    derives from)."""
    return [policy_factory(PolicyContext(
                subchannel=index,
                num_banks=organization.banks,
                banks_per_group=organization.banks_per_group,
                rows_per_bank=organization.rows_per_bank,
                timing=timing,
                seed=seed))
            for index in range(organization.subchannels)]


class SubChannelController:
    """Services requests for one sub-channel; implements MitigationPort."""

    def __init__(self, subchannel: SubChannel, timing: DDR5Timing,
                 policy: MitigationPolicy | None,
                 page_policy: PagePolicy = PagePolicy.OPEN) -> None:
        self.subchannel = subchannel
        self.timing = timing
        self.num_banks = subchannel.num_banks
        self.banks_per_group = subchannel.banks_per_group
        self.refresh = RefreshScheduler(timing, subchannel)
        self.policy = policy
        self.page_policy = page_policy
        self.tracer: CommandTracer | None = None
        #: The :class:`~repro.obs.journal.RunJournal` each issued
        #: command is journalled to, or ``None``.
        self.journal = None
        #: Without a policy, called with each ACT's ``(bank, row,
        #: now_ps)`` where the policy would be consulted, or ``None``.
        #: It reads the ACT and never steers it.
        self.record_act = None
        # Hot-path caches: ``service`` runs once per request and must
        # not re-chase attribute chains or property descriptors.  The
        # cached ``next_ref_ps`` mirror is a lower bound on the
        # scheduler's real deadline — it only ever lags behind (an
        # advance from elsewhere moves the real deadline later), so a
        # stale mirror causes a redundant no-op advance, never a
        # missed REF.
        self.banks = subchannel.banks
        self._t_cl = timing.t_cl
        self._t_bus = timing.t_bus
        self._closes_after_access = page_policy.closes_after_access
        self._next_ref_ps = self.refresh.next_ref_ps
        #: The data bus: when the last burst ends, and how many went out.
        self._bus_free_ps = 0
        self.bursts = 0
        if policy is not None:
            policy.bind(self)

    def attach_tracer(self, tracer: CommandTracer) -> None:
        """Record every issued command (protocol checks / debugging)."""
        self.tracer = tracer
        tracer.subchannel = self.subchannel.index
        self.refresh.on_ref(
            lambda _index, time_ps: tracer.record(time_ps, Command.REF,
                                                  None))

    # ------------------------------------------------------------------
    # MitigationPort implementation
    # ------------------------------------------------------------------
    def issue(self, command: Command, bank: int, now_ps: int,
              row: int | None = None) -> MitigationEvent:
        """Issue NRR/DRFMsb/DRFMab (see SubChannel.issue_mitigation).

        The one place a mitigation is recorded: the sub-channel counts
        it, and with a journal attached this appends its ``mitigation``
        record, whose ``dars`` is the DAR occupancy after the command.
        """
        if self.tracer is not None:
            self.tracer.record(now_ps, command, bank, row)
        subchannel = self.subchannel
        event = subchannel.issue_mitigation(command, bank, now_ps, row)
        if self.journal is not None:
            self.journal.write(
                "mitigation", sc=subchannel.index, t_ps=event.time_ps,
                cmd=command.value, policy=self.policy.name,
                bank=event.trigger_bank, blocked=event.blocked_banks,
                rlp=event.rlp, dars=subchannel.valid_dar_count())
        return event

    def explicit_sample(self, bank: int, row: int, now_ps: int) -> int:
        """Dummy-ACT ``row`` in ``bank`` and Pre+Sample it into the DAR.

        Costs the bank a full row cycle (any open row is closed first);
        returns the completion time of the sampling precharge.
        """
        target = self.subchannel.banks[bank]
        if target.open_row is not None:
            if self.tracer is not None:
                self.tracer.record(now_ps, Command.PRE, bank)
            target.precharge(now_ps)
        if self.tracer is not None:
            self.tracer.record(now_ps, Command.ACT, bank, row)
        target.activate(row, now_ps)
        done = target.precharge(now_ps, sample=True)
        if self.tracer is not None:
            self.tracer.record(done, Command.PRE_SAMPLE, bank, row)
        return done

    def dar(self, bank: int) -> DARRegister:
        """DAR register of ``bank``."""
        return self.subchannel.banks[bank].dar

    def block_bank(self, bank: int, until_ps: int) -> None:
        """Stall one bank (used for ABO-style MC back-off)."""
        self.subchannel.banks[bank].block_until(until_ps)

    def valid_dar_count(self) -> int:
        """How many DARs currently hold a sampled row."""
        return self.subchannel.valid_dar_count()

    # ------------------------------------------------------------------
    # Request service
    # ------------------------------------------------------------------
    def service(self, bank_index: int, row: int, now_ps: int) -> int:
        """Service one 64-byte read; returns its data completion time."""
        if now_ps >= self._next_ref_ps:
            refresh = self.refresh
            refresh.advance(now_ps)
            self._next_ref_ps = refresh.next_ref_ps
        bank = self.banks[bank_index]
        if bank.open_row == row:
            # Row-buffer hit: column access + burst only — the paper's
            # trackers observe activations, so no policy consultation.
            bank.stats.row_hits += 1
            busy = bank.busy_until_ps
            ready = (busy if busy > now_ps else now_ps) + self._t_cl
            bus_free = self._bus_free_ps
            finish = (ready if ready > bus_free else bus_free) + self._t_bus
            self._bus_free_ps = finish
            self.bursts += 1
            return finish
        tracer = self.tracer
        policy = self.policy
        sample_after = False
        if policy is not None:
            sample_after = policy.before_activate(bank_index, row, now_ps)
            # The policy may have re-opened state questions: a mitigation
            # it issued blocks the bank; the ACT below waits naturally.
        elif self.record_act is not None:
            self.record_act(bank_index, row, now_ps)
        if bank.open_row is not None:
            bank.stats.row_conflicts += 1
            if tracer is not None:
                tracer.record(now_ps, Command.PRE, bank_index)
            bank.precharge(now_ps)
        row_ready = bank.activate(row, now_ps)
        if tracer is not None:
            tracer.record(row_ready - self.timing.t_rcd, Command.ACT,
                          bank_index, row)
        ready = row_ready + self._t_cl
        bus_free = self._bus_free_ps
        finish = (ready if ready > bus_free else bus_free) + self._t_bus
        self._bus_free_ps = finish
        self.bursts += 1
        if sample_after:
            bank.precharge(finish, sample=True)
            if tracer is not None:
                tracer.record(finish, Command.PRE_SAMPLE, bank_index,
                              row)
            policy.on_sampled(bank_index, row, finish)
        elif self._closes_after_access:
            if tracer is not None:
                tracer.record(finish, Command.PRE, bank_index)
            bank.precharge(finish)
        return finish


class MemoryController:
    """Front door: routes requests to per-sub-channel controllers.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) is strictly opt-in:
    when given, each controller journals its mitigation commands to
    ``telemetry.journal`` and the timeline sampler hooks onto every
    refresh scheduler.  When ``None`` (the default) no observability
    code runs at all.
    """

    def __init__(self, organization: Organization, timing: DDR5Timing,
                 policy_factory: PolicyFactory | None = None,
                 seed: int = 0,
                 record_mitigations: bool = False,
                 page_policy: PagePolicy = PagePolicy.OPEN,
                 telemetry=None) -> None:
        self.device = Device(organization, timing,
                             record_mitigations=record_mitigations)
        self.timing = timing
        self.organization = organization
        self.controllers: list[SubChannelController] = []
        self.policies: list[MitigationPolicy] = []
        if policy_factory is not None:
            self.policies = build_policies(policy_factory, organization,
                                           timing, seed)
        for index, subchannel in enumerate(self.device.subchannels):
            policy = self.policies[index] if self.policies else None
            controller = SubChannelController(subchannel, timing, policy,
                                              page_policy=page_policy)
            if telemetry is not None:
                controller.journal = telemetry.journal
                telemetry.timeline.attach(controller, policy)
            self.controllers.append(controller)

    def service(self, subchannel: int, bank: int, row: int,
                now_ps: int) -> int:
        """Service one request; returns its completion time."""
        return self.controllers[subchannel].service(bank, row, now_ps)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def total_activations(self) -> int:
        return self.device.total_activations()

    def total_row_hits(self) -> int:
        return sum(bank.stats.row_hits
                   for sc in self.device.subchannels for bank in sc.banks)

    def total_row_conflicts(self) -> int:
        return sum(bank.stats.row_conflicts
                   for sc in self.device.subchannels for bank in sc.banks)

    def total_mitigation_commands(self) -> int:
        return sum(sc.stats.mitigation_commands
                   for sc in self.device.subchannels)

    def average_rlp(self) -> float:
        return self.device.average_rlp()

    def bus_busy_ps(self) -> int:
        """Data-bus busy time summed over sub-channels: bursts x tBUS."""
        return sum(controller.bursts
                   for controller in self.controllers) * self.timing.t_bus

    def policy_summaries(self) -> list[dict[str, float]]:
        """Each policy's summary plus its sub-channel's mitigation
        counts."""
        summaries = []
        for policy, controller in zip(self.policies, self.controllers):
            stats = controller.subchannel.stats
            summaries.append({**policy.summary(),
                              "mitigations": stats.mitigation_commands,
                              "rows_mitigated": stats.mitigated_rows})
        return summaries
