"""Record a baseline's activations; replay them for designs that never act.

A mitigation policy watches activations and changes a run only by
acting through its :class:`~repro.mc.policy.MitigationPort`: it issues
a mitigation command, explicit-samples a row, blocks a bank, or asks
for an implicit Pre+Sample.  Until its first action, a mitigated run
*is* the unprotected run on the same traces and system, ACT for ACT.
Many counter-based designs (DREAM-C, ABACuS, the Table 3 census) never
reach their threshold on a cool workload, so:

* a policy-less run **records** each sub-channel's ACTs, in service
  order, as packed integer arrays (:class:`ActivationStream`):
  the bank, the row, and the time the controller would have consulted a
  policy (:func:`record`);
* a mitigated run first **replays** those streams through freshly built
  policies, each bound to a :class:`ReplayPort` (:func:`replay`).  The
  port implements exactly :class:`~repro.mc.policy.MitigationPort` over
  a run in which nothing has acted: every DAR is empty, and ``issue``,
  ``explicit_sample`` and ``block_bank`` end the replay, as does a
  policy's request for an implicit Pre+Sample.  A replay that ends
  without an action returns the baseline's result with the cell's
  label, the replayed policy summaries and zero mitigations.

Invariants: a replayed result equals the simulated one byte for byte
(:meth:`~repro.sim.results.RunResult.to_json`), and recording reads
simulator state and never steers it.

The executor keeps recordings in :data:`STORE`: thread-safe, per
process, keyed by the baseline's identity (:func:`baseline_key`:
workload, trace system, run system, sim) and bounded by the ACTs it
holds.  The run system is part of the key, so a cell whose run system
differs from its trace system (PRAC, the page-policy ablation) never
replays against a baseline run on the trace system.  Policies are
independent per sub-channel, so each stream replays on its own.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from array import array
from collections import OrderedDict

from repro.dram.bank import DARRegister
from repro.dram.timing import DDR5Timing
from repro.mc.controller import build_policies
from repro.mc.policy import PolicyFactory
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.results import RunResult
from repro.sim.runner import run_simulation
from repro.workloads.trace import MemoryTrace

#: ACTs the store holds at most (14 bytes each): about 1.8 MB, which
#: keeps every baseline of a quick pass at 1,000 requests per core.
STORE_CAPACITY_ACTS = 1 << 17


class ActivationStream:
    """One sub-channel's ACTs in service order, as packed arrays."""

    __slots__ = ("banks", "rows", "times")

    def __init__(self) -> None:
        self.banks = array("H")
        self.rows = array("I")
        self.times = array("q")

    def append(self, bank: int, row: int, time_ps: int) -> None:
        self.banks.append(bank)
        self.rows.append(row)
        self.times.append(time_ps)

    def __len__(self) -> int:
        return len(self.times)


@dataclasses.dataclass(frozen=True)
class Recording:
    """A policy-less run's result with its per-sub-channel ACT streams."""

    result: RunResult
    streams: tuple[ActivationStream, ...]

    @property
    def acts(self) -> int:
        return sum(len(stream) for stream in self.streams)


class ReplayStore:
    """Recordings by baseline identity, bounded by the ACTs they hold.

    Thread-safe; the least recently used recording goes first, and one
    larger than the whole capacity is not kept.
    """

    def __init__(self, capacity_acts: int = STORE_CAPACITY_ACTS) -> None:
        self.capacity_acts = capacity_acts
        self._recordings: OrderedDict[tuple, Recording] = OrderedDict()
        self._acts = 0
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Recording | None:
        with self._lock:
            recording = self._recordings.get(key)
            if recording is not None:
                self._recordings.move_to_end(key)
            return recording

    def put(self, key: tuple, recording: Recording) -> None:
        acts = recording.acts
        with self._lock:
            old = self._recordings.pop(key, None)
            if old is not None:
                self._acts -= old.acts
            if acts > self.capacity_acts:
                return
            self._recordings[key] = recording
            self._acts += acts
            while self._acts > self.capacity_acts:
                _, evicted = self._recordings.popitem(last=False)
                self._acts -= evicted.acts

    def clear(self) -> None:
        with self._lock:
            self._recordings.clear()
            self._acts = 0

    def _after_fork(self) -> None:
        """Give a forked pool worker its own lock: the parent's may be
        held by a thread the worker does not have."""
        self._lock = threading.Lock()

    @property
    def acts(self) -> int:
        """ACTs held right now."""
        with self._lock:
            return self._acts

    def __len__(self) -> int:
        with self._lock:
            return len(self._recordings)


#: This process's recordings.
STORE = ReplayStore()
os.register_at_fork(after_in_child=STORE._after_fork)


def baseline_key(workload, trace_system: SystemConfig,
                 run_system: SystemConfig, sim: SimConfig) -> tuple:
    """The identity of the policy-less run a cell replays against."""
    return (workload, trace_system, run_system, sim)


class Acted(Exception):
    """A replayed policy acted: the cell must be simulated."""


class ReplayPort:
    """The :class:`~repro.mc.policy.MitigationPort` of a run in which no
    policy has acted yet: each bank's DAR is empty, and any action
    raises :class:`Acted`."""

    def __init__(self, timing: DDR5Timing, num_banks: int,
                 banks_per_group: int) -> None:
        self.timing = timing
        self.num_banks = num_banks
        self.banks_per_group = banks_per_group
        self._dars = [DARRegister() for _ in range(num_banks)]

    def issue(self, command, bank: int, now_ps: int,
              row: int | None = None):
        raise Acted(f"issue {command.value}")

    def explicit_sample(self, bank: int, row: int, now_ps: int) -> int:
        raise Acted("explicit_sample")

    def dar(self, bank: int) -> DARRegister:
        return self._dars[bank]

    def block_bank(self, bank: int, until_ps: int) -> None:
        raise Acted("block_bank")

    def valid_dar_count(self) -> int:
        return 0


def record(system: SystemConfig, traces: list[MemoryTrace],
           sim: SimConfig, policy_name: str = "none") -> Recording:
    """Run the policy-less simulation, recording its ACT streams."""
    streams = tuple(ActivationStream()
                    for _ in range(system.organization.subchannels))
    result = run_simulation(system, traces, sim, None, policy_name,
                            streams=streams)
    return Recording(result, streams)


def replay(recording: Recording, system: SystemConfig, sim: SimConfig,
           policy_factory: PolicyFactory,
           policy_name: str) -> RunResult | None:
    """The result of running ``policy_factory`` on ``system`` and the
    traces ``recording`` was taken on, or ``None`` when a policy acts
    (the run must then be simulated).  ``system`` must be the one the
    recording ran on."""
    organization = system.organization
    policies = build_policies(policy_factory, organization, system.timing,
                              sim.seed)
    try:
        for policy, stream in zip(policies, recording.streams):
            policy.bind(ReplayPort(system.timing, organization.banks,
                                   organization.banks_per_group))
            before_activate = policy.before_activate
            for bank, row, time_ps in zip(stream.banks, stream.rows,
                                          stream.times):
                if before_activate(bank, row, time_ps):
                    return None
    except Acted:
        return None
    # The baseline's own mitigation counts are zero: it had no policy.
    base = recording.result
    return dataclasses.replace(
        base, policy=policy_name,
        finish_times_ps=list(base.finish_times_ps),
        policy_summaries=[{**policy.summary(), "mitigations": 0,
                           "rows_mitigated": 0} for policy in policies])
