"""Mitigation-policy base classes and the controller-facing port.

A :class:`MitigationPolicy` is the MC-side logic that watches activations
on one sub-channel, decides which rows to sample into DARs, and issues
mitigation commands through a :class:`MitigationPort` (implemented by the
sub-channel controller).  The port exposes exactly the primitives the
paper's designs need:

* issue an NRR / DRFMsb / DRFMab command,
* perform *explicit sampling* (dummy ACT + Pre+Sample) of a chosen row,
* read DAR state, and
* stall a bank (ABO-style MC back-off for PRAC).

This module is a leaf: concrete policies (coupled baselines in
:mod:`repro.mc.mitigation`, trackers in :mod:`repro.trackers`, DREAM in
:mod:`repro.core`) all import from here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

from repro.dram.bank import DARRegister
from repro.dram.commands import Command
from repro.dram.subchannel import MitigationEvent
from repro.dram.timing import DDR5Timing
from repro.exec.spec import spec_factory


class MitigationPort(Protocol):
    """Primitives a policy can invoke on its sub-channel controller."""

    timing: DDR5Timing
    num_banks: int
    banks_per_group: int

    def issue(self, command: Command, bank: int, now_ps: int,
              row: int | None = None) -> MitigationEvent:
        """Issue a mitigation command (NRR needs an explicit ``row``).

        The one place a mitigation is recorded: the sub-channel counts
        it (:class:`~repro.dram.subchannel.SubChannelStats`) and, when
        a journal is attached, the port journals it.  A policy only
        calls this; it never reports a command itself."""
        ...

    def explicit_sample(self, bank: int, row: int, now_ps: int) -> int:
        """Dummy-ACT ``row`` and Pre+Sample it into the bank's DAR."""
        ...

    def dar(self, bank: int) -> DARRegister:
        """The DAR register of ``bank``."""
        ...

    def block_bank(self, bank: int, until_ps: int) -> None:
        """Stall ``bank`` until ``until_ps`` (ABO-style MC back-off)."""
        ...

    def valid_dar_count(self) -> int:
        """How many of the sub-channel's DARs currently hold a row."""
        ...


@dataclass(frozen=True)
class PolicyContext:
    """Construction-time context handed to policy factories.

    One policy instance is created per sub-channel; the context carries
    the sub-channel's shape and a derived seed so that every policy's
    random stream is independent and reproducible.
    """

    subchannel: int
    num_banks: int
    banks_per_group: int
    rows_per_bank: int
    timing: DDR5Timing
    seed: int

    def rng(self) -> np.random.Generator:
        """A generator seeded deterministically for this sub-channel."""
        return np.random.default_rng((self.seed, self.subchannel))


PolicyFactory = Callable[[PolicyContext], "MitigationPolicy"]

#: Uniforms :func:`uniform_draws` takes from its generator per call.
UNIFORM_BLOCK = 1024


def uniform_draws(rng: np.random.Generator) -> Iterator[float]:
    """Yield ``rng.random()``'s own sequence, drawn in fixed blocks.

    ``rng.random(n)`` produces the same doubles as ``n`` scalar calls,
    so the values match one ``rng.random()`` per activation, at a
    fraction of its per-call cost.  The generator's state runs ahead by
    up to a block, so ``rng`` must draw nothing else.
    """
    while True:
        yield from rng.random(UNIFORM_BLOCK).tolist()


@dataclass
class PolicyStats:
    """Counters common to every mitigation policy."""

    activations_observed: int = 0
    selections: int = 0
    samples_skipped_rate_limit: int = 0


class MitigationPolicy(abc.ABC):
    """Base class for MC-side Rowhammer mitigation logic.

    Lifecycle: the sub-channel controller calls :meth:`bind` once, then
    :meth:`before_activate` for every ACT (row misses only — row-buffer
    hits do not activate) *before* the ACT is issued, and
    :meth:`on_sampled` right after a requested implicit Pre+Sample
    completes.
    """

    name = "base"

    def __init__(self) -> None:
        self.port: MitigationPort | None = None
        self.stats = PolicyStats()

    def bind(self, port: MitigationPort) -> None:
        """Attach the policy to its sub-channel controller."""
        self.port = port

    @abc.abstractmethod
    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        """Tracker check before an ACT; may issue commands via the port.

        Returns ``True`` when the MC must close this row with Pre+Sample
        after the access (implicit sampling of the current activation).
        """

    def on_sampled(self, bank: int, row: int, now_ps: int) -> None:
        """Hook fired after a requested implicit Pre+Sample completed."""

    def summary(self) -> dict[str, float]:
        """Policy statistics for result reporting.

        The mitigation counts are not here: they belong to the
        sub-channel, and
        :meth:`~repro.mc.controller.MemoryController.policy_summaries`
        adds them.
        """
        return {
            "activations": self.stats.activations_observed,
            "selections": self.stats.selections,
        }


class NoMitigation(MitigationPolicy):
    """Unprotected baseline: observe activations, never mitigate."""

    name = "none"

    def before_activate(self, bank: int, row: int, now_ps: int) -> bool:
        self.stats.activations_observed += 1
        return False


@spec_factory
def no_mitigation_factory() -> PolicyFactory:
    """Factory for the unprotected baseline."""
    return lambda context: NoMitigation()
