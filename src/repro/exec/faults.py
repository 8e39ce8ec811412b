"""Deterministic fault injection for sweep cells.

The resilience layer (:mod:`repro.exec.resilience`) is only trustworthy
if its failure paths are exercised, and real worker crashes are not
reproducible on demand.  This module injects failures *deterministically
by cell fingerprint*: a fault plan is a list of directives, each naming a
failure kind, a fingerprint selector and how many attempts it poisons.
Because fingerprints are content-addressed
(:mod:`repro.exec.fingerprint`), the same plan fails the same cells in
the same way on every machine, every run.

Plans come from the ``REPRO_FAULTS`` environment variable (read at cell
execution time, so worker processes inherit it across the fork) or are
installed in-process with :func:`install` for tests.  Directive grammar::

    REPRO_FAULTS="kind:selector[:count][@seconds];..."

* ``kind`` — one of

  - ``crash``   — raise :class:`InjectedCrash` before the simulation
    starts (an exception crossing the worker boundary);
  - ``abort``   — hard-kill the worker process with ``os._exit`` (breaks
    the whole pool: exercises :class:`BrokenProcessPool` handling and the
    serial fallback).  Outside a worker it degrades to ``crash`` so a
    fault plan can never kill the parent;
  - ``hang``    — sleep ``seconds`` (default 30) before running, so a
    per-cell timeout fires; without a timeout the cell is merely slow;
  - ``corrupt`` — skip the cell's work and return a non-result sentinel,
    which the executor's result validation rejects.

* ``selector`` — a hex fingerprint prefix, or ``*`` for every cell.
* ``count`` — number of initial attempts to poison (default 1), so a
  retried cell succeeds once its attempt index reaches ``count``.
* ``@seconds`` — hang duration (``hang`` only).

Directives are matched in order; the first match wins, so specific
selectors should precede ``*`` catch-alls.  Examples::

    REPRO_FAULTS="crash:*:1"            # every cell crashes once
    REPRO_FAULTS="hang:ab@2;corrupt:cd" # fp ab... hangs 2s, cd... corrupts
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

#: Environment variable holding the ambient fault plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Default sleep of a ``hang`` fault, chosen to exceed any sane per-cell
#: timeout while still letting an un-timed-out run finish eventually.
DEFAULT_HANG_SECONDS = 30.0


class CorruptResult:
    """What a ``corrupt`` fault returns in place of a cell's result.

    Neither a :class:`~repro.sim.results.RunResult` nor plain JSON data,
    so result validation rejects it for either cell kind.
    """

    def __repr__(self) -> str:
        return "<corrupted-by-fault-injection>"


#: The ``corrupt`` fault's stand-in result.
CORRUPT_SENTINEL = CorruptResult()

KINDS = ("crash", "abort", "hang", "corrupt")

#: Set by the executor's worker initializer; gates ``abort`` so a fault
#: plan can only ever kill worker processes, never the parent.
_in_worker = False

#: In-process plan installed by tests (wins over the environment).
_installed: "FaultPlan | None" = None


class FaultError(ValueError):
    """Raised for an unparseable fault directive."""


class InjectedCrash(RuntimeError):
    """The exception raised by a ``crash`` (or inline ``abort``) fault."""


@dataclass(frozen=True)
class Fault:
    """One fault directive: kind, fingerprint selector, attempt budget."""

    kind: str
    selector: str
    count: int = 1
    seconds: float = DEFAULT_HANG_SECONDS

    def matches(self, fp: str, attempt: int) -> bool:
        """Whether this fault poisons ``fp``'s ``attempt`` (0-based)."""
        if attempt >= self.count:
            return False
        return self.selector == "*" or fp.startswith(self.selector)

    def describe(self) -> str:
        text = f"{self.kind}:{self.selector}"
        if self.count != 1:
            text += f":{self.count}"
        if self.kind == "hang" and self.seconds != DEFAULT_HANG_SECONDS:
            text += f"@{self.seconds:g}"
        return text


def _parse_directive(directive: str) -> Fault:
    spec, _, arg = directive.partition("@")
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise FaultError(
            f"bad fault directive {directive!r} "
            f"(expected kind:selector[:count][@seconds])")
    kind, selector = parts[0].strip(), parts[1].strip()
    if kind not in KINDS:
        raise FaultError(f"unknown fault kind {kind!r} "
                         f"(expected one of {', '.join(KINDS)})")
    if not selector:
        raise FaultError(f"empty selector in fault directive {directive!r}")
    count = 1
    if len(parts) == 3:
        try:
            count = int(parts[2])
        except ValueError:
            raise FaultError(f"bad count in fault directive "
                             f"{directive!r}") from None
        if count < 1:
            raise FaultError(f"count must be >= 1 in {directive!r}")
    seconds = DEFAULT_HANG_SECONDS
    if arg:
        if kind != "hang":
            raise FaultError(f"@seconds only applies to hang faults: "
                             f"{directive!r}")
        try:
            seconds = float(arg)
        except ValueError:
            raise FaultError(f"bad seconds in fault directive "
                             f"{directive!r}") from None
        if seconds <= 0:
            raise FaultError(f"seconds must be > 0 in {directive!r}")
    return Fault(kind=kind, selector=selector, count=count, seconds=seconds)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered list of fault directives (first match wins)."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS``-style directive string."""
        directives = [piece.strip()
                      for piece in spec.replace(",", ";").split(";")
                      if piece.strip()]
        return cls(faults=tuple(_parse_directive(d) for d in directives))

    def fault_for(self, fp: str | None, attempt: int) -> Fault | None:
        """The first directive poisoning ``fp`` at ``attempt``, if any."""
        if fp is None:
            return None
        for fault in self.faults:
            if fault.matches(fp, attempt):
                return fault
        return None

    def describe(self) -> str:
        return ";".join(fault.describe() for fault in self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)


def install(plan: FaultPlan | None) -> None:
    """Install an in-process fault plan (``None`` to clear).

    Wins over ``REPRO_FAULTS``; used by tests that inject into inline
    execution without touching the environment.
    """
    global _installed
    _installed = plan


def mark_worker() -> None:
    """Record that this process is a pool worker (enables ``abort``)."""
    global _in_worker
    _in_worker = True


def active_plan() -> FaultPlan | None:
    """The effective fault plan: installed, else parsed from the env."""
    if _installed is not None:
        return _installed
    spec = os.environ.get(FAULTS_ENV, "")
    if not spec:
        return None
    return FaultPlan.parse(spec)


def inject_before(fp: str | None, attempt: int) -> Fault | None:
    """Apply any pre-execution fault for (``fp``, ``attempt``).

    Raises for ``crash``, exits the process for ``abort`` (worker only;
    degrades to ``crash`` in the parent), sleeps for ``hang``.  Returns
    the matched ``corrupt`` fault — the caller substitutes the sentinel —
    or ``None`` when the cell is clean.
    """
    plan = active_plan()
    fault = plan.fault_for(fp, attempt) if plan else None
    if fault is None:
        return None
    if fault.kind == "abort" and _in_worker:
        os._exit(13)
    if fault.kind in ("crash", "abort"):
        raise InjectedCrash(
            f"injected {fault.kind} for cell {fp[:12]} "
            f"(attempt {attempt})")
    if fault.kind == "hang":
        time.sleep(fault.seconds)
        return None
    return fault  # corrupt
