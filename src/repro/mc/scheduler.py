"""Queued memory scheduling: FCFS and FR-FCFS.

The main performance sweeps use the closed-loop arrival-order model of
:mod:`repro.sim.runner`, which captures bank blocking — the first-order
effect behind every result in the paper.  This module provides the
classic *queued* scheduler substrate for studies that need reordering:
requests buffer in per-sub-channel queues and a policy picks what to
issue whenever a bank becomes ready.

* **FCFS** — strictly oldest-first.
* **FR-FCFS** — *first-ready*: row-buffer hits first (oldest hit), then
  the oldest remaining request whose bank is available.

FR-FCFS raises the row-hit rate on locality-rich streams (fewer ACTs —
which also means fewer tracker events), at the cost of potential
starvation that real controllers cap; the cap is modelled with a simple
maximum-reorder window.

The queue is kept ordered by arrival time, ties in enqueue order.  The
requests that have arrived are then always a prefix of it, so one issue
decision inspects at most ``reorder_window`` requests however long the
queue grows.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass

from repro.mc.controller import SubChannelController


class SchedulingPolicy(enum.Enum):
    """Queue service order."""

    FCFS = "fcfs"
    FR_FCFS = "fr-fcfs"


@dataclass(slots=True)
class QueuedRequest:
    """One buffered request awaiting issue (per-request hot payload)."""

    arrival_ps: int
    bank: int
    row: int
    tag: int = 0
    issued_ps: int | None = None
    finish_ps: int | None = None

    @property
    def latency_ps(self) -> int:
        """Arrival-to-data latency (only valid once finished)."""
        if self.finish_ps is None:
            raise RuntimeError("request has not finished")
        return self.finish_ps - self.arrival_ps


@dataclass
class SchedulerStats:
    """Aggregate scheduling outcomes."""

    issued: int = 0
    total_latency_ps: int = 0
    row_hit_issues: int = 0
    reorders: int = 0

    @property
    def average_latency_ps(self) -> float:
        return self.total_latency_ps / self.issued if self.issued else 0.0


class QueuedScheduler:
    """Open-loop queued front end over a sub-channel controller.

    Usage: ``enqueue`` requests (any order of arrival times), then
    ``run`` to drain the queue.  The scheduler advances time to the next
    point where some request can issue and picks per the policy.
    """

    def __init__(self, controller: SubChannelController,
                 policy: SchedulingPolicy = SchedulingPolicy.FR_FCFS,
                 reorder_window: int = 16) -> None:
        if reorder_window < 1:
            raise ValueError("reorder_window must be positive")
        self.controller = controller
        self.policy = policy
        self.reorder_window = reorder_window
        #: Pending requests by arrival time, ties in enqueue order.
        self.queue: list[QueuedRequest] = []
        self.stats = SchedulerStats()
        self.now_ps = 0

    def enqueue(self, request: QueuedRequest) -> None:
        """Add a request to the queue."""
        insort(self.queue, request, key=lambda queued: queued.arrival_ps)

    def _candidates(self) -> list[QueuedRequest]:
        """Arrived requests, oldest first, capped to the reorder window."""
        candidates = self.queue[:self.reorder_window]
        for index, request in enumerate(candidates):
            if request.arrival_ps > self.now_ps:
                return candidates[:index]
        return candidates

    def _pick(self, candidates: list[QueuedRequest]) -> int:
        """Index (in ``candidates`` and the queue) of the next issue."""
        if self.policy is SchedulingPolicy.FCFS:
            return 0
        banks = self.controller.subchannel.banks
        for index, request in enumerate(candidates):
            if banks[request.bank].open_row == request.row:
                if index:
                    self.stats.reorders += 1
                self.stats.row_hit_issues += 1
                return index
        return 0

    def step(self) -> QueuedRequest | None:
        """Issue one request; returns it, or ``None`` if queue is empty."""
        if not self.queue:
            return None
        # Nothing arrived yet: advance to the next arrival.
        self.now_ps = max(self.now_ps, self.queue[0].arrival_ps)
        request = self.queue.pop(self._pick(self._candidates()))
        request.issued_ps = self.now_ps
        request.finish_ps = self.controller.service(request.bank,
                                                    request.row,
                                                    self.now_ps)
        # The next issue decision happens when this access's column
        # command completes (command-bus granularity of the model).
        self.now_ps = max(self.now_ps, request.finish_ps
                          - self.controller.timing.t_bus)
        self.stats.issued += 1
        self.stats.total_latency_ps += request.latency_ps
        return request

    def run(self) -> list[QueuedRequest]:
        """Drain the queue; returns the issued requests in issue order."""
        finished = []
        while self.queue:
            request = self.step()
            if request is not None:
                finished.append(request)
        return finished
