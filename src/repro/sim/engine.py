"""Minimal discrete-event engine (integer-picosecond clock).

The memory-system simulation is a closed queueing network: each core owns a
handful of MLP slots that cycle between *thinking* (compute between LLC
misses) and *being serviced* by the memory controller.  The engine is a
plain binary heap of ``(time, sequence, payload)`` entries; the sequence
number makes ordering deterministic for simultaneous events, which keeps
every simulation bit-reproducible for a given seed.

The heap is deliberately exposed as the public :attr:`EventQueue.heap`
list: the hot loop in :func:`repro.sim.runner.run_simulation` operates on
a bare list with the module-level :mod:`heapq` functions (one
:func:`heapq.heapreplace` per event) and a manually threaded sequence
counter, skipping the per-event method-call overhead of this wrapper.
``EventQueue`` is the reference container (and the one non-hot-path
callers should use); any alternative loop must preserve its ordering
contract — ascending time, FIFO among equal timestamps — which
``tests/test_engine.py`` pins with golden-ordering fixtures.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterator


class EventQueue:
    """A deterministic time-ordered event queue.

    Events are arbitrary payloads scheduled at integer-picosecond times.
    Ties are broken by insertion order so that two events scheduled for the
    same instant are always popped in the order they were pushed.
    """

    __slots__ = ("heap", "_sequence", "now_ps")

    def __init__(self) -> None:
        #: The bare ``(time_ps, sequence, payload)`` binary heap.
        self.heap: list[tuple[int, int, Any]] = []
        self._sequence = 0
        self.now_ps = 0

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)

    def push(self, time_ps: int, payload: Any) -> None:
        """Schedule ``payload`` at ``time_ps``.

        Scheduling in the past is a programming error and raises
        :class:`ValueError`; it would silently reorder causality otherwise.
        """
        if time_ps < self.now_ps:
            raise ValueError(
                f"cannot schedule event at {time_ps} ps; now is "
                f"{self.now_ps} ps")
        heappush(self.heap, (time_ps, self._sequence, payload))
        self._sequence += 1

    def pop(self) -> tuple[int, Any]:
        """Remove and return the earliest ``(time_ps, payload)`` pair."""
        if not self.heap:
            raise IndexError("pop from an empty event queue")
        time_ps, _, payload = heappop(self.heap)
        self.now_ps = time_ps
        return time_ps, payload

    def peek_time(self) -> int | None:
        """Time of the earliest pending event, or ``None`` if empty."""
        if not self.heap:
            return None
        return self.heap[0][0]

    def drain(self) -> Iterator[tuple[int, Any]]:
        """Iterate over all events in time order, consuming them."""
        while self.heap:
            yield self.pop()
