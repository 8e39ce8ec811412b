"""Unit tests for the discrete-event queue.

Beyond the basic API, these pin the ordering contract the optimized
``run_simulation`` loop inlines (bare-list heap + module-level heapq +
monotone sequence tie-break): the golden-ordering fixtures replay
recorded event sequences and assert the exact service order, and the
protocol-equivalence test drives the inlined idiom side by side with
``EventQueue`` itself.
"""

from heapq import heappop, heappush, heapreplace

import pytest

from repro.sim.engine import EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(30, "c")
        queue.push(10, "a")
        queue.push(20, "b")
        assert [queue.pop() for _ in range(3)] == [
            (10, "a"), (20, "b"), (30, "c")]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        queue.push(10, "first")
        queue.push(10, "second")
        queue.push(10, "third")
        assert [payload for _, payload in queue.drain()] == [
            "first", "second", "third"]

    def test_now_tracks_pops(self):
        queue = EventQueue()
        queue.push(100, None)
        queue.pop()
        assert queue.now_ps == 100


class TestSafety:
    def test_rejects_scheduling_in_past(self):
        queue = EventQueue()
        queue.push(100, None)
        queue.pop()
        with pytest.raises(ValueError, match="cannot schedule"):
            queue.push(50, None)

    def test_allows_scheduling_at_now(self):
        queue = EventQueue()
        queue.push(100, "a")
        queue.pop()
        queue.push(100, "b")
        assert queue.pop() == (100, "b")

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestIntrospection:
    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        assert len(queue) == 0
        queue.push(1, None)
        assert queue
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(42, None)
        assert queue.peek_time() == 42

    def test_drain_consumes_everything(self):
        queue = EventQueue()
        for t in (3, 1, 2):
            queue.push(t, t)
        assert [t for t, _ in queue.drain()] == [1, 2, 3]
        assert not queue


#: A recorded closed-loop schedule: ("push", time, payload) entries
#: interleaved with ("pop",) service points, exactly the shape the
#: engine loop produces (pops re-arm pushes at later times).  Ties at
#: t=40 and t=55 pin the FIFO tie-break.
GOLDEN_SCHEDULE = [
    ("push", 10, "c0s0"), ("push", 10, "c0s1"), ("push", 25, "c1s0"),
    ("pop",), ("push", 40, "c0s0'"),
    ("pop",), ("push", 40, "c0s1'"),
    ("push", 40, "c1s1"),
    ("pop",), ("push", 55, "c1s0'"),
    ("pop",), ("push", 55, "c0s0''"),
    ("pop",), ("push", 55, "c0s1''"),
    ("pop",), ("pop",), ("pop",), ("pop",),
]

#: The service order the schedule must produce, forever.
GOLDEN_ORDER = [
    (10, "c0s0"), (10, "c0s1"), (25, "c1s0"),
    (40, "c0s0'"), (40, "c0s1'"), (40, "c1s1"),
    (55, "c1s0'"), (55, "c0s0''"), (55, "c0s1''"),
]


class TestGoldenOrdering:
    def test_recorded_sequence_replays_identically(self):
        queue = EventQueue()
        popped = []
        for step in GOLDEN_SCHEDULE:
            if step[0] == "push":
                queue.push(step[1], step[2])
            else:
                popped.append(queue.pop())
        assert popped == GOLDEN_ORDER
        assert not queue

    def test_inlined_bare_heap_matches_event_queue(self):
        """The run_simulation idiom — heappush/heappop on ``.heap``
        with a manual sequence counter — must order identically to the
        push/pop API for the same schedule."""
        queue = EventQueue()
        heap = queue.heap
        sequence = 0
        popped = []
        for step in GOLDEN_SCHEDULE:
            if step[0] == "push":
                heappush(heap, (step[1], sequence, step[2]))
                sequence += 1
            else:
                time_ps, _, payload = heappop(heap)
                popped.append((time_ps, payload))
        assert popped == GOLDEN_ORDER

    def test_peek_and_replace_matches_event_queue(self):
        """The run_simulation idiom — service ``heap[0]`` in place, then
        ``heapreplace`` the slot's next event over it, or ``heappop``
        when none follows — must order identically too."""
        heap = []
        sequence = 0
        popped = []
        steps = list(GOLDEN_SCHEDULE)
        while steps:
            step = steps.pop(0)
            if step[0] == "push":
                heappush(heap, (step[1], sequence, step[2]))
                sequence += 1
                continue
            time_ps, _, payload = heap[0]
            popped.append((time_ps, payload))
            if steps and steps[0][0] == "push":
                _, next_time, next_payload = steps.pop(0)
                heapreplace(heap, (next_time, sequence, next_payload))
                sequence += 1
            else:
                heappop(heap)
        assert popped == GOLDEN_ORDER
        assert not heap

    def test_interleaved_pushes_preserve_global_fifo(self):
        """Payloads pushed at one timestamp across separate bursts pop
        in overall push order, not per-burst order."""
        queue = EventQueue()
        queue.push(7, "a")
        queue.push(9, "x")
        queue.push(7, "b")
        assert queue.pop() == (7, "a")
        queue.push(9, "y")
        queue.push(7, "c")
        assert [payload for _, payload in queue.drain()] == [
            "b", "c", "x", "y"]
