"""Simulation runner: wire cores, MC and policies together and run.

The run is a closed queueing network (see :mod:`repro.cpu.core`): every
MLP slot of every core cycles between thinking and memory service.  The
event queue orders slot wake-ups; request service is computed
synchronously against the bank state machines, which is exact for the
arrival-ordered, per-bank-FIFO scheduling this model uses.

Two implementations of the event loop live here:

* :func:`run_simulation` — the optimized hot path.  It keeps the event
  heap as a bare list of packed ``(time, sequence, core, subchannel,
  bank, row)`` tuples, services the event at ``heap[0]`` in place and
  swaps in the slot's next event with one :func:`heapq.heapreplace`
  (:func:`heapq.heappop` only once the core is draining).  It inlines
  the fetch bookkeeping of :meth:`~repro.cpu.core.Core.fetch` against
  the trace's flat Python-int columns — zero allocations per event
  beyond the heap entry itself.
* :func:`run_simulation_reference` — the straightforward loop over
  :class:`~repro.sim.engine.EventQueue` and
  :meth:`~repro.cpu.core.Core.fetch` the optimized path was derived
  from.  It is the executable specification: both must produce
  **byte-identical** :meth:`~repro.sim.results.RunResult.to_json` and
  telemetry output for any input (``tests/test_engine_identity.py``
  and the checked-in goldens under ``tests/data/goldens/`` pin this).
  Both loops share the controller and the policies, so only the
  goldens, which cover the coupled baselines, DREAM-C and DREAM-R, pin
  the per-request service and tracker code.

Per request, the loop costs one
:meth:`~repro.mc.controller.SubChannelController.service` call (which
also does the data-bus burst inline) and one heap sift; a row miss adds
the bank commands and one tracker check.

Invariants any further optimization must keep (see
``docs/architecture.md``):

* events at equal timestamps are serviced in FIFO push order (the
  sequence tie-break);
* per-core fetch order follows completion order exactly (a slot fetches
  its next request the moment its previous one completes);
* the in-service event stays in the heap until its successor replaces
  it, so the timeline's ``queue_depth`` is ``len(heap) - 1``; a core's
  ``completed`` counts only its last ``min(mlp, budget)`` completions
  live and is derived from ``issued`` for the rest (also when the loop
  raises);
* telemetry reads simulator state but never steers it, and the
  timeline's ``queue_depth`` closure is detached even when a policy or
  bank model raises;
* recording a policy-less run's activation streams reads state and
  never steers it, and a replayed result equals the simulated one byte
  for byte (:mod:`repro.sim.replay`);
* the controller owns the data bus; a generator served through
  :func:`~repro.mc.policy.uniform_draws` draws nothing else; DREAM-C's
  DCT and gang masks are lists of Python ints.
"""

from __future__ import annotations

from contextlib import nullcontext
from heapq import heappop, heappush, heapreplace

from repro.cpu.core import Core
from repro.mc.controller import MemoryController
from repro.mc.policy import PolicyFactory
from repro.obs import runtime as obs_runtime
from repro.obs.spans import ENGINE_LOOP, KIND_ENGINE
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.engine import EventQueue
from repro.sim.results import ComparisonResult, RunResult
from repro.workloads.trace import MemoryTrace


def _setup(system: SystemConfig, traces: list[MemoryTrace],
           sim: SimConfig, policy_factory: PolicyFactory | None,
           policy_name: str, telemetry):
    """Shared run preamble: validate, begin telemetry, build MC+cores."""
    if len(traces) != system.num_cores:
        raise ValueError(
            f"expected {system.num_cores} traces, got {len(traces)}")
    if telemetry is None:
        telemetry = obs_runtime.active()
    workload = traces[0].name if traces else "empty"
    if telemetry is not None:
        telemetry.begin_run(workload, policy_name, sim.seed)
    mc = MemoryController(system.organization, system.timing,
                          policy_factory, seed=sim.seed,
                          page_policy=system.page_policy,
                          telemetry=telemetry)
    cores = [Core(i, traces[i], sim.requests_per_core, system.mlp_per_core)
             for i in range(system.num_cores)]
    return mc, cores, workload, telemetry


def _finishing(telemetry):
    """The ``engine:finish`` span around :func:`_finish` (a no-op
    context without telemetry)."""
    if telemetry is None:
        return nullcontext()
    return telemetry.spans.span("engine:finish", kind=KIND_ENGINE)


def _finish(mc, cores, workload: str, policy_name: str, completed: int,
            end_time: int, system: SystemConfig, telemetry) -> RunResult:
    """Shared run epilogue: assemble the result, close out telemetry."""
    finish_times = [core.finish_time_ps if core.finish_time_ps is not None
                    else end_time for core in cores]
    result = RunResult(
        workload=workload,
        policy=policy_name,
        finish_times_ps=finish_times,
        end_time_ps=end_time,
        requests_completed=completed,
        activations=mc.total_activations(),
        row_hits=mc.total_row_hits(),
        row_conflicts=mc.total_row_conflicts(),
        mitigation_commands=mc.total_mitigation_commands(),
        rows_mitigated=mc.device.total_mitigated_rows(),
        average_rlp=mc.average_rlp(),
        bus_busy_ps=mc.bus_busy_ps(),
        subchannels=system.organization.subchannels,
        policy_summaries=mc.policy_summaries(),
    )
    if telemetry is not None:
        telemetry.end_run(result, events=completed,
                          subchannels=[controller.subchannel
                                       for controller in mc.controllers
                                       if controller.policy is not None])
    return result


def run_simulation(system: SystemConfig, traces: list[MemoryTrace],
                   sim: SimConfig,
                   policy_factory: PolicyFactory | None = None,
                   policy_name: str = "none",
                   telemetry=None, streams=None) -> RunResult:
    """Run one closed-loop simulation to completion.

    Parameters
    ----------
    system:
        Hardware shape (timing, organization, cores, MLP).
    traces:
        One trace per core (wraps if shorter than the request budget).
    sim:
        Request budget and seed.
    policy_factory:
        Mitigation policy to install per sub-channel (``None`` for the
        unprotected baseline).
    policy_name:
        Label recorded in the result.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  When ``None``, the
        ambient instance (:mod:`repro.obs.runtime`) is used if one has
        been activated; otherwise the run is entirely uninstrumented.
        Telemetry only reads simulator state, so the returned
        :class:`RunResult` is bit-identical with it on or off.
    streams:
        Optional per-sub-channel
        :class:`~repro.sim.replay.ActivationStream` objects: a run
        without a policy appends each ACT to its sub-channel's stream
        (see :mod:`repro.sim.replay`).  Recording only reads simulator
        state, so the result is bit-identical with it on or off.
    """
    mc, cores, workload, telemetry = _setup(system, traces, sim,
                                            policy_factory, policy_name,
                                            telemetry)
    controllers = mc.controllers
    if streams is not None:
        for controller, stream in zip(controllers, streams):
            controller.record_act = stream.append
    # Bare-list heap of (time, sequence, core, sub, bank, row) tuples:
    # unique monotone sequence numbers reproduce EventQueue's FIFO
    # tie-break exactly (comparison never reaches the payload).
    heap: list[tuple[int, int, int, int, int, int]] = []
    sequence = 0
    for core in cores:
        sub_col = core.sub_col
        bank_col = core.bank_col
        row_col = core.row_col
        gap_col = core.gap_col
        length = core._length
        for _ in range(core.mlp):
            if core.issued >= core.budget:
                break
            index = core.issued % length
            core.issued += 1
            heappush(heap, (gap_col[index], sequence, core.core_id,
                            sub_col[index], bank_col[index],
                            row_col[index]))
            sequence += 1
        # The completions before the core drains are derived from
        # ``issued`` in the ``finally`` below; only the drain counts.
        core.completed = core.budget - core.issued
    loop_span = None
    if telemetry is not None:
        # The event in service is still at heap[0] (see the loop).
        telemetry.timeline.queue_depth = lambda: len(heap) - 1
        # Span begin/end brackets the loop — zero per-event cost.
        loop_span = telemetry.spans.begin(ENGINE_LOOP, kind=KIND_ENGINE)
    end_time = 0
    try:
        while heap:
            now, _, core_index, sub, bank, row = heap[0]
            finish = controllers[sub].service(bank, row, now)
            if finish > end_time:
                end_time = finish
            core = cores[core_index]
            issued = core.issued
            if issued < core.budget:
                index = issued % core._length
                core.issued = issued + 1
                heapreplace(heap, (finish + core.gap_col[index], sequence,
                                   core_index, core.sub_col[index],
                                   core.bank_col[index],
                                   core.row_col[index]))
                sequence += 1
            else:
                heappop(heap)
                core.completed += 1
                if core.completed >= core.budget:
                    core.finish_time_ps = finish
    finally:
        # Every pushed event not in the heap has completed (a raising
        # service leaves its event at heap[0]).  A core that had not
        # started draining has ``min(mlp, budget)`` requests in flight.
        completed = sequence - len(heap)
        for core in cores:
            if core.issued < core.budget:
                core.completed = core.issued - min(core.mlp, core.budget)
        # Always detach the queue-depth closure: leaving it behind after
        # a policy/bank exception would leak a dead heap into a shared
        # Telemetry and poison later runs' timeline samples.
        if telemetry is not None:
            telemetry.timeline.queue_depth = None
            telemetry.spans.end(loop_span, meta={"events": completed})
    with _finishing(telemetry):
        return _finish(mc, cores, workload, policy_name, completed,
                       end_time, system, telemetry)


def run_simulation_reference(system: SystemConfig,
                             traces: list[MemoryTrace],
                             sim: SimConfig,
                             policy_factory: PolicyFactory | None = None,
                             policy_name: str = "none",
                             telemetry=None) -> RunResult:
    """Reference event loop (pre-overhaul code path).

    Semantically identical to :func:`run_simulation` but written against
    the plain :class:`EventQueue`/:meth:`Core.fetch` API, with the
    scheduling-in-the-past guard active.  Kept as the executable
    specification for the byte-identity tests; use it when debugging a
    suspected hot-path divergence.
    """
    mc, cores, workload, telemetry = _setup(system, traces, sim,
                                            policy_factory, policy_name,
                                            telemetry)
    queue = EventQueue()
    for core in cores:
        for slot in range(core.mlp):
            fetched = core.fetch(slot)
            if fetched is None:
                break
            request, gap = fetched
            queue.push(gap, request)
    loop_span = None
    if telemetry is not None:
        telemetry.timeline.queue_depth = lambda: len(queue)
        loop_span = telemetry.spans.begin(ENGINE_LOOP, kind=KIND_ENGINE)
    completed = 0
    end_time = 0
    try:
        while queue:
            now, request = queue.pop()
            finish = mc.service(request.subchannel, request.bank,
                                request.row, now)
            core = cores[request.core]
            core.complete(finish)
            completed += 1
            if finish > end_time:
                end_time = finish
            fetched = core.fetch(request.slot)
            if fetched is not None:
                next_request, gap = fetched
                queue.push(finish + gap, next_request)
    finally:
        if telemetry is not None:
            telemetry.timeline.queue_depth = None
            telemetry.spans.end(loop_span, meta={"events": completed})
    with _finishing(telemetry):
        return _finish(mc, cores, workload, policy_name, completed,
                       end_time, system, telemetry)


def run_comparison(system: SystemConfig, traces: list[MemoryTrace],
                   sim: SimConfig, policy_factory: PolicyFactory,
                   policy_name: str,
                   baseline: RunResult | None = None) -> ComparisonResult:
    """Run a mitigated configuration against the unprotected baseline.

    The baseline run can be passed in (and reused across policies for the
    same workload/seed) or computed on the fly.
    """
    if baseline is None:
        baseline = run_simulation(system, traces, sim)
    mitigated = run_simulation(system, traces, sim, policy_factory,
                               policy_name)
    return ComparisonResult(baseline=baseline, mitigated=mitigated)
