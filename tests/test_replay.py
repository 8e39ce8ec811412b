"""Replay of recorded activation streams (:mod:`repro.sim.replay`).

The replay path's identity proof: for every golden cell and every
simulation cell of a quick pass, replaying the cell against its
simulated baseline either reports an action — exactly when the
simulated policy issued, sampled or blocked — or returns the
simulation's bytes.  Recording must leave the baseline's bytes alone,
a cell never replays against a baseline of another run system, and one
store serves many threads.
"""

import dataclasses
import os
import sys
import threading

import pytest

from tests import golden_engine
from repro.core.dream_c import dream_c_factory
from repro.exec import runtime as exec_runtime
from repro.exec.executor import Cell, SweepExecutor
from repro.experiments import registry
from repro.experiments.common import RunOptions, default_system
from repro.experiments.table3 import census_factory
from repro.mc.page_policy import PagePolicy
from repro.mc.policy import MitigationPolicy
from repro.sim import replay
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.runner import run_simulation
from repro.trackers.prac import moat_factory
from repro.workloads.builder import build_traces, clear_cache
from repro.workloads.profiles import profile

#: Per-core budget of the quick pass whose cells are replayed.
BUDGET = 800


class _CountingPort:
    """Forwards a policy's port calls and counts its actions."""

    def __init__(self, port, spy: "_Spy") -> None:
        self._port = port
        self._spy = spy

    def __getattr__(self, name):
        return getattr(self._port, name)

    def issue(self, *args, **kwargs):
        self._spy.actions += 1
        return self._port.issue(*args, **kwargs)

    def explicit_sample(self, *args):
        self._spy.actions += 1
        return self._port.explicit_sample(*args)

    def block_bank(self, *args):
        self._spy.actions += 1
        return self._port.block_bank(*args)


class _Spy:
    """A policy factory that counts what its policies do: every
    ``issue``, ``explicit_sample`` and ``block_bank``, and every
    implicit Pre+Sample a policy asks for."""

    def __init__(self, factory) -> None:
        self.factory = factory
        self.actions = 0

    def __call__(self, context):
        policy = self.factory(context)
        bind = policy.bind
        before_activate = policy.before_activate

        def counted(bank, row, now_ps):
            sample = before_activate(bank, row, now_ps)
            self.actions += bool(sample)
            return sample

        policy.bind = lambda port: bind(_CountingPort(port, self))
        policy.before_activate = counted
        return policy


def _check(recording, system, traces, sim, factory, name) -> bool:
    """Simulate and replay one cell; returns whether it replayed."""
    spy = _Spy(factory)
    simulated = run_simulation(system, traces, sim, spy, name)
    replayed = replay.replay(recording, system, sim, factory, name)
    if spy.actions:
        assert replayed is None, f"{name}: acted, yet replayed"
        return False
    assert replayed is not None, f"{name}: never acted, yet simulated"
    assert replayed.to_json() == simulated.to_json(), name
    return True


class TestGoldenCells:
    def test_every_golden_cell(self):
        factories = golden_engine.designs()
        goldens = {record["cell"]: record["result_json"]
                   for record in golden_engine.load_goldens()}
        system = golden_engine._system()
        recordings = {}
        outcomes = []
        for workload, design, seed in golden_engine.cells():
            sim = SimConfig(requests_per_core=golden_engine.
                            REQUESTS_PER_CORE, seed=seed)
            traces = build_traces(workload, system, sim, calibrate=False)
            if (workload, seed) not in recordings:
                recording = replay.record(system, traces, sim)
                # Recording leaves the baseline's bytes alone.
                assert recording.result.to_json() == \
                    goldens[f"{workload}/none/seed{seed}"]
                recordings[workload, seed] = recording
            if factories[design] is None:
                continue
            outcomes.append(_check(recordings[workload, seed], system,
                                   traces, sim, factories[design], design))
        # The golden designs are chosen to mitigate.
        assert outcomes and not any(outcomes)


class _Watcher(MitigationPolicy):
    """Never acts; keeps every tracker check it is shown."""

    def __init__(self) -> None:
        super().__init__()
        self.seen = []

    def before_activate(self, bank, row, now_ps):
        self.seen.append((bank, row, now_ps))
        return False


class TestRecording:
    def test_stream_is_what_a_policy_is_shown(self):
        """Each sub-channel's stream holds exactly the (bank, row, time)
        checks a policy that never acts is given, in order."""
        system = golden_engine._system()
        sim = SimConfig(requests_per_core=golden_engine.
                        REQUESTS_PER_CORE, seed=7)
        traces = build_traces("mcf", system, sim, calibrate=False)
        recording = replay.record(system, traces, sim)
        watchers = []

        def factory(context):
            watchers.append(_Watcher())
            return watchers[-1]

        run_simulation(system, traces, sim, factory, "watch")
        assert len(watchers) == len(recording.streams) == 2
        for watcher, stream in zip(watchers, recording.streams):
            assert watcher.seen == list(zip(stream.banks, stream.rows,
                                            stream.times))
        assert recording.acts == recording.result.activations


class _Capturing(SweepExecutor):
    """An executor that keeps every cell it is given."""

    def __init__(self) -> None:
        super().__init__()
        self.cells = []

    def run_cells(self, cells):
        self.cells.extend(cells)
        return super().run_cells(cells)


@pytest.fixture
def quick_pass_cells(monkeypatch):
    """Every distinct simulation cell of a quick pass on two workloads."""
    clear_cache()
    monkeypatch.setattr("repro.workloads.profiles.QUICK_SUBSET",
                        ("blender", "add"))
    with _Capturing() as executor, exec_runtime.activated(executor):
        for name in registry.names():
            registry.run_experiment(name,
                                    RunOptions(requests_per_core=BUDGET))
    cells = list(dict.fromkeys(cell for cell in executor.cells
                               if isinstance(cell, Cell)))
    yield cells, executor.stats
    clear_cache()


class TestQuickPassCells:
    def test_every_cell_replays_to_its_simulation(self, quick_pass_cells):
        cells, stats = quick_pass_cells
        recordings = {}
        replayed = acted = 0
        for cell in cells:
            if cell.policy is None:
                continue
            key = replay.baseline_key(cell.workload, cell.trace_system,
                                      cell.run_system, cell.sim)
            traces = build_traces(cell.workload, cell.trace_system,
                                  cell.sim)
            if key not in recordings:
                recordings[key] = replay.record(cell.run_system, traces,
                                                cell.sim)
            if _check(recordings[key], cell.run_system, traces, cell.sim,
                      cell.policy, cell.policy_name):
                replayed += 1
            else:
                acted += 1
        assert replayed > 0 and acted > 0
        assert stats.replayed > 0


class TestRunSystems:
    SIM = SimConfig(requests_per_core=300, seed=5)

    def _run(self, cells):
        replay.STORE.clear()
        with SweepExecutor() as executor:
            results = executor.run_cells(cells)
        return results, executor.stats

    def _cell(self, run_system, policy, name):
        system = default_system()
        return Cell(workload=profile("lbm"), trace_system=system,
                    run_system=run_system, sim=self.SIM, policy=policy,
                    policy_name=name)

    def test_same_system_replays(self):
        """A replayed cell counts as computed and replayed, and adds
        nothing to the engine's events or seconds."""
        system = default_system()
        results, stats = self._run([self._cell(system, None, "none"),
                                    self._cell(system, census_factory(),
                                               "census")])
        assert (stats.computed, stats.replayed) == (2, 1)
        assert stats.engine_events == results[0].requests_completed
        assert " replayed=1 " in stats.describe()

    @pytest.mark.parametrize("run_system,policy", [
        (SystemConfig.prac(32), moat_factory(4000)),
        (dataclasses.replace(default_system(),
                             page_policy=PagePolicy.CLOSED),
         census_factory())], ids=["prac", "closed-page"])
    def test_other_run_system_never_replays(self, run_system, policy):
        """A design that never acts, on another run system, is simulated
        there, never served from the trace system's baseline."""
        cell = self._cell(run_system, policy, "other")
        results, stats = self._run([
            self._cell(default_system(), None, "none"), cell])
        assert stats.replayed == 0
        traces = build_traces(cell.workload, cell.trace_system, cell.sim)
        assert results[1].to_json() == run_simulation(
            run_system, traces, cell.sim, policy, "other").to_json()
        assert results[1].finish_times_ps != results[0].finish_times_ps

    def test_telemetry_on_cells_are_simulated(self):
        """With telemetry on, no cell records or replays."""
        from repro.obs import Telemetry
        from repro.obs import runtime as obs_runtime

        system = default_system()
        cells = [self._cell(system, None, "none"),
                 self._cell(system, census_factory(), "census")]
        replay.STORE.clear()
        with SweepExecutor() as executor, \
                obs_runtime.activated(Telemetry()):
            executor.run_cells(cells)
        assert executor.stats.replayed == 0
        assert len(replay.STORE) == 0


class TestStore:
    def _recording(self, acts: int):
        stream = replay.ActivationStream()
        for index in range(acts):
            stream.append(index % 32, index, index)
        return replay.Recording(result=None, streams=(stream,))

    def test_bounded_by_acts_least_recent_first(self):
        store = replay.ReplayStore(capacity_acts=10)
        store.put("a", self._recording(4))
        store.put("b", self._recording(4))
        assert store.get("a") is not None  # "b" is now least recent
        store.put("c", self._recording(4))
        assert store.get("b") is None
        assert store.get("a") is not None and store.get("c") is not None
        assert store.acts == 8
        store.put("huge", self._recording(11))
        assert store.get("huge") is None and store.acts == 8

    def test_forked_worker_gets_a_free_lock(self):
        """A pool worker forked while another thread holds the store's
        lock must not inherit it held."""
        with replay.STORE._lock:
            pid = os.fork()
            if pid == 0:
                free = replay.STORE._lock.acquire(timeout=10)
                os._exit(0 if free else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_replacing_a_key_keeps_the_count(self):
        store = replay.ReplayStore(capacity_acts=10)
        store.put("a", self._recording(4))
        store.put("a", self._recording(6))
        assert store.acts == 6 and len(store) == 1


def test_threads_record_and_replay_through_one_store():
    """More threads than cores record into and replay from one small
    store (it evicts as they go), with the interpreter switching
    threads far more often than usual: every thread gets the serial
    results."""
    system = SystemConfig.baseline(refs_per_window=32, num_cores=2)
    jobs = [(workload, seed) for workload in ("mcf", "lbm")
            for seed in (1, 2)]
    designs = {"census": census_factory(),
               "dream-c": dream_c_factory(16, vertical=1)}

    def run(workload, seed, store):
        sim = SimConfig(requests_per_core=150, seed=seed)
        traces = build_traces(workload, system, sim, calibrate=False)
        key = (workload, seed)
        recording = store.get(key)
        if recording is None:
            recording = replay.record(system, traces, sim)
            store.put(key, recording)
        out = [recording.result.to_json()]
        for name, factory in designs.items():
            result = replay.replay(recording, system, sim, factory, name)
            out.append(None if result is None else result.to_json())
        return out

    expected, sizes = {}, []
    for job in jobs:
        private = replay.ReplayStore()
        expected[job] = run(*job, private)
        sizes.append(private.acts)
    assert any(row[1] is not None for row in expected.values())
    # Room for two of the four recordings, so the threads evict.
    store = replay.ReplayStore(capacity_acts=2 * max(sizes))
    failures = []

    def worker(offset):
        try:
            for step in range(2 * len(jobs)):
                job = jobs[(offset + step) % len(jobs)]
                if run(*job, store) != expected[job]:
                    failures.append(job)
        except Exception as error:  # noqa: BLE001 — reported below
            failures.append(error)

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(2 * (os.cpu_count() or 1) + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # A lost update would leave the ACT count off what the store holds.
    held = [store.get(job) for job in jobs]
    assert store.acts == sum(recording.acts for recording in held
                             if recording is not None)
    assert 0 < store.acts <= store.capacity_acts
