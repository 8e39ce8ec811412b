"""Byte-identity contract of the engine hot paths.

The PR-5 overhaul (packed heap tuples, inlined fetch, row-hit fast
path, cached refresh deadline) must be invisible in simulated output:
``run_simulation`` and the pre-overhaul reference loop
(:func:`~repro.sim.runner.run_simulation_reference`) must produce
byte-identical :meth:`~repro.sim.results.RunResult.to_json`, journals
and metrics, and both must match the checked-in goldens generated by
the seed code (``tests/data/goldens/``, see ``tests/golden_engine.py``).

The deprecated :func:`~repro.sim.batched.run_batch`, which 3.0 keeps
only because the end-to-end benchmark's tracer wraps it, stays under the
same contract until it is removed.
"""

import json

import pytest

from tests import golden_engine
from repro.cpu.core import Core
from repro.mc.mitigation import coupled_mint_factory
from repro.mc.policy import PolicyStats
from repro.obs import Telemetry
from repro.obs.spans import ENGINE_LOOP
from repro.sim import runner as runner_module
from repro.sim.batched import BatchItem, run_batch
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.runner import run_simulation, run_simulation_reference
from repro.workloads.builder import build_traces

GRID = golden_engine.cells()


def _run_batch_of_one(system, traces, sim, policy_factory=None,
                      policy_name="none", telemetry=None):
    """One ``run_simulation`` call made through ``run_batch``."""
    [result] = run_batch(system, [BatchItem(
        traces=traces, sim=sim, policy_factory=policy_factory,
        policy_name=policy_name, telemetry=telemetry)])
    return result


#: Engine entry points under test, against the reference loop.
BACKEND_RUNNERS = {"optimized": run_simulation,
                   "batched": _run_batch_of_one}

pytestmark = pytest.mark.filterwarnings(
    "ignore:run_batch is deprecated:DeprecationWarning")


def _run(runner, workload, design, seed, telemetry=None):
    system = golden_engine._system()
    sim = SimConfig(requests_per_core=golden_engine.REQUESTS_PER_CORE,
                    seed=seed)
    traces = build_traces(workload, system, sim, calibrate=False)
    factory = golden_engine.designs()[design]
    return runner(system, traces, sim, factory, design,
                  telemetry=telemetry)


class TestBackendsMatchReference:
    @pytest.mark.parametrize("backend", list(BACKEND_RUNNERS),
                             ids=list(BACKEND_RUNNERS))
    @pytest.mark.parametrize(
        "workload,design,seed", GRID,
        ids=[f"{w}-{d}-s{s}" for w, d, s in GRID])
    def test_results_byte_identical(self, workload, design, seed,
                                    backend):
        optimized = _run(BACKEND_RUNNERS[backend], workload, design,
                         seed)
        reference = _run(run_simulation_reference, workload, design,
                         seed)
        assert optimized.to_json() == reference.to_json()

    @pytest.mark.parametrize("backend", list(BACKEND_RUNNERS),
                             ids=list(BACKEND_RUNNERS))
    def test_journal_and_metrics_byte_identical(self, backend):
        for cell in golden_engine.JOURNAL_CELLS:
            optimized = golden_engine.compute_journal(
                cell, BACKEND_RUNNERS[backend])
            reference = golden_engine.compute_journal(
                cell, run_simulation_reference)
            assert optimized == reference, f"journal diverged on {cell}"


class TestGoldens:
    """Live code versus the goldens the seed commit generated."""

    @pytest.mark.parametrize("runner", list(BACKEND_RUNNERS.values()),
                             ids=["scalar", "batched"])
    def test_results_match_goldens(self, runner):
        golden_records = golden_engine.load_goldens()
        live = {record["cell"]: record["result_json"]
                for record in golden_engine.compute_results(runner)}
        for record in golden_records:
            assert live[record["cell"]] == record["result_json"], \
                f"engine output diverged on {record['cell']}"
        assert len(live) == len(golden_records)

    def test_every_dream_cell_mitigates(self):
        # A DREAM golden that never mitigates would pin no policy bytes.
        golden_records = golden_engine.load_goldens()
        commands = {record["cell"]:
                    json.loads(record["result_json"])["mitigation_commands"]
                    for record in golden_records}
        dream = golden_engine.dream_designs()
        dream_cells = [f"{workload}/{design}/seed{seed}"
                       for workload, design, seed in GRID
                       if design in dream]
        assert len(dream_cells) == 28
        for cell in dream_cells:
            assert commands[cell] > 0, f"{cell} never mitigates"

    @pytest.mark.parametrize("runner", list(BACKEND_RUNNERS.values()),
                             ids=["scalar", "batched"])
    def test_journal_and_metrics_match_goldens(self, runner):
        for cell in golden_engine.JOURNAL_CELLS:
            assert golden_engine.compute_journal(cell, runner) == \
                golden_engine.load_journal(cell), \
                f"journal or metrics diverged on {cell}"


class _ExplodingPolicy:
    """Policy stub that detonates after a fixed number of ACTs."""

    def __init__(self, fuse: int) -> None:
        self.fuse = fuse
        self.telemetry = None
        self.stats = PolicyStats()

    def bind(self, port) -> None:
        self.port = port

    def before_activate(self, bank, row, now_ps) -> bool:
        self.fuse -= 1
        if self.fuse <= 0:
            raise RuntimeError("policy exploded")
        return False

    def on_sampled(self, bank, row, now_ps) -> None:  # pragma: no cover
        pass

    def summary(self) -> dict:  # pragma: no cover
        return {}


class TestQueueDepthDetachedOnError:
    """A raising policy must not leak the queue-depth closure."""

    @pytest.mark.parametrize("runner", [run_simulation,
                                        run_simulation_reference],
                             ids=["optimized", "reference"])
    def test_exception_resets_queue_depth(self, runner):
        system = SystemConfig.baseline(refs_per_window=32, num_cores=2)
        sim = SimConfig(requests_per_core=200, seed=7)
        traces = build_traces("mcf", system, sim, calibrate=False)
        telemetry = Telemetry(journal_memory=True)
        with pytest.raises(RuntimeError, match="policy exploded"):
            runner(system, traces, sim, lambda context:
                   _ExplodingPolicy(fuse=10), "exploding",
                   telemetry=telemetry)
        assert telemetry.timeline.queue_depth is None

    def test_telemetry_reusable_after_failed_run(self):
        system = SystemConfig.baseline(refs_per_window=32, num_cores=2)
        sim = SimConfig(requests_per_core=200, seed=7)
        traces = build_traces("mcf", system, sim, calibrate=False)
        telemetry = Telemetry(journal_memory=True, sample_every_refi=4)
        with pytest.raises(RuntimeError):
            run_simulation(system, traces, sim,
                           lambda context: _ExplodingPolicy(fuse=10),
                           "exploding", telemetry=telemetry)
        # The follow-up run must sample its *own* queue, not a closure
        # over the dead one.
        result = run_simulation(system, traces, sim,
                                coupled_mint_factory(500), "mint",
                                telemetry=telemetry)
        assert result.requests_completed == 400
        assert telemetry.timeline.queue_depth is None


class TestCountsOnError:
    """A raising policy leaves the reference loop's counts behind.

    The optimized loop counts a core's completions only while it drains
    and derives the rest from ``issued``; the fuses below stop the run
    before any core drains, while one or both drain, at the last ACT,
    and with a budget below the MLP (the cores drain from the start).
    """

    @pytest.mark.parametrize("budget, fuse", [
        (100, 1), (100, 40), (100, 54), (100, 60), (100, 65), (10, 3)])
    def test_counts_match_reference(self, monkeypatch, budget, fuse):
        system = SystemConfig.baseline(refs_per_window=32, num_cores=2)
        sim = SimConfig(requests_per_core=budget, seed=7)
        traces = build_traces("mcf", system, sim, calibrate=False)
        outcomes = []
        for runner in (run_simulation, run_simulation_reference):
            cores = []

            class RecordingCore(Core):
                def __init__(self, *args) -> None:
                    super().__init__(*args)
                    cores.append(self)

            monkeypatch.setattr(runner_module, "Core", RecordingCore)
            telemetry = Telemetry(journal_memory=True, sample_every_refi=1)
            with pytest.raises(RuntimeError, match="policy exploded"):
                runner(system, traces, sim,
                       lambda context: _ExplodingPolicy(fuse=fuse),
                       "exploding", telemetry=telemetry)
            [loop] = [span for root in telemetry.spans.roots
                      for span in root.walk() if span.name == ENGINE_LOOP]
            outcomes.append((
                loop.meta["events"],
                [(core.issued, core.completed, core.finish_time_ps)
                 for core in cores],
                [record["queue_depth"] for record in telemetry.journal.records
                 if record["kind"] == "sample"]))
        assert outcomes[0] == outcomes[1]
