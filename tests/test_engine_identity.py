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
from repro.mc.mitigation import coupled_mint_factory
from repro.mc.policy import PolicyStats
from repro.obs import Telemetry
from repro.sim.batched import BatchItem, run_batch
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.runner import run_simulation, run_simulation_reference
from repro.workloads.builder import build_traces

GRID = [(workload, design, seed)
        for workload in golden_engine.WORKLOADS
        for design in golden_engine.designs()
        for seed in golden_engine.SEEDS]


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
        workload, design, seed = golden_engine.JOURNAL_CELL
        outputs = []
        for runner in (BACKEND_RUNNERS[backend],
                       run_simulation_reference):
            telemetry = Telemetry(journal_memory=True,
                                  sample_every_refi=4)
            _run(runner, workload, design, seed, telemetry=telemetry)
            lines = [json.dumps(record, sort_keys=True)
                     for record in telemetry.journal.records]
            outputs.append((lines, telemetry.snapshot()["metrics"]))
        assert outputs[0] == outputs[1]


class TestGoldens:
    """Live code versus the goldens the seed commit generated."""

    @pytest.mark.parametrize("runner", list(BACKEND_RUNNERS.values()),
                             ids=["scalar", "batched"])
    def test_results_match_goldens(self, runner):
        golden_records, _, _ = golden_engine.load_goldens()
        live = {record["cell"]: record["result_json"]
                for record in golden_engine.compute_results(runner)}
        for record in golden_records:
            assert live[record["cell"]] == record["result_json"], \
                f"engine output diverged on {record['cell']}"
        assert len(live) == len(golden_records)

    @pytest.mark.parametrize("runner", list(BACKEND_RUNNERS.values()),
                             ids=["scalar", "batched"])
    def test_journal_and_metrics_match_goldens(self, runner):
        _, golden_lines, golden_metrics = golden_engine.load_goldens()
        lines, metrics = golden_engine.compute_journal(runner)
        assert lines == golden_lines
        assert metrics == golden_metrics


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
