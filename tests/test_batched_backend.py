"""``run_batch``, the deprecated batch call the e2e benchmark traces.

3.0 dropped it from the top-level API; :mod:`repro.sim.batched` keeps
it until the benchmark stops wrapping it.  It runs each item through
the scalar engine: results match the reference loop item by item,
``collect_errors`` isolates a failing item, and telemetry-carrying
items record as a scalar run does.
"""

import pytest

from tests import golden_engine
from repro.exec.executor import Cell, cell_fingerprint
from repro.mc.policy import PolicyStats
from repro.obs import Telemetry
from repro.sim.batched import BatchCellError, BatchItem, run_batch
from repro.sim.config import SimConfig
from repro.sim.runner import run_simulation_reference
from repro.workloads.builder import build_traces
from repro.workloads.profiles import profile

pytestmark = pytest.mark.filterwarnings(
    "ignore:run_batch is deprecated:DeprecationWarning")


def _grid_items(system):
    """The golden 16-cell grid as (label, BatchItem) pairs."""
    items = []
    for workload in golden_engine.WORKLOADS:
        for design, factory in golden_engine.designs().items():
            for seed in golden_engine.SEEDS:
                sim = SimConfig(
                    requests_per_core=golden_engine.REQUESTS_PER_CORE,
                    seed=seed)
                traces = build_traces(workload, system, sim,
                                      calibrate=False)
                items.append((f"{workload}/{design}/seed{seed}",
                              BatchItem(traces=traces, sim=sim,
                                        policy_factory=factory,
                                        policy_name=design)))
    return items


class TestRunBatch:
    def test_grid_batch_matches_reference(self):
        """All 16 golden cells in ONE batch == 16 reference runs."""
        system = golden_engine._system()
        labelled = _grid_items(system)
        results = run_batch(system, [item for _, item in labelled])
        assert len(results) == len(labelled)
        for (label, item), result in zip(labelled, results):
            reference = run_simulation_reference(
                system, item.traces, item.sim, item.policy_factory,
                item.policy_name)
            assert result.to_json() == reference.to_json(), label

    def test_single_item_batch(self):
        system = golden_engine._system()
        sim = SimConfig(requests_per_core=400, seed=3)
        traces = build_traces("mcf", system, sim, calibrate=False)
        with pytest.warns(DeprecationWarning) as record:
            [result] = run_batch(system, [BatchItem(traces=traces,
                                                    sim=sim)])
        assert len(record) == 1
        assert str(record[0].message).startswith(
            "run_batch is deprecated and has no effect")
        assert record[0].filename == __file__  # blames the caller
        reference = run_simulation_reference(system, traces, sim, None,
                                             "none")
        assert result.to_json() == reference.to_json()

    def test_empty_batch(self):
        assert run_batch(golden_engine._system(), []) == []

    def test_budget_below_mlp(self):
        """Fewer requests than MLP slots still match the reference."""
        system = golden_engine._system()
        sim = SimConfig(requests_per_core=2, seed=5)
        traces = build_traces("mcf", system, sim, calibrate=False)
        [result] = run_batch(system, [BatchItem(traces=traces, sim=sim)])
        reference = run_simulation_reference(system, traces, sim, None,
                                             "none")
        assert result.to_json() == reference.to_json()

    def test_mixed_seeds_share_one_engine(self):
        """Items with different budgets and seeds share one call."""
        system = golden_engine._system()
        items = []
        for seed, budget in ((1, 300), (2, 500), (3, 700)):
            sim = SimConfig(requests_per_core=budget, seed=seed)
            traces = build_traces("lbm", system, sim, calibrate=False)
            items.append(BatchItem(traces=traces, sim=sim))
        results = run_batch(system, items)
        for item, result in zip(items, results):
            reference = run_simulation_reference(system, item.traces,
                                                 item.sim, None, "none")
            assert result.to_json() == reference.to_json()


class _ExplodingPolicy:
    """Detonates after ``fuse`` activations."""

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


class TestFaultIsolation:
    def _items(self, system):
        sim = SimConfig(requests_per_core=400, seed=9)
        items = []
        for seed in (1, 2, 3):
            cell_sim = SimConfig(requests_per_core=400, seed=seed)
            traces = build_traces("mcf", system, cell_sim,
                                  calibrate=False)
            items.append(BatchItem(traces=traces, sim=cell_sim))
        traces = build_traces("mcf", system, sim, calibrate=False)
        items.insert(1, BatchItem(
            traces=traces, sim=sim,
            policy_factory=lambda context: _ExplodingPolicy(fuse=5),
            policy_name="exploding"))
        return items

    def test_collect_errors_isolates_the_loser(self):
        system = golden_engine._system()
        items = self._items(system)
        results = run_batch(system, items, collect_errors=True)
        assert isinstance(results[1], BatchCellError)
        assert results[1].index == 1
        assert "policy exploded" in results[1].message
        for position in (0, 2, 3):
            reference = run_simulation_reference(
                system, items[position].traces, items[position].sim,
                None, "none")
            assert results[position].to_json() == reference.to_json()

    def test_default_reraises_original_exception(self):
        system = golden_engine._system()
        with pytest.raises(RuntimeError, match="policy exploded"):
            run_batch(system, self._items(system))

    def test_batch_cell_error_pickles_without_cause(self):
        import pickle
        error = BatchCellError(3, "RuntimeError: boom")
        error.cause = RuntimeError("boom")
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.index, clone.message) == (3, "RuntimeError: boom")
        assert clone.cause is None


class TestTelemetryRouting:
    def test_instrumented_member_matches_scalar(self):
        """A telemetry-carrying item produces the golden journal and
        metrics byte-for-byte."""
        import json
        system = golden_engine._system()
        workload, design, seed = golden_engine.JOURNAL_CELL
        sim = SimConfig(requests_per_core=golden_engine.REQUESTS_PER_CORE,
                        seed=seed)
        traces = build_traces(workload, system, sim, calibrate=False)
        factory = golden_engine.designs()[design]
        outputs = []
        for _ in range(2):
            telemetry = Telemetry(journal_memory=True,
                                  sample_every_refi=4)
            [result] = run_batch(system, [BatchItem(
                traces=traces, sim=sim, policy_factory=factory,
                policy_name=design, telemetry=telemetry)])
            lines = [json.dumps(record, sort_keys=True)
                     for record in telemetry.journal.records]
            outputs.append((result.to_json(), lines,
                            telemetry.snapshot()["metrics"]))
        assert outputs[0] == outputs[1]
        _, golden_lines, golden_metrics = golden_engine.load_goldens()
        assert outputs[0][1] == golden_lines
        assert outputs[0][2] == golden_metrics

    def test_mixed_batch_instrumented_and_plain(self):
        system = golden_engine._system()
        sim = SimConfig(requests_per_core=400, seed=4)
        traces = build_traces("mcf", system, sim, calibrate=False)
        telemetry = Telemetry(journal_memory=True)
        results = run_batch(system, [
            BatchItem(traces=traces, sim=sim, telemetry=telemetry),
            BatchItem(traces=traces, sim=sim),
        ])
        reference = run_simulation_reference(system, traces, sim, None,
                                             "none")
        assert results[0].to_json() == reference.to_json()
        assert results[1].to_json() == reference.to_json()
        assert telemetry.journal.records  # only member 0 recorded


class TestBackendFingerprint:
    def test_scalar_fingerprint_is_historical(self):
        """A cell's fingerprint has no backend axis and still has its
        historical value, so every warm cache stays warm."""
        system = golden_engine._system()
        cell = Cell(workload=profile("mcf"), trace_system=system,
                    run_system=system,
                    sim=SimConfig(requests_per_core=100, seed=0),
                    policy=None, policy_name="none")
        assert cell_fingerprint(cell) == ("0ac82bb418b9085109dd2605ee6404"
                                          "5c1f22e31e4761d81b2a3eb4e73092"
                                          "f677")
