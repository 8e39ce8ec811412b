"""The batched columnar engine backend (:mod:`repro.sim.batched`).

Byte-identity against :func:`~repro.sim.runner.run_simulation_reference`
is pinned by ``test_engine_identity.py``; this module covers the batch
machinery itself — multi-cell batches, per-member fault isolation
(``collect_errors``), telemetry routing, edge-shaped cells — and the
batching planner (:func:`~repro.experiments.common.plan_backends`).
"""

import pytest

from tests import golden_engine
from repro.exec.executor import Cell, StudyCell, cell_fingerprint
from repro.mc.mitigation import coupled_mint_factory
from repro.mc.policy import PolicyStats
from repro.obs import Telemetry
from repro.sim.batched import (BatchCellError, BatchItem, run_batch,
                               run_simulation_batched)
from repro.sim.config import SimConfig, SystemConfig
from repro.sim.runner import run_simulation_reference
from repro.workloads.builder import build_traces
from repro.workloads.profiles import profile

from repro.experiments.common import (AUTO_BATCH_MIN, MAX_BATCH_CELLS,
                                      plan_backends)
from repro.experiments.dos import measured_dos_factor


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
        [result] = run_batch(system, [BatchItem(traces=traces, sim=sim)])
        reference = run_simulation_reference(system, traces, sim, None,
                                             "none")
        assert result.to_json() == reference.to_json()

    def test_empty_batch(self):
        assert run_batch(golden_engine._system(), []) == []

    def test_budget_below_mlp(self):
        """Fewer requests than MLP slots: slots beyond the budget stay
        idle and the result still matches the reference."""
        system = golden_engine._system()
        sim = SimConfig(requests_per_core=2, seed=5)
        traces = build_traces("mcf", system, sim, calibrate=False)
        [result] = run_batch(system, [BatchItem(traces=traces, sim=sim)])
        reference = run_simulation_reference(system, traces, sim, None,
                                             "none")
        assert result.to_json() == reference.to_json()

    def test_mixed_seeds_share_one_engine(self):
        """Members with different budgets/seeds coexist in one batch."""
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
    """Detonates after ``fuse`` activations (escape-path crash)."""

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
        """A telemetry-carrying member routes through the scalar engine
        and produces the scalar journal/metrics byte-for-byte."""
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
            result = run_simulation_batched(system, traces, sim, factory,
                                            design, telemetry=telemetry)
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


class TestMultiChannelRejected:
    def test_channels_must_be_one(self):
        from dataclasses import replace
        system = golden_engine._system()
        multi = replace(system, organization=replace(
            system.organization, channels=2))
        sim = SimConfig(requests_per_core=100, seed=1)
        traces = build_traces("mcf", system, sim, calibrate=False)
        with pytest.raises(NotImplementedError, match="one channel"):
            run_batch(multi, [BatchItem(traces=traces, sim=sim)])


def _planner_cells(count, policy=None, policy_name="none", system=None):
    system = system or golden_engine._system()
    cells = []
    for seed in range(count):
        sim = SimConfig(requests_per_core=100, seed=seed)
        cells.append(Cell(workload=profile("mcf"), trace_system=system,
                          run_system=system, sim=sim, policy=policy,
                          policy_name=policy_name))
    return cells


class TestPlanner:
    def test_scalar_plans_nothing(self):
        plan = plan_backends(_planner_cells(8), "scalar")
        assert plan.groups == ()
        assert set(plan.backends) == {"scalar"}
        assert plan.batched_cells == 0

    def test_batched_groups_compatible_cells(self):
        cells = _planner_cells(6)
        plan = plan_backends(cells, "batched")
        assert plan.batched_cells == 6
        assert set(plan.backends) == {"batched"}
        assert sorted(i for g in plan.groups for i in g) == list(range(6))

    def test_batched_includes_policy_cells(self):
        cells = _planner_cells(3, policy=coupled_mint_factory(500),
                               policy_name="mint")
        plan = plan_backends(cells, "batched")
        assert plan.batched_cells == 3

    def test_auto_excludes_policy_cells(self):
        cells = _planner_cells(6) + _planner_cells(
            6, policy=coupled_mint_factory(500), policy_name="mint")
        plan = plan_backends(cells, "auto")
        assert plan.batched_cells == 6
        assert all(plan.backends[i] == "scalar" for i in range(6, 12))

    def test_auto_needs_minimum_group(self):
        plan = plan_backends(_planner_cells(AUTO_BATCH_MIN - 1), "auto")
        assert plan.batched_cells == 0
        plan = plan_backends(_planner_cells(AUTO_BATCH_MIN), "auto")
        assert plan.batched_cells == AUTO_BATCH_MIN

    def test_groups_split_by_run_system(self):
        base = golden_engine._system()
        other = SystemConfig.baseline(refs_per_window=32, num_cores=4)
        cells = _planner_cells(4, system=base) + \
            _planner_cells(4, system=other)
        plan = plan_backends(cells, "batched")
        assert len(plan.groups) == 2
        assert plan.batched_cells == 8

    def test_groups_capped_at_max_batch(self):
        cells = _planner_cells(5)
        plan = plan_backends(cells, "batched", max_batch=2)
        assert [len(group) for group in plan.groups] == [2, 2, 1]
        assert MAX_BATCH_CELLS >= 2  # the default cap is sane

    def test_unfingerprintable_cells_stay_scalar(self):
        cells = _planner_cells(4, policy=lambda context: None,
                               policy_name="closure")
        plan = plan_backends(cells, "batched")
        assert plan.batched_cells == 0

    @pytest.mark.parametrize("backend", ["batched", "auto"])
    def test_study_cells_stay_scalar(self, backend):
        study = StudyCell.of(measured_dos_factor, "gang-dos", "t_rh=125",
                             t_rh=125, seed=1)
        plan = plan_backends(_planner_cells(4) + [study], backend)
        assert plan.batched_cells == 4
        assert plan.backends[4] == "scalar"

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            plan_backends(_planner_cells(2), "gpu")


class TestBackendFingerprint:
    def test_batched_fingerprint_differs_from_scalar(self):
        [cell] = _planner_cells(1)
        scalar = cell_fingerprint(cell)
        batched = cell_fingerprint(cell, backend="batched")
        assert scalar is not None and batched is not None
        assert scalar != batched

    def test_scalar_fingerprint_is_historical(self):
        """``backend="scalar"`` must not perturb existing cache keys."""
        [cell] = _planner_cells(1)
        assert cell_fingerprint(cell) == \
            cell_fingerprint(cell, backend="scalar")
