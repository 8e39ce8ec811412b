"""Integration tests for the sweep executor: parallelism, memoisation,
caching and the telemetry fallback.

The guarantee under test throughout: execution mode (serial, pooled,
memoised, cached) never changes a single simulated number.
"""

import io
import json

import pytest

from repro.exec import faults
from repro.exec import runtime as exec_runtime
from repro.exec.cache import RunCache
from repro.exec.executor import Cell, SweepExecutor, cell_fingerprint
from repro.exec.faults import FaultPlan
from repro.exec.fingerprint import FingerprintError
from repro.exec.resilience import CellPolicy, SweepFailure
from repro.experiments.common import (DesignSpec, series_rows,
                                      sweep_cells, sweep_designs)
from repro.mc.mitigation import coupled_para_factory
from repro.mc.policy import NoMitigation, no_mitigation_factory
from repro.obs import Telemetry
from repro.obs import runtime as obs_runtime
from repro.obs.progress import SweepProgress
from repro.sim.config import SimConfig, SystemConfig
from repro.workloads.builder import clear_cache
from repro.workloads.profiles import profiles_for


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def workloads():
    return profiles_for(names=["mcf"])


@pytest.fixture
def designs():
    return [DesignSpec("none", no_mitigation_factory()),
            DesignSpec("para", coupled_para_factory(2000))]


def _series_json(series) -> str:
    return json.dumps(series_rows(series), sort_keys=True)


def _sweep(designs, small_system, sim, workloads, executor=None):
    with exec_runtime.activated(executor):
        return sweep_designs(designs, small_system, sim,
                             workloads=workloads)


def _spec_and_closure_cells(system, sim, workloads):
    """One cell per policy kind: a ``@spec_factory`` spec, a closure."""
    def cell(policy, name):
        return Cell(workload=workloads[0], trace_system=system,
                    run_system=system, sim=sim, policy=policy,
                    policy_name=name)

    return (cell(no_mitigation_factory(), "none"),
            cell(lambda context: NoMitigation(), "closure"))


class TestCells:
    def test_canonical_order_baseline_first(self, small_system, small_sim,
                                            designs):
        two = profiles_for(names=["mcf", "add"])
        cells = sweep_cells(designs, small_system, small_sim, two)
        names = [cell.policy_name for cell in cells]
        assert names == ["none", "none", "para",
                         "none", "none", "para"]
        assert [cell.workload.name for cell in cells[:3]] == ["mcf"] * 3

    def test_system_override_only_affects_run_system(self, small_sim,
                                                     workloads):
        system = SystemConfig.baseline(refs_per_window=64, num_cores=2)
        prac = SystemConfig.prac(64, num_cores=2)
        specs = [DesignSpec("prac", no_mitigation_factory(), system=prac)]
        cells = sweep_cells(specs, system, small_sim, workloads)
        assert cells[1].trace_system == system
        assert cells[1].run_system == prac

    def test_spec_cells_fingerprint_and_closures_are_refused(
            self, small_system, small_sim, workloads):
        specced, bare = _spec_and_closure_cells(small_system, small_sim,
                                                workloads)
        assert isinstance(cell_fingerprint(specced), str)
        with pytest.raises(FingerprintError, match="@spec_factory"):
            cell_fingerprint(bare)

    def test_closure_cell_refused_before_anything_is_claimed(
            self, small_system, small_sim, workloads):
        # Fingerprinting comes before the scan claims the first cell:
        # a claim leaked by the refusal would make any later run of
        # that cell wait on it forever.
        specced, bare = _spec_and_closure_cells(small_system, small_sim,
                                                workloads)
        executor = SweepExecutor()
        with pytest.raises(FingerprintError):
            executor.run_cells([specced, bare])
        assert executor.inflight_cells() == 0
        assert executor.stats.cells == 0
        [result] = executor.run_cells([specced])
        assert result.requests_completed > 0
        assert executor.stats.computed == 1


class TestDeterminism:
    def test_parallel_results_byte_identical_to_serial(self, small_system,
                                                       small_sim, designs,
                                                       workloads):
        serial = _sweep(designs, small_system, small_sim, workloads)
        with SweepExecutor(jobs=2) as executor:
            parallel = _sweep(designs, small_system, small_sim, workloads,
                              executor)
        assert _series_json(parallel) == _series_json(serial)

    def test_cached_results_byte_identical(self, tmp_path, small_system,
                                           small_sim, designs, workloads):
        with SweepExecutor(cache=RunCache(tmp_path)) as cold:
            first = _sweep(designs, small_system, small_sim, workloads,
                           cold)
        with SweepExecutor(cache=RunCache(tmp_path)) as warm:
            second = _sweep(designs, small_system, small_sim, workloads,
                            warm)
        assert _series_json(second) == _series_json(first)
        assert warm.stats.computed == 0

    def test_closure_designs_are_refused(self, small_system, small_sim,
                                         workloads):
        closure = [DesignSpec("closure",
                              lambda context: NoMitigation())]
        with SweepExecutor(jobs=2) as executor:
            with pytest.raises(FingerprintError, match="@spec_factory"):
                _sweep(closure, small_system, small_sim, workloads,
                       executor)
        assert executor.stats.computed == 0


class TestReuse:
    def test_baseline_memoised_across_experiments(self, small_system,
                                                  small_sim, designs,
                                                  workloads):
        with SweepExecutor() as executor:
            _sweep(designs, small_system, small_sim, workloads, executor)
            computed_first = executor.stats.computed
            _sweep(designs, small_system, small_sim, workloads, executor)
        assert computed_first == 3  # baseline + 2 designs
        assert executor.stats.computed == computed_first
        assert executor.stats.memo_hits >= 3

    def test_warm_cache_hits_without_recompute(self, tmp_path,
                                               small_system, small_sim,
                                               designs, workloads):
        with SweepExecutor(cache=RunCache(tmp_path)) as cold:
            _sweep(designs, small_system, small_sim, workloads, cold)
        assert cold.cache.stats.stores == 3
        assert cold.cache.stats.hits == 0
        with SweepExecutor(cache=RunCache(tmp_path)) as warm:
            _sweep(designs, small_system, small_sim, workloads, warm)
        assert warm.cache.stats.hits == 3
        assert warm.cache.stats.misses == 0
        assert warm.stats.computed == 0

    def test_changed_seed_misses_cache(self, tmp_path, small_system,
                                       designs, workloads):
        cache_dir = tmp_path
        with SweepExecutor(cache=RunCache(cache_dir)) as cold:
            _sweep(designs, small_system,
                   SimConfig(requests_per_core=1_500, seed=7),
                   workloads, cold)
        with SweepExecutor(cache=RunCache(cache_dir)) as reseeded:
            _sweep(designs, small_system,
                   SimConfig(requests_per_core=1_500, seed=8),
                   workloads, reseeded)
        assert reseeded.cache.stats.hits == 0
        assert reseeded.stats.computed == 3

    def test_changed_policy_args_miss_cache(self, tmp_path, small_system,
                                            small_sim, workloads):
        with SweepExecutor(cache=RunCache(tmp_path)) as cold:
            _sweep([DesignSpec("para", coupled_para_factory(2000))],
                   small_system, small_sim, workloads, cold)
        with SweepExecutor(cache=RunCache(tmp_path)) as warm:
            _sweep([DesignSpec("para", coupled_para_factory(4000))],
                   small_system, small_sim, workloads, warm)
        # Baseline hits; the retuned design must not.
        assert warm.cache.stats.hits == 1
        assert warm.stats.computed == 1

    def test_changed_system_misses_cache(self, tmp_path, small_sim,
                                         designs, workloads):
        with SweepExecutor(cache=RunCache(tmp_path)) as cold:
            _sweep(designs,
                   SystemConfig.baseline(refs_per_window=64, num_cores=2),
                   small_sim, workloads, cold)
        with SweepExecutor(cache=RunCache(tmp_path)) as warm:
            _sweep(designs,
                   SystemConfig.baseline(refs_per_window=32, num_cores=2),
                   small_sim, workloads, warm)
        assert warm.cache.stats.hits == 0
        assert warm.stats.computed == 3

    def test_corrupt_entry_recomputed(self, tmp_path, small_system,
                                      small_sim, designs, workloads):
        with SweepExecutor(cache=RunCache(tmp_path)) as cold:
            reference = _sweep(designs, small_system, small_sim,
                               workloads, cold)
        for entry in tmp_path.rglob("*.json"):
            entry.write_text("garbage{")
        with SweepExecutor(cache=RunCache(tmp_path)) as warm:
            recovered = _sweep(designs, small_system, small_sim,
                               workloads, warm)
        assert warm.cache.stats.corrupt == 3
        assert warm.stats.computed == 3
        assert _series_json(recovered) == _series_json(reference)


class TestTelemetryCapture:
    def _instrumented(self, designs, small_system, small_sim, workloads,
                      executor=None):
        telemetry = Telemetry(journal_memory=True)
        with obs_runtime.activated(telemetry):
            series = _sweep(designs, small_system, small_sim, workloads,
                            executor)
        return series, telemetry

    def test_parallel_cached_sweep_stores_artifacts(self, tmp_path,
                                                    small_system,
                                                    small_sim, designs,
                                                    workloads):
        with SweepExecutor(jobs=2, cache=RunCache(tmp_path)) as executor:
            series, telemetry = self._instrumented(
                designs, small_system, small_sim, workloads, executor)
        assert executor.cache.stats.stores == 3
        assert len(list(tmp_path.rglob("*.obs.json"))) == 3
        assert "para" in series
        assert telemetry.registry.counter("sim.runs").value == 3

    def test_parallel_results_match_plain(self, small_system, small_sim,
                                          designs, workloads):
        plain = _sweep(designs, small_system, small_sim, workloads)
        with SweepExecutor(jobs=2) as executor:
            instrumented, _ = self._instrumented(
                designs, small_system, small_sim, workloads, executor)
        assert _series_json(instrumented) == _series_json(plain)

    def test_merged_telemetry_identical_across_modes(self, tmp_path,
                                                     small_system,
                                                     small_sim, designs,
                                                     workloads):
        def merged(executor=None):
            _, telemetry = self._instrumented(
                designs, small_system, small_sim, workloads, executor)
            snapshot = telemetry.snapshot()
            return (json.dumps(snapshot["metrics"], sort_keys=True),
                    json.dumps(telemetry.journal.records, default=str))

        serial = merged()
        with SweepExecutor(jobs=2) as pooled:
            parallel = merged(pooled)
        with SweepExecutor(cache=RunCache(tmp_path)) as cold_exec:
            cold = merged(cold_exec)
        with SweepExecutor(cache=RunCache(tmp_path)) as warm_exec:
            warm = merged(warm_exec)
        assert warm_exec.stats.computed == 0
        assert parallel == serial
        assert cold == serial
        assert warm == serial

    def test_cache_without_artifact_recomputes(self, tmp_path,
                                               small_system, small_sim,
                                               designs, workloads):
        # Populate the cache with a telemetry-blind run...
        with SweepExecutor(cache=RunCache(tmp_path)) as blind:
            _sweep(designs, small_system, small_sim, workloads, blind)
        assert not list(tmp_path.rglob("*.obs.json"))
        # ...then an instrumented run must recompute (and backfill).
        with SweepExecutor(cache=RunCache(tmp_path)) as warm:
            _, telemetry = self._instrumented(
                designs, small_system, small_sim, workloads, warm)
        assert warm.stats.computed == 3
        assert len(list(tmp_path.rglob("*.obs.json"))) == 3
        assert telemetry.registry.counter("sim.runs").value == 3


class TestRuntime:
    def test_activated_scopes_the_ambient_executor(self):
        executor = SweepExecutor()
        assert exec_runtime.active() is None
        with exec_runtime.activated(executor):
            assert exec_runtime.active() is executor
        assert exec_runtime.active() is None

    def test_activated_none_is_a_noop(self):
        with exec_runtime.activated(None):
            assert exec_runtime.active() is None

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)


class TestScopedBindings:
    def test_nested_scope_inherits_and_accumulates_outward(
            self, small_system, small_sim, designs, workloads):
        """An inner ``scoped(policy=...)`` inside an outer
        ``scoped(progress=...)`` runs under the inner policy, feeds the
        outer sink, and counts into both bindings' stats."""
        executor = SweepExecutor()
        cells = sweep_cells(designs, small_system, small_sim, workloads)
        sink = SweepProgress(stream=io.StringIO())
        # Every cell's first attempt crashes: the executor's default
        # budget retries that away, the inner policy's zero does not.
        faults.install(FaultPlan.parse("crash:*:1"))
        try:
            with executor.scoped(progress=sink) as outer:
                with executor.scoped(policy=CellPolicy(retries=0)) \
                        as inner, pytest.raises(SweepFailure):
                    executor.run_cells(cells)
        finally:
            faults.install(None)
        assert inner.stats.cells == outer.stats.cells == len(cells)
        assert inner.stats.failed == outer.stats.failed == len(cells)
        assert outer.stats.retries == 0
        assert sink.total == sink.counts["failed"] == len(cells)
