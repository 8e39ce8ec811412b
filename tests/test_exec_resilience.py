"""Resilience-layer tests: retry policy, warm relaunch, degradation.

The invariant under test throughout: faults, retries, timeouts, pool
degradation and relaunching over a partly filled cache never change a
single simulated number — recovered sweeps are byte-identical to clean
ones.
"""

import json

import pytest

from repro.exec import faults
from repro.exec import runtime as exec_runtime
from repro.exec.cache import RunCache
from repro.exec.executor import StudyCell, SweepExecutor, cell_fingerprint
from repro.exec.faults import FaultPlan
from repro.exec.resilience import (CellPolicy, FailedCell, SweepFailure,
                                   backoff_delay, validate_result)
from repro.experiments.common import (DesignSpec, series_rows, sweep_cells,
                                      sweep_designs)
from repro.experiments.dos import measured_dos_factor
from repro.mc.mitigation import coupled_para_factory
from repro.mc.policy import no_mitigation_factory
from repro.obs import Telemetry
from repro.obs import runtime as obs_runtime
from repro.workloads.builder import clear_cache
from repro.workloads.profiles import profiles_for

#: Fast-retry policy for fault tests (milliseconds, not the 50ms default).
FAST = dict(backoff_s=0.001, backoff_cap_s=0.01)


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    clear_cache()
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    yield
    faults.install(None)
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


def _sweep(designs, system, sim, workloads, executor=None):
    with exec_runtime.activated(executor):
        return sweep_designs(designs, system, sim, workloads=workloads)


def _fingerprints(designs, system, sim, workloads) -> dict[str, str]:
    """policy_name -> fingerprint for each unique cell of the sweep."""
    return {cell.policy_name: cell_fingerprint(cell)
            for cell in sweep_cells(designs, system, sim, workloads)}


class TestCellPolicy:
    def test_defaults_are_cheap(self):
        policy = CellPolicy()
        assert policy.timeout_s is None
        assert policy.attempts == 3

    @pytest.mark.parametrize("kwargs", [
        dict(timeout_s=0.0),
        dict(timeout_s=-1.0),
        dict(retries=-1),
        dict(backoff_s=-0.1),
        dict(backoff_s=2.0, backoff_cap_s=1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CellPolicy(**kwargs)

    def test_backoff_deterministic_and_bounded(self):
        fp = "ab" * 32
        for attempt in (1, 2, 3, 8):
            exp = min(2.0, 0.05 * 2 ** (attempt - 1))
            delay = backoff_delay(fp, attempt)
            assert delay == backoff_delay(fp, attempt)  # deterministic
            assert exp * 0.5 <= delay < exp

    def test_backoff_decorrelated_across_cells(self):
        assert backoff_delay("aa" * 32, 1) != backoff_delay("bb" * 32, 1)


class TestValidateResult:
    def test_non_result_rejected(self):
        assert "RunResult" in validate_result({"workload": "mcf"})
        assert validate_result(None) is not None

    def test_good_result_accepted(self, small_system, small_sim,
                                  workloads):
        cells = sweep_cells([], small_system, small_sim, workloads)
        with SweepExecutor() as executor:
            results = executor.run_cells(cells)
        assert validate_result(results[0]) is None

    def test_failed_cell_describe_and_sweep_failure(self):
        failed = FailedCell(fingerprint="ab" * 32, workload="mcf",
                            policy_name="para", attempts=3, kind="crash",
                            error="boom")
        assert "mcf/para" in failed.describe()
        failure = SweepFailure([failed])
        assert failure.failures == [failed]
        assert "1 cell(s) failed terminally" in str(failure)
        assert "boom" in str(failure)


class TestRetries:
    def test_crash_and_corrupt_retried_identical_output(
            self, small_system, small_sim, designs, workloads):
        reference = _sweep(designs, small_system, small_sim, workloads)
        fps = _fingerprints(designs, small_system, small_sim, workloads)
        faults.install(FaultPlan.parse(
            f"crash:{fps['none'][:16]};corrupt:{fps['para'][:16]}"))
        with SweepExecutor(policy=CellPolicy(**FAST)) as executor:
            recovered = _sweep(designs, small_system, small_sim,
                               workloads, executor)
        assert _series_json(recovered) == _series_json(reference)
        assert executor.stats.retries == 2
        assert executor.stats.failed == 0
        assert "retries=2" in executor.describe()

    def test_hang_times_out_and_recovers(self, small_system, small_sim,
                                         designs, workloads):
        reference = _sweep(designs, small_system, small_sim, workloads)
        fps = _fingerprints(designs, small_system, small_sim, workloads)
        faults.install(FaultPlan.parse(f"hang:{fps['para'][:16]}@300"))
        policy = CellPolicy(timeout_s=0.5, **FAST)
        with SweepExecutor(policy=policy) as executor:
            recovered = _sweep(designs, small_system, small_sim,
                               workloads, executor)
        assert _series_json(recovered) == _series_json(reference)
        assert executor.stats.timeouts == 1
        assert executor.stats.retries == 1

    def test_budget_exhausted_raises_after_caching_the_rest(
            self, tmp_path, small_system, small_sim, designs, workloads):
        fps = _fingerprints(designs, small_system, small_sim, workloads)
        faults.install(FaultPlan.parse(f"crash:{fps['para'][:16]}:99"))
        cache = RunCache(tmp_path)
        policy = CellPolicy(retries=1, **FAST)
        with SweepExecutor(cache=cache, policy=policy) as executor:
            with pytest.raises(SweepFailure) as excinfo:
                _sweep(designs, small_system, small_sim, workloads,
                       executor)
        failures = excinfo.value.failures
        assert [f.policy_name for f in failures] == ["para"]
        assert failures[0].kind == "crash"
        assert failures[0].attempts == 2
        assert "InjectedCrash" in failures[0].error
        assert executor.stats.failed == 1
        # The healthy cells (baseline + the "none" design) reached the
        # cache before the failure was raised.
        assert cache.stats.stores == 2

        # A plain relaunch over the same cache redoes only the loser.
        faults.install(None)
        warm_cache = RunCache(tmp_path)
        with SweepExecutor(cache=warm_cache) as retry:
            series = _sweep(designs, small_system, small_sim, workloads,
                            retry)
        assert retry.stats.computed == 1
        assert warm_cache.stats.hits == 2
        reference = _sweep(designs, small_system, small_sim, workloads)
        assert _series_json(series) == _series_json(reference)


class TestResume:
    def test_interrupted_sweep_resumes_byte_identical(
            self, tmp_path, small_system, small_sim, designs, workloads):
        reference = _sweep(designs, small_system, small_sim, workloads)
        cells = sweep_cells(designs, small_system, small_sim, workloads)

        # Simulate an interruption: only the first cells complete before
        # the run dies.
        with SweepExecutor(cache=RunCache(tmp_path)) as first:
            first.run_cells(cells[:2])
        done_before = first.stats.computed
        assert done_before >= 1

        # Relaunch over the same cache: the completed cells come back
        # as cache hits, only the remainder is computed.
        warm_cache = RunCache(tmp_path)
        with SweepExecutor(cache=warm_cache) as relaunch:
            series = _sweep(designs, small_system, small_sim, workloads,
                            relaunch)
        assert relaunch.stats.computed == 3 - done_before
        assert warm_cache.stats.hits == done_before
        assert _series_json(series) == _series_json(reference)
        assert not (tmp_path / "checkpoint.jsonl").exists()


class TestDegradation:
    def test_broken_pool_falls_back_to_serial(self, capsys, monkeypatch,
                                              small_system, small_sim,
                                              designs, workloads):
        reference = _sweep(designs, small_system, small_sim, workloads)
        # Every cell's first two attempts die with os._exit in the
        # worker; the plan rides the environment so forked workers see
        # it.  Inline (degraded) attempts soften abort into a crash.
        monkeypatch.setenv(faults.FAULTS_ENV, "abort:*:2")
        with SweepExecutor(jobs=2, policy=CellPolicy(**FAST)) as executor:
            recovered = _sweep(designs, small_system, small_sim,
                               workloads, executor)
        assert _series_json(recovered) == _series_json(reference)
        assert executor.stats.fallbacks == 1
        assert executor.stats.failed == 0
        assert "falling back to in-process serial execution" in \
            capsys.readouterr().err
        assert "fallbacks=1" in executor.describe()


class TestTelemetryIntegration:
    def test_retry_counters_visible_in_metrics(self, small_system,
                                               small_sim, designs,
                                               workloads):
        cells = sweep_cells(designs, small_system, small_sim, workloads)
        with SweepExecutor() as clean:
            reference = clean.run_cells(cells)
        fps = _fingerprints(designs, small_system, small_sim, workloads)
        faults.install(FaultPlan.parse(f"crash:{fps['para'][:16]}"))
        telemetry = Telemetry()
        with SweepExecutor(policy=CellPolicy(**FAST)) as executor:
            with obs_runtime.activated(telemetry):
                results = executor.run_cells(cells)
        # ExecutorStats is the one count; ``--metrics-out`` reads it at
        # write time (tests/test_cli.py), nothing mirrors it meanwhile.
        assert executor.stats.retries == 1
        assert "exec.retries" not in telemetry.registry
        assert results == reference


def tuple_study() -> tuple:
    """A study breaking the plain-data rule (a tuple comes back from
    the cache as a list)."""
    return (1, 2)


def _dos_cells() -> list[StudyCell]:
    return [StudyCell.of(measured_dos_factor, "gang-dos", f"t_rh={t_rh}",
                         t_rh=t_rh, seed=1, activations=300)
            for t_rh in (125, 250)]


class TestStudyCells:
    def test_crash_and_corrupt_retried_identical_values(self):
        cells = _dos_cells()
        with SweepExecutor() as clean:
            reference = clean.run_cells(cells)
        first, second = (cell_fingerprint(cell) for cell in cells)
        faults.install(FaultPlan.parse(
            f"crash:{first[:16]};corrupt:{second[:16]}"))
        with SweepExecutor(policy=CellPolicy(**FAST)) as executor:
            assert executor.run_cells(cells) == reference
        assert executor.stats.retries == 2
        assert executor.stats.failed == 0

    def test_non_plain_value_fails_as_corrupt(self):
        cell = StudyCell.of(tuple_study, "demo", "tuple")
        with SweepExecutor(policy=CellPolicy(retries=0)) as executor:
            with pytest.raises(SweepFailure) as raised:
                executor.run_cells([cell])
        (failure,) = raised.value.failures
        assert failure.kind == "corrupt"
        assert "tuple" in failure.error

    def test_telemetry_capture_replays_from_cache(self, tmp_path):
        cells = _dos_cells()
        with SweepExecutor(cache=RunCache(tmp_path)) as cold, \
                obs_runtime.activated(Telemetry()):
            reference = cold.run_cells(cells)
        telemetry = Telemetry()
        with SweepExecutor(cache=RunCache(tmp_path)) as warm, \
                obs_runtime.activated(telemetry):
            assert warm.run_cells(cells) == reference
        assert warm.stats.computed == 0
        assert warm.cache.stats.hits == len(cells)
