"""``SweepExecutor(backend=...)``, the deprecated spelling the e2e
benchmark's child process still passes.

3.0 removed every other backend spelling; this one stays until the
benchmark stops passing it.  ``"batched"`` and ``"auto"`` warn once and
change nothing: serial or pooled, memoised or faulted, every cell runs
the scalar path under the scalar fingerprint.
"""

import pytest

from tests import golden_engine
from repro.exec import faults
from repro.exec.executor import Cell, SweepExecutor, cell_fingerprint
from repro.exec.resilience import CellPolicy, SweepFailure
from repro.sim.config import SimConfig
from repro.workloads.profiles import profile

REQUESTS = 400

pytestmark = pytest.mark.filterwarnings(
    "ignore:SweepExecutor\\(backend=...\\) is deprecated"
    ":DeprecationWarning")


def _cells(designs=("none", "mint-drfmsb"), seeds=(1, 2),
           workloads=("mcf",)):
    system = golden_engine._system()
    grid = golden_engine.designs()
    cells = []
    for workload in workloads:
        for design in designs:
            for seed in seeds:
                sim = SimConfig(requests_per_core=REQUESTS, seed=seed)
                cells.append(Cell(workload=profile(workload),
                                  trace_system=system,
                                  run_system=system, sim=sim,
                                  policy=grid[design],
                                  policy_name=design))
    return cells


def _jsons(results):
    return [result.to_json() for result in results]


@pytest.fixture(scope="module")
def scalar_reference():
    with SweepExecutor() as executor:
        return _jsons(executor.run_cells(_cells()))


class TestBackendIdentity:
    @pytest.mark.parametrize("backend,jobs", [("batched", 1),
                                              ("batched", 2),
                                              ("auto", 1)])
    def test_results_byte_identical(self, backend, jobs,
                                    scalar_reference):
        with pytest.warns(DeprecationWarning) as record:
            executor = SweepExecutor(jobs=jobs, backend=backend)
        assert len(record) == 1
        assert record[0].filename == __file__  # blames the caller
        with executor:
            got = _jsons(executor.run_cells(_cells()))
            assert executor.stats.batched == 0
            assert "batched=" not in executor.stats.describe()
        assert got == scalar_reference

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SweepExecutor(backend="gpu")


class TestBackendCaching:
    def test_memo_serves_repeated_batched_cells(self):
        cells = _cells(designs=("none",), seeds=(1, 2))
        with SweepExecutor(backend="batched") as executor:
            executor.run_cells(cells)
            executor.run_cells(cells)
            assert executor.stats.computed == len(cells)
            assert executor.stats.memo_hits == len(cells)

    def test_duplicate_cells_computed_once_per_batch(self):
        # Duplicates share one fingerprint, so the memo computes once.
        cells = _cells(designs=("none",), seeds=(1,))
        with SweepExecutor(backend="batched") as executor:
            results = executor.run_cells(cells * 3)
            assert executor.stats.computed == 1
            assert len({r.to_json() for r in results}) == 1


class TestBatchFaultIsolation:
    def test_crashing_member_fails_alone(self):
        cells = _cells(designs=("none",), seeds=(1, 2, 3, 4))
        fps = [cell_fingerprint(cell) for cell in cells]
        victim = fps[1]
        faults.install(faults.FaultPlan.parse(f"crash:{victim[:12]}:99"))
        try:
            with SweepExecutor(backend="batched",
                               policy=CellPolicy(retries=1)) as executor:
                with pytest.raises(SweepFailure) as excinfo:
                    executor.run_cells(cells)
                assert len(excinfo.value.failures) == 1
                assert excinfo.value.failures[0].fingerprint == victim
                # The other cells survived and are memoised.
                for fp in fps:
                    assert (fp in executor._memo) == (fp != victim)
        finally:
            faults.install(None)

    def test_crash_once_recovers_via_scalar_retry(self):
        cells = _cells(designs=("none",), seeds=(1, 2, 3))
        fps = [cell_fingerprint(cell) for cell in cells]
        faults.install(faults.FaultPlan.parse(f"crash:{fps[0][:12]}:1"))
        try:
            with SweepExecutor(backend="batched") as executor:
                results = executor.run_cells(cells)
                assert executor.stats.retries >= 1
                assert executor.stats.failed == 0
        finally:
            faults.install(None)
        with SweepExecutor() as executor:
            reference = executor.run_cells(cells)
        assert _jsons(results) == _jsons(reference)

    def test_corrupt_member_recovers_alone(self):
        cells = _cells(designs=("none",), seeds=(1, 2, 3))
        fps = [cell_fingerprint(cell) for cell in cells]
        faults.install(faults.FaultPlan.parse(f"corrupt:{fps[2][:12]}:1"))
        try:
            with SweepExecutor(backend="batched") as executor:
                results = executor.run_cells(cells)
                assert executor.stats.failed == 0
                assert executor.stats.retries >= 1
        finally:
            faults.install(None)
        with SweepExecutor() as executor:
            reference = executor.run_cells(cells)
        assert _jsons(results) == _jsons(reference)


class TestBackendTelemetry:
    def test_merged_telemetry_identical_across_backends(self):
        import json
        from repro.obs import Telemetry
        from repro.obs import runtime as obs_runtime

        outputs = []
        for backend, jobs in (("scalar", 1), ("batched", 1),
                              ("batched", 2)):
            telemetry = Telemetry(journal_memory=True,
                                  sample_every_refi=4)
            with obs_runtime.activated(telemetry):
                with SweepExecutor(jobs=jobs,
                                   backend=backend) as executor:
                    results = executor.run_cells(_cells())
            lines = [json.dumps(record, sort_keys=True)
                     for record in telemetry.journal.records]
            outputs.append((_jsons(results), lines,
                            telemetry.snapshot()["metrics"]))
        assert outputs[0] == outputs[1] == outputs[2]
